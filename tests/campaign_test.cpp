// Campaign engine: snapshot cache, work-stealing executor, and
// engine-vs-serial verdict equivalence.
//
// The executor tests are written to run cleanly under ThreadSanitizer:
// they exercise concurrent snapshot builds, stealing under an unbalanced
// matrix, injected guest faults, harness-error retries, instruction
// budgets and wall-clock timeouts.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "campaign/report.hpp"
#include "campaign/snapshot_cache.hpp"
#include "core/machine.hpp"
#include "core/spec_workloads.hpp"

namespace ptaint::campaign {
namespace {

// Tiny raw guests (no runtime): exit 0, exit with an argument-derived
// status, fault by jumping into the void, and spin forever.
const char* kExitZero = R"(
    .text
_start:
    li $v0, 1
    li $a0, 0
    syscall
)";

const char* kFaulty = R"(
    .text
_start:
    li $t0, 2
    jr $t0
)";

const char* kSpin = R"(
    .text
_start:
loop:
    b loop
)";

std::unique_ptr<core::Machine> make_guest(const char* source) {
  auto m = std::make_unique<core::Machine>();
  m->load_source(source);
  return m;
}

/// A freshly booted guest as a shareable snapshot (what get_snapshot hands
/// the worker).
std::shared_ptr<const core::MachineSnapshot> boot(const char* source) {
  return std::make_shared<const core::MachineSnapshot>(
      make_guest(source)->snapshot());
}

Job simple_job(const char* source, std::string payload) {
  Job job;
  job.app = "unit";
  job.payload = std::move(payload);
  job.policy = "paper";
  job.machine_key = "default";
  job.make_config = [] { return core::MachineConfig{}; };
  job.get_snapshot = [source]() { return boot(source); };
  job.classify = [](core::Machine&, const core::RunReport& report,
                    JobResult& out) {
    out.verdict = report.stop == cpu::StopReason::kExit ? "OK" : "BAD";
  };
  return job;
}

TEST(SnapshotCache, BuildsOncePerKeyUnderContention) {
  SnapshotCache cache;
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 4; ++i) {
        auto snap = cache.get("shared", [&]() {
          builds.fetch_add(1);
          return make_guest(kExitZero)->snapshot();
        });
        ASSERT_NE(snap, nullptr);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(cache.stats().builds, 1u);
  EXPECT_EQ(cache.stats().hits, 8u * 4u - 1u);
}

TEST(SnapshotCache, BuilderFailurePropagatesAndIsNotCached) {
  SnapshotCache cache;
  int calls = 0;
  auto failing = [&]() -> core::MachineSnapshot {
    ++calls;
    if (calls == 1) throw std::runtime_error("boom");
    return make_guest(kExitZero)->snapshot();
  };
  EXPECT_THROW(cache.get("k", failing), std::runtime_error);
  EXPECT_NE(cache.get("k", failing), nullptr);  // second attempt rebuilds
  EXPECT_EQ(calls, 2);
}

TEST(Executor, StressManyJobsFewWorkersWithInjectedFaults) {
  // 60 jobs on 4 workers; every third job is a guest that faults.  The
  // faults must land in their own results (kGuestFault), never take down
  // the harness, and results must come back in matrix order.
  std::vector<Job> jobs;
  for (int i = 0; i < 60; ++i) {
    const bool fault = i % 3 == 2;
    Job job = simple_job(fault ? kFaulty : kExitZero,
                         "job-" + std::to_string(i));
    jobs.push_back(std::move(job));
  }
  Executor::Config config;
  config.workers = 4;
  Executor executor(config);
  const std::vector<JobResult> results = executor.run(jobs);

  ASSERT_EQ(results.size(), jobs.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].payload, "job-" + std::to_string(i));
    if (i % 3 == 2) {
      EXPECT_EQ(results[i].status, JobStatus::kGuestFault) << i;
      EXPECT_EQ(results[i].verdict, "BAD") << i;
    } else {
      EXPECT_EQ(results[i].status, JobStatus::kOk) << i;
      EXPECT_EQ(results[i].verdict, "OK") << i;
    }
    EXPECT_EQ(results[i].attempts, 1) << i;
  }
  EXPECT_EQ(executor.stats().jobs, jobs.size());
  EXPECT_EQ(executor.stats().retries, 0u);
}

TEST(Executor, SharedSnapshotForkStress) {
  // All jobs fork the same cached snapshot concurrently: the cache must
  // build once and every fork must run to the same verdict.
  SnapshotCache cache;
  std::vector<Job> jobs;
  for (int i = 0; i < 32; ++i) {
    Job job = simple_job(kExitZero, "fork-" + std::to_string(i));
    job.get_snapshot = [&cache]() {
      return cache.get("boot",
                       []() { return make_guest(kExitZero)->snapshot(); });
    };
    jobs.push_back(std::move(job));
  }
  Executor::Config config;
  config.workers = 4;
  const std::vector<JobResult> results = Executor(config).run(jobs);
  for (const JobResult& r : results) {
    EXPECT_EQ(r.status, JobStatus::kOk);
    EXPECT_EQ(r.verdict, "OK");
  }
  EXPECT_EQ(cache.stats().builds, 1u);
}

TEST(Executor, RetriesSpuriousHarnessErrorOnce) {
  auto fail_once = std::make_shared<std::atomic<bool>>(true);
  Job job = simple_job(kExitZero, "flaky");
  job.get_snapshot = [fail_once]() {
    if (fail_once->exchange(false)) throw std::runtime_error("spurious");
    return boot(kExitZero);
  };
  Executor executor;
  const std::vector<JobResult> results = executor.run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kOk);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(executor.stats().retries, 1u);
}

TEST(Executor, GivesUpAfterBoundedRetries) {
  Job job = simple_job(kExitZero, "doomed");
  job.get_snapshot = []() -> std::shared_ptr<const core::MachineSnapshot> {
    throw std::runtime_error("always broken");
  };
  Executor executor;  // max_retries = 1
  const std::vector<JobResult> results = executor.run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kHarnessError);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(results[0].error, "always broken");
}

TEST(Executor, EnforcesInstructionBudget) {
  Job job = simple_job(kSpin, "spinner");
  job.max_instructions = 10'000;
  const std::vector<JobResult> results = Executor().run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kBudgetExhausted);
  EXPECT_EQ(results[0].report.stop, cpu::StopReason::kInstLimit);
  EXPECT_LE(results[0].report.cpu_stats.instructions, 10'000u);
}

TEST(Executor, EnforcesWallClockTimeout) {
  Job job = simple_job(kSpin, "hung");
  job.timeout = std::chrono::milliseconds(0);  // deadline already passed
  Executor::Config config;
  config.slice_instructions = 1'000;  // check the clock early
  const std::vector<JobResult> results = Executor(config).run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, JobStatus::kTimeout);
  EXPECT_EQ(results[0].verdict, "TIMEOUT");
}

TEST(Campaign, FalsenegEngineMatchesSerialReference) {
  SnapshotCache cache;
  Executor::Config config;
  config.workers = 4;
  const auto engine = Executor(config).run(make_jobs("falseneg", cache));
  const auto serial = run_serial_reference("falseneg");
  const auto diffs = diff_verdicts(engine, serial);
  for (const auto& d : diffs) ADD_FAILURE() << d;
  EXPECT_EQ(format_campaign("falseneg", engine),
            format_campaign("falseneg", serial));
}

TEST(Campaign, CoverageEngineMatchesSerialReference) {
  SnapshotCache cache;
  Executor::Config config;
  config.workers = 4;
  const auto engine = Executor(config).run(make_jobs("coverage", cache));
  const auto serial = run_serial_reference("coverage");
  const auto diffs = diff_verdicts(engine, serial);
  for (const auto& d : diffs) ADD_FAILURE() << d;
}

TEST(Campaign, SpecCellAtTwoScalesThroughOneCacheMatchesSerialReferences) {
  // The scale sizes a SPEC surrogate's input, so one cache asked for the
  // same cell at scale 1 and then 2 must boot each scale's input.
  SnapshotCache cache;
  const CellRef cell{"spec", "GCC", "paper"};
  for (const int scale : {1, 2}) {
    const auto engine = Executor().run({make_cell_job(cell, cache, scale)});
    ASSERT_EQ(engine.size(), 1u);
    // The serial reference's SPEC path: a fresh boot at this scale on the
    // step engine.
    core::SpecWorkload workload;
    for (core::SpecWorkload& w : core::make_spec_workloads(scale)) {
      if (w.name == cell.payload) workload = std::move(w);
    }
    const core::RunReport serial =
        core::prepare_spec_workload(workload, *policy_by_name(cell.policy),
                                    cpu::Engine::kStep)
            ->run();
    EXPECT_EQ(engine[0].verdict, "OK") << "scale " << scale;
    EXPECT_EQ(engine[0].report.cpu_stats.instructions,
              serial.cpu_stats.instructions)
        << "scale " << scale;
    EXPECT_EQ(engine[0].report.stdout_text, serial.stdout_text)
        << "scale " << scale;
  }
}

TEST(Campaign, ReportsAreDeterministicFunctionsOfResults) {
  SnapshotCache cache;
  Executor::Config one, many;
  one.workers = 1;
  many.workers = 8;
  const auto a = Executor(one).run(make_jobs("falseneg", cache));
  const auto b = Executor(many).run(make_jobs("falseneg", cache));
  EXPECT_EQ(to_json(a), to_json(b));
  EXPECT_EQ(to_csv(a), to_csv(b));
  EXPECT_EQ(console_summary(a), console_summary(b));
}

}  // namespace
}  // namespace ptaint::campaign
