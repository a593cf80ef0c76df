// Campaign engine: snapshot cache, work-stealing executor, and
// engine-vs-serial verdict equivalence.
//
// The executor tests are written to run cleanly under ThreadSanitizer:
// they exercise concurrent snapshot builds, stealing under an unbalanced
// matrix, injected guest faults, harness-error retries, instruction
// budgets and wall-clock timeouts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "campaign/report.hpp"
#include "campaign/snapshot_cache.hpp"
#include "campaign/worker.hpp"
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

/// Everything a served row reports about the guest's run: verdict, stop
/// reason, alert line, instruction count and every CpuStats and TaintUnit
/// counter.
std::string row_print(const JobResult& r) {
  std::ostringstream ss;
  ss << to_string(r.status) << " " << r.verdict << " [" << r.detail << "]"
     << " stop=" << static_cast<int>(r.report.stop)
     << " alert=" << r.report.alert_line();
  const cpu::CpuStats& c = r.report.cpu_stats;
  ss << " inst=" << c.instructions << " alu=" << c.alu_ops
     << " ld=" << c.loads << " st=" << c.stores << " br=" << c.branches
     << " taken=" << c.taken_branches << " j=" << c.jumps
     << " sys=" << c.syscalls << " tld=" << c.tainted_loads
     << " tst=" << c.tainted_stores << " cu=" << c.compare_untaints;
  const cpu::TaintUnit::Stats& t = r.report.taint_stats;
  ss << " ev=" << t.evaluations << " tev=" << t.tainted_evaluations
     << " tcu=" << t.compare_untaints << " and0=" << t.and_zero_untaints
     << " xor=" << t.xor_self_untaints;
  return ss.str();
}

/// The coverage cells and the ablation attack cells in a seeded shuffled
/// order in which no two consecutive cells run under the same policy.
std::vector<CellRef> policy_switching_cells() {
  std::vector<std::pair<CellRef, cpu::TaintPolicy>> pending;
  for (const std::string campaign : {"coverage", "ablation"}) {
    for (const CellRef& cell : campaign_cells(campaign)) {
      if (cell.app != "attack") continue;
      pending.emplace_back(cell, *policy_by_name(cell.policy));
    }
  }
  std::mt19937 rng(20050628);
  std::vector<CellRef> order;
  std::optional<cpu::TaintPolicy> last;
  while (!pending.empty()) {
    // Draw among the cells whose policy differs from the last one's; the
    // policy with the most cells left goes first once it holds half of
    // them, so the order cannot end in a run of one policy.
    std::vector<size_t> allowed;
    size_t largest = 0;
    size_t largest_n = 0;
    for (size_t i = 0; i < pending.size(); ++i) {
      const cpu::TaintPolicy& p = pending[i].second;
      if (p == last) continue;
      allowed.push_back(i);
      const auto n = static_cast<size_t>(std::count_if(
          pending.begin(), pending.end(),
          [&](const auto& other) { return other.second == p; }));
      if (n > largest_n) {
        largest = i;
        largest_n = n;
      }
    }
    if (allowed.empty()) break;
    const size_t pick = 2 * largest_n >= pending.size()
                            ? largest
                            : allowed[rng() % allowed.size()];
    order.push_back(pending[pick].first);
    last = pending[pick].second;
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return order;
}

TEST(Campaign, OnePooledMachineServesEveryPolicyLikeAFreshMachine) {
  // One kept machine per engine serves every policy column: the policy
  // and elision are restore settings.  Every row must equal a fresh
  // machine's run of the same cell — which pins an elision bitmap proven
  // under another policy and jit host code compiled under another
  // policy's Table 1 rules, the two things a policy change must not reuse.
  const std::vector<CellRef> cells = policy_switching_cells();
  size_t attack_cells = campaign_cells("coverage").size();
  for (const CellRef& cell : campaign_cells("ablation")) {
    attack_cells += cell.app == "attack";
  }
  ASSERT_EQ(cells.size(), attack_cells);
  for (size_t i = 1; i < cells.size(); ++i) {
    ASSERT_FALSE(*policy_by_name(cells[i].policy) ==
                 *policy_by_name(cells[i - 1].policy))
        << i;
  }
  SnapshotCache cache;
  for (const cpu::Engine engine :
       {cpu::Engine::kStep, cpu::Engine::kSuperblock, cpu::Engine::kJit}) {
    for (const bool elide : {false, true}) {
      const std::string what = std::string(cpu::to_string(engine)) +
                               (elide ? ", elided" : "");
      MachinePool pool;
      ForkCounters counters;
      for (size_t i = 0; i < cells.size(); ++i) {
        const Job job = make_cell_job(cells[i], cache, 1, elide, engine);
        const JobResult served = run_job(job, i, {}, pool, counters);
        MachinePool fresh_pool;
        ForkCounters fresh_counters;
        const JobResult fresh =
            run_job(job, i, {}, fresh_pool, fresh_counters);
        EXPECT_EQ(row_print(fresh), row_print(served))
            << what << ": " << cells[i].payload << " under "
            << cells[i].policy << " (job " << i << ")";
      }
      EXPECT_EQ(pool.size(), 1u) << what;
      EXPECT_EQ(counters.machine_builds.load(), 1u) << what;
    }
  }
}

}  // namespace
}  // namespace ptaint::campaign
