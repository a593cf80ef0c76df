// Serving layer: JSON protocol parsing, the persistent job queue
// (journal, replay, quotas, fair scheduling), the in-process daemon, and
// the worker retry/timeout contract the daemon depends on.
//
// Like campaign_test.cpp, these are written to run cleanly under
// ThreadSanitizer: the daemon tests exercise the full four-thread-group
// pipeline (listener, connection handlers, shard workers, judge) over a
// real Unix-domain socket.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "campaign/report.hpp"
#include "campaign/snapshot_cache.hpp"
#include "campaign/worker.hpp"
#include "core/machine.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/queue.hpp"
#include "serve/server.hpp"

namespace ptaint::serve {
namespace {

// ---------------------------------------------------------------- JSON --

TEST(ServeJson, ParsesNestedValues) {
  const JsonValue v = JsonValue::parse(
      R"({"a": 1, "b": "x\u0041\n", "c": [true, false, null], "d": {"e": 2}})");
  EXPECT_EQ(v.get_u64("a"), 1u);
  EXPECT_EQ(v.get_string("b"), "xA\n");
  const JsonValue* c = v.get("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->as_array().size(), 3u);
  EXPECT_TRUE(c->as_array()[0].as_bool());
  ASSERT_NE(v.get("d"), nullptr);
  EXPECT_EQ(v.get("d")->get_u64("e"), 2u);
}

TEST(ServeJson, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse("{\"a\": }"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\": 1} trailing"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\": \"\\ud800\"}"), JsonError);
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"rec\": \"submit\", \"id\": 12"),
               JsonError);  // a torn journal line
}

TEST(ServeJson, RejectsNestingBeyondTheDepthLimit) {
  const auto nested = [](int depth) {
    return std::string(static_cast<size_t>(depth), '[') +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_NO_THROW(JsonValue::parse(nested(kJsonMaxDepth)));
  EXPECT_THROW(JsonValue::parse(nested(kJsonMaxDepth + 1)), JsonError);
  // Unbounded recursion used to overflow the stack on this line.
  EXPECT_THROW(JsonValue::parse(std::string(1'000'000, '[')), JsonError);
}

TEST(ServeJson, U64RejectsNegativeAndFractional) {
  EXPECT_THROW(JsonValue::parse("-3").as_u64(), JsonError);
  EXPECT_THROW(JsonValue::parse("1.5").as_u64(), JsonError);
  EXPECT_THROW(JsonValue::parse("1e300").as_u64(), JsonError);
  EXPECT_THROW(JsonValue::parse("18446744073709551616").as_u64(), JsonError);
  EXPECT_EQ(JsonValue::parse("42").as_u64(), 42u);
  // The largest double below 2^64 still converts.
  EXPECT_EQ(JsonValue::parse("18446744073709549568").as_u64(),
            18446744073709549568u);
}

TEST(ServeJson, GetHelpersFallBack) {
  const JsonValue v = JsonValue::parse("{\"s\": \"x\"}");
  EXPECT_EQ(v.get_string("missing", "dflt"), "dflt");
  EXPECT_EQ(v.get_u64("missing", 7), 7u);
  EXPECT_FALSE(v.get_bool("missing"));
}

// ------------------------------------------------------------- JobSpec --

TEST(ServeSpec, RoundTripsThroughJson) {
  JobSpec spec;
  spec.tenant = "alice";
  spec.app = "guest";
  spec.payload = "null-httpd";
  spec.policy = "paper";
  spec.engine = "superblock";
  spec.elide = true;
  spec.session = {"GET / HTTP/1.0", ""};
  spec.stdin_text = "hi\n";
  spec.max_instructions = 1'000'000;
  spec.timeout_ms = 2'500;

  const JobSpec back = JobSpec::from_json(JsonValue::parse(spec.to_json()));
  EXPECT_EQ(back.tenant, spec.tenant);
  EXPECT_EQ(back.app, spec.app);
  EXPECT_EQ(back.payload, spec.payload);
  EXPECT_EQ(back.policy, spec.policy);
  EXPECT_EQ(back.engine, spec.engine);
  EXPECT_EQ(back.elide, spec.elide);
  EXPECT_EQ(back.session, spec.session);
  EXPECT_EQ(back.stdin_text, spec.stdin_text);
  EXPECT_EQ(back.max_instructions, spec.max_instructions);
  EXPECT_EQ(back.timeout_ms, spec.timeout_ms);
}

TEST(ServeSpec, RequiresAppAndPayload) {
  EXPECT_THROW(JobSpec::from_json(JsonValue::parse("{\"app\": \"attack\"}")),
               std::invalid_argument);
  EXPECT_THROW(
      JobSpec::from_json(JsonValue::parse("{\"payload\": \"exp1\"}")),
      std::invalid_argument);
}

// ------------------------------------------------------------ JobQueue --

std::string temp_journal(const std::string& name) {
  const std::string path = "/tmp/ptaint_serve_test." +
                           std::to_string(::getpid()) + "." + name +
                           ".journal";
  ::unlink(path.c_str());
  return path;
}

JobSpec attack_spec(const std::string& tenant,
                    const std::string& payload = "exp1-stack-smash") {
  JobSpec spec;
  spec.tenant = tenant;
  spec.app = "attack";
  spec.payload = payload;
  spec.policy = "paper";
  return spec;
}

TEST(ServeQueue, SubmitAcquireCompleteLifecycle) {
  JobQueue queue({temp_journal("lifecycle"), 0});
  const uint64_t a = queue.submit(attack_spec("t"));
  const uint64_t b = queue.submit(attack_spec("t"));
  EXPECT_EQ(queue.state(a), JobQueue::State::kQueued);

  auto first = queue.acquire();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, a);  // single tenant: FIFO
  EXPECT_EQ(queue.state(a), JobQueue::State::kRunning);

  queue.complete(a, "{\"verdict\": \"DETECTED\"}");
  EXPECT_EQ(queue.state(a), JobQueue::State::kDone);
  ASSERT_TRUE(queue.result_json(a).has_value());
  EXPECT_EQ(*queue.result_json(a), "{\"verdict\": \"DETECTED\"}");

  auto second = queue.acquire();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->id, b);
  queue.complete(b, "{}");

  const JobQueue::Status status = queue.status();
  EXPECT_EQ(status.total.done, 2u);
  EXPECT_EQ(status.total.queued, 0u);
  EXPECT_EQ(status.total.running, 0u);
}

TEST(ServeQueue, FairRoundRobinAcrossTenants) {
  JobQueue queue({temp_journal("fair"), 0});
  // Tenant "a" floods first; "b" submits after.  Fairness means the
  // acquire order alternates, not first-come-first-served.
  std::vector<uint64_t> a_ids, b_ids;
  for (int i = 0; i < 3; ++i) a_ids.push_back(queue.submit(attack_spec("a")));
  for (int i = 0; i < 3; ++i) b_ids.push_back(queue.submit(attack_spec("b")));
  std::vector<std::string> order;
  for (int i = 0; i < 6; ++i) {
    auto got = queue.acquire();
    ASSERT_TRUE(got.has_value());
    order.push_back(got->spec.tenant);
    queue.complete(got->id, "{}");
  }
  const std::vector<std::string> expect = {"a", "b", "a", "b", "a", "b"};
  EXPECT_EQ(order, expect);
}

TEST(ServeQueue, QuotaBoundsLiveJobsPerTenant) {
  JobQueue queue({temp_journal("quota"), 2});
  queue.submit(attack_spec("t"));
  queue.submit(attack_spec("t"));
  EXPECT_THROW(queue.submit(attack_spec("t")), QuotaError);
  // Quota covers queued + running: acquiring does not free a slot...
  auto got = queue.acquire();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->spec.tenant, "t");
  EXPECT_THROW(queue.submit(attack_spec("t")), QuotaError);
  // ...completing does.
  queue.complete(got->id, "{}");
  EXPECT_NO_THROW(queue.submit(attack_spec("t")));
  // Another tenant's quota is independent even while "t" sits at its cap.
  EXPECT_THROW(queue.submit(attack_spec("t")), QuotaError);
  EXPECT_NO_THROW(queue.submit(attack_spec("other")));
}

TEST(ServeQueue, CancelAppliesToQueuedJobsOnly) {
  JobQueue queue({temp_journal("cancel"), 0});
  const uint64_t a = queue.submit(attack_spec("t"));
  const uint64_t b = queue.submit(attack_spec("t"));
  auto got = queue.acquire();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, a);
  EXPECT_FALSE(queue.cancel(a));  // running
  EXPECT_TRUE(queue.cancel(b));   // queued
  EXPECT_EQ(queue.state(b), JobQueue::State::kCancelled);
  EXPECT_FALSE(queue.cancel(b));            // already cancelled
  EXPECT_FALSE(queue.cancel(b + 1'000));    // unknown
  queue.complete(a, "{}");
  const JobQueue::Status status = queue.status();
  EXPECT_EQ(status.total.cancelled, 1u);
  EXPECT_EQ(status.total.done, 1u);
}

TEST(ServeQueue, ReplayReEnqueuesUnfinishedExactlyOnce) {
  const std::string journal = temp_journal("replay");
  uint64_t a = 0, b = 0, c = 0;
  {
    JobQueue queue({journal, 0});
    a = queue.submit(attack_spec("t", "exp1-stack-smash"));
    b = queue.submit(attack_spec("t", "exp2-heap-corruption"));
    c = queue.submit(attack_spec("t", "exp3-format-string"));
    auto got = queue.acquire();
    ASSERT_TRUE(got.has_value());
    queue.complete(got->id, "{\"verdict\": \"DETECTED\"}");
    // b acquired but never completed — the "mid-run at crash" case.
    ASSERT_TRUE(queue.acquire().has_value());
  }  // destructor = kill: no graceful drain

  JobQueue revived({journal, 0});
  // a is done (terminal record in the journal), b and c are pending again.
  EXPECT_EQ(revived.status().replayed, 2u);
  EXPECT_EQ(revived.state(a), JobQueue::State::kDone);
  ASSERT_TRUE(revived.result_json(a).has_value());
  EXPECT_EQ(*revived.result_json(a), "{\"verdict\": \"DETECTED\"}");
  auto first = revived.acquire();
  auto second = revived.acquire();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->id, b);  // original id order
  EXPECT_EQ(second->id, c);
  // New submissions continue past every journaled id.
  EXPECT_GT(revived.submit(attack_spec("t")), c);
}

TEST(ServeQueue, ReplaySkipsTornFinalLine) {
  const std::string journal = temp_journal("torn");
  uint64_t a = 0;
  {
    JobQueue queue({journal, 0});
    a = queue.submit(attack_spec("t"));
  }
  {
    // A crash mid-append tears the last record; everything before it must
    // survive.
    std::ofstream out(journal, std::ios::app | std::ios::binary);
    out << "{\"rec\": \"submit\", \"id\": 99, \"spec\": {\"app\": \"att";
  }
  JobQueue revived({journal, 0});
  EXPECT_EQ(revived.status().replayed, 1u);
  EXPECT_EQ(revived.state(a), JobQueue::State::kQueued);
  EXPECT_EQ(revived.state(99), JobQueue::State::kUnknown);
}

TEST(ServeQueue, ReplaySkipsRecordsWithMalformedIds) {
  const std::string journal = temp_journal("badid");
  {
    std::ofstream out(journal, std::ios::binary);
    out << "{\"rec\": \"done\", \"id\": -1, \"result\": {}}\n"
        << "{\"rec\": \"submit\", \"id\": 7, \"spec\": "
        << attack_spec("t").to_json() << "}\n";
  }
  JobQueue revived({journal, 0});
  EXPECT_EQ(revived.status().replayed, 1u);
  EXPECT_EQ(revived.status().total.queued, 1u);
  EXPECT_EQ(revived.state(7), JobQueue::State::kQueued);
  const auto got = revived.acquire();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->id, 7u);
}

TEST(ServeQueue, StopUnblocksAcquireAndClosesSubmissions) {
  JobQueue queue({temp_journal("stop"), 0});
  std::atomic<bool> unblocked{false};
  std::thread waiter([&]() {
    EXPECT_FALSE(queue.acquire().has_value());
    unblocked.store(true);
  });
  queue.stop();
  waiter.join();
  EXPECT_TRUE(unblocked.load());
  EXPECT_THROW(queue.submit(attack_spec("t")), std::runtime_error);
}

// ---------------------------------------------------- worker retry/timeout

const char* kRetryExitZero = R"(
    .text
_start:
    li $v0, 1
    li $a0, 0
    syscall
)";

const char* kRetrySpin = R"(
    .text
_start:
loop:
    b loop
)";

/// A job whose first attempt spins past the deadline and whose second
/// attempt exits cleanly — the daemon's "shard briefly descheduled" case.
campaign::Job flaky_timeout_job(
    std::shared_ptr<std::atomic<int>> attempts_seen) {
  campaign::Job job;
  job.app = "unit";
  job.payload = "flaky-timeout";
  job.policy = "paper";
  job.timeout = std::chrono::milliseconds(200);
  job.max_instructions = 500'000'000;
  job.machine_key = "default";
  job.get_snapshot = [attempts_seen]() {
    const int attempt = attempts_seen->fetch_add(1) + 1;
    core::Machine m;
    m.load_source(attempt == 1 ? kRetrySpin : kRetryExitZero);
    return std::make_shared<const core::MachineSnapshot>(m.snapshot());
  };
  job.classify = [](core::Machine&, const core::RunReport& report,
                    campaign::JobResult& out) {
    out.verdict =
        report.stop == cpu::StopReason::kExit ? "CLEAN-EXIT" : "BAD";
    out.detail = "attempt ran to completion";
  };
  return job;
}

TEST(ServeWorkerRetry, TimeoutRetriesAndReportsSuccessfulAttemptOnly) {
  auto attempts_seen = std::make_shared<std::atomic<int>>(0);
  campaign::Job job = flaky_timeout_job(attempts_seen);
  job.retry_on_timeout = true;

  campaign::MachinePool pool;
  campaign::ForkCounters counters;
  const campaign::WorkerConfig config{10'000, /*max_retries=*/1};
  const campaign::JobResult result =
      campaign::run_job(job, 0, config, pool, counters);

  EXPECT_EQ(attempts_seen->load(), 2);
  EXPECT_EQ(result.attempts, 2);
  EXPECT_EQ(result.status, campaign::JobStatus::kOk);
  // Verdict, detail and error describe the successful attempt — nothing
  // bleeds through from the timed-out one.
  EXPECT_EQ(result.verdict, "CLEAN-EXIT");
  EXPECT_EQ(result.detail, "attempt ran to completion");
  EXPECT_TRUE(result.error.empty());
  // Per-phase timings were reset for attempt 2: an exit-0 guest runs far
  // below the 200ms deadline the first attempt burned in full.
  EXPECT_LT(result.run_ms, 150.0);
  EXPECT_LT(result.wall_ms, 150.0);
}

TEST(ServeWorkerRetry, TimeoutIsFinalWithoutOptIn) {
  auto attempts_seen = std::make_shared<std::atomic<int>>(0);
  campaign::Job job =
      flaky_timeout_job(attempts_seen);  // retry_on_timeout = false

  campaign::MachinePool pool;
  campaign::ForkCounters counters;
  const campaign::WorkerConfig config{10'000, 1};
  const campaign::JobResult result =
      campaign::run_job(job, 0, config, pool, counters);

  EXPECT_EQ(attempts_seen->load(), 1);
  EXPECT_EQ(result.attempts, 1);
  EXPECT_EQ(result.status, campaign::JobStatus::kTimeout);
  EXPECT_EQ(result.verdict, "TIMEOUT");
}

TEST(ServeWorkerRetry, ExecutorCountsTimeoutRetry) {
  auto attempts_seen = std::make_shared<std::atomic<int>>(0);
  campaign::Job job = flaky_timeout_job(attempts_seen);
  job.retry_on_timeout = true;

  campaign::Executor::Config config;
  config.workers = 1;
  campaign::Executor executor(config);
  const std::vector<campaign::JobResult> results = executor.run({job});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, campaign::JobStatus::kOk);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(executor.stats().retries, 1u);
}

// ------------------------------------------------- snapshot cache stats --

TEST(ServeSnapshotStats, MissesCountThrowingBuilders) {
  campaign::SnapshotCache cache;
  int calls = 0;
  auto builder = [&]() -> core::MachineSnapshot {
    if (++calls == 1) throw std::runtime_error("boom");
    auto m = std::make_unique<core::Machine>();
    m->load_source(kRetryExitZero);
    return m->snapshot();
  };
  EXPECT_THROW(cache.get("k", builder), std::runtime_error);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().builds, 0u);  // the throw built nothing

  ASSERT_NE(cache.get("k", builder), nullptr);
  ASSERT_NE(cache.get("k", builder), nullptr);
  const campaign::SnapshotCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // both build attempts
  EXPECT_EQ(stats.builds, 1u);  // only one succeeded
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_GT(stats.snapshot_pages, 0u);
}

// -------------------------------------------------------- exit codes --

campaign::JobResult result_with(campaign::JobStatus status) {
  campaign::JobResult r;
  r.status = status;
  return r;
}

TEST(ServeExitCode, ContractMatchesDocs) {
  using campaign::JobStatus;
  EXPECT_EQ(campaign::exit_code_for({}), 0);
  EXPECT_EQ(campaign::exit_code_for({result_with(JobStatus::kOk),
                                     result_with(JobStatus::kGuestFault),
                                     result_with(JobStatus::kBudgetExhausted)}),
            0);
  EXPECT_EQ(campaign::exit_code_for({result_with(JobStatus::kOk),
                                     result_with(JobStatus::kTimeout)}),
            3);
  EXPECT_EQ(campaign::exit_code_for({result_with(JobStatus::kHarnessError)}),
            2);
  // Harness errors outrank timeouts.
  EXPECT_EQ(campaign::exit_code_for({result_with(JobStatus::kTimeout),
                                     result_with(JobStatus::kHarnessError)}),
            2);
}

TEST(ServeExitCode, JsonRowMatchesArrayElement) {
  campaign::JobResult r;
  r.index = 3;
  r.app = "attack";
  r.payload = "exp1-stack-smash";
  r.policy = "paper";
  r.status = campaign::JobStatus::kOk;
  r.verdict = "DETECTED";
  const campaign::ReportOptions opts{};
  const std::string array = campaign::to_json({r}, opts);
  EXPECT_NE(array.find(campaign::to_json_row(r, opts)), std::string::npos);
}

// ------------------------------------------------------------- daemon --

class ServeDaemonTest : public ::testing::Test {
 protected:
  void boot(int workers = 2, int quota = 0) {
    const std::string base = "/tmp/ptaint_serve_test." +
                             std::to_string(::getpid()) + "." +
                             ::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name();
    config_.socket_path = base + ".sock";
    config_.journal_path = base + ".journal";
    config_.workers = workers;
    config_.tenant_quota = quota;
    ::unlink(config_.journal_path.c_str());
    daemon_ = std::make_unique<ServeDaemon>(config_);
    daemon_->start();
  }

  void TearDown() override {
    if (daemon_) {
      daemon_->stop();
      daemon_->wait();
    }
    ::unlink(config_.journal_path.c_str());
  }

  ServeDaemon::Config config_;
  std::unique_ptr<ServeDaemon> daemon_;
};

TEST_F(ServeDaemonTest, StreamedVerdictMatchesBatchRow) {
  boot();
  Client client(config_.socket_path);
  const std::string accepted = client.request(
      "{\"cmd\": \"submit\", \"stream\": true, \"job\": "
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}}");
  EXPECT_NE(accepted.find("\"event\": \"accepted\""), std::string::npos);

  const auto event = client.read_line();
  ASSERT_TRUE(event.has_value());
  const JsonValue v = JsonValue::parse(*event);
  EXPECT_EQ(v.get_string("event"), "verdict");
  const JsonValue* row = v.get("result");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->get_string("verdict"), "DETECTED");
  EXPECT_EQ(row->get_string("status"), "ok");
  EXPECT_EQ(row->get_string("app"), "attack");
  EXPECT_EQ(row->get_u64("attempts"), 1u);

  // The daemon journaled the same row it streamed (exactly-once source of
  // truth), and the result stays queryable on a fresh connection.
  Client other(config_.socket_path);
  const std::string result = other.request(
      "{\"cmd\": \"result\", \"id\": " +
      std::to_string(v.get_u64("id")) + "}");
  EXPECT_NE(result.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(result.find("\"verdict\": \"DETECTED\""), std::string::npos);
}

TEST_F(ServeDaemonTest, DeeplyNestedLineIsABadRequestNotACrash) {
  boot();
  Client client(config_.socket_path);
  const std::string reply = client.request(std::string(1'000'000, '['));
  EXPECT_NE(reply.find("\"event\": \"error\""), std::string::npos);
  EXPECT_NE(reply.find("bad request"), std::string::npos);
  // The connection (and the daemon behind it) keeps serving.
  EXPECT_NE(client.request("{\"cmd\": \"ping\"}").find("pong"),
            std::string::npos);
}

TEST_F(ServeDaemonTest, OverLongLineGetsOneReplyThenTheConnectionCloses) {
  boot();
  {
    Client client(config_.socket_path);
    client.send_line(std::string(kMaxLineBytes + 1, 'x'));
    const auto reply = client.read_line();
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"event\": \"error\""), std::string::npos);
    EXPECT_NE(reply->find("bad request: line too long"), std::string::npos);
    EXPECT_FALSE(client.read_line().has_value());  // closed after the reply
  }
  // The daemon keeps serving fresh connections.
  Client fresh(config_.socket_path);
  EXPECT_NE(fresh.request("{\"cmd\": \"ping\"}").find("pong"),
            std::string::npos);
}

TEST_F(ServeDaemonTest, BadSpecYieldsHarnessErrorVerdictNotDeadShard) {
  boot();
  Client client(config_.socket_path);
  client.send_line(
      "{\"cmd\": \"submit\", \"stream\": true, \"job\": "
      "{\"app\": \"attack\", \"payload\": \"no-such-scenario\"}}");
  ASSERT_TRUE(client.read_line().has_value());  // accepted
  const auto event = client.read_line();
  ASSERT_TRUE(event.has_value());
  const JsonValue v = JsonValue::parse(*event);
  ASSERT_NE(v.get("result"), nullptr);
  EXPECT_EQ(v.get("result")->get_string("status"), "harness-error");
  EXPECT_NE(v.get("result")->get_string("error").find("no-such-scenario"),
            std::string::npos);
  // The shard survived: a good job still verdicts.
  const std::string accepted = client.request(
      "{\"cmd\": \"submit\", \"stream\": true, \"job\": "
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}}");
  EXPECT_NE(accepted.find("accepted"), std::string::npos);
  const auto good = client.read_line();
  ASSERT_TRUE(good.has_value());
  EXPECT_NE(good->find("DETECTED"), std::string::npos);
  EXPECT_EQ(daemon_->stats().jobs_failed, 1u);
}

TEST_F(ServeDaemonTest, TimeoutBeyondOneDayIsAnErrorWithNoJobId) {
  boot();
  Client client(config_.socket_path);
  const std::string reply = client.request(
      "{\"cmd\": \"submit\", \"job\": {\"app\": \"spec\", "
      "\"payload\": \"GCC\", \"timeout_ms\": 4611686018427387904}}");
  EXPECT_NE(reply.find("\"event\": \"error\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("timeout_ms"), std::string::npos) << reply;
  EXPECT_EQ(reply.find("\"ids\""), std::string::npos) << reply;
  // Nothing reached the queue.
  const JsonValue status =
      JsonValue::parse(client.request("{\"cmd\": \"status\"}"));
  EXPECT_EQ(status.get_u64("queued") + status.get_u64("running") +
                status.get_u64("done"),
            0u);
}

TEST_F(ServeDaemonTest, StatusExposesQueueAndSnapshotCacheCounters) {
  boot();
  Client client(config_.socket_path);
  client.send_line(
      "{\"cmd\": \"submit\", \"stream\": true, \"jobs\": ["
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}, "
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}]}");
  ASSERT_TRUE(client.read_line().has_value());  // accepted
  ASSERT_TRUE(client.read_line().has_value());  // two verdicts
  ASSERT_TRUE(client.read_line().has_value());

  const std::string status = client.request("{\"cmd\": \"status\"}");
  const JsonValue v = JsonValue::parse(status);
  EXPECT_EQ(v.get_u64("done"), 2u);
  EXPECT_EQ(v.get_u64("jobs_done"), 2u);
  const JsonValue* cache = v.get("snapshot_cache");
  ASSERT_NE(cache, nullptr);
  // Two identical cells share one snapshot: one miss+build, one hit.
  EXPECT_EQ(cache->get_u64("builds"), 1u);
  EXPECT_EQ(cache->get_u64("misses"), 1u);
  EXPECT_GE(cache->get_u64("hits"), 1u);
}

TEST_F(ServeDaemonTest, StatusExposesStoreCountersWhenStoreBacked) {
  config_.snapshot_store = true;  // memory-only store, no disk tier
  boot();
  Client client(config_.socket_path);
  client.send_line(
      "{\"cmd\": \"submit\", \"stream\": true, \"jobs\": ["
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}, "
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}]}");
  ASSERT_TRUE(client.read_line().has_value());  // accepted
  ASSERT_TRUE(client.read_line().has_value());  // two verdicts
  ASSERT_TRUE(client.read_line().has_value());

  const std::string status = client.request("{\"cmd\": \"status\"}");
  const JsonValue v = JsonValue::parse(status);
  const JsonValue* cache = v.get("snapshot_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_NE(status.find("\"store_enabled\": true"), std::string::npos);
  EXPECT_NE(status.find("\"hit_rate\": "), std::string::npos);
  // The built snapshot was dehydrated into the store on build.
  EXPECT_GE(cache->get_u64("stored_snapshots"), 1u);
  const JsonValue* store = cache->get("store");
  ASSERT_NE(store, nullptr) << "store-backed status must nest store stats";
  EXPECT_GT(store->get_u64("canonical_pages"), 0u);
  EXPECT_GE(store->get_u64("interned_refs"),
            store->get_u64("canonical_pages"));
}

TEST_F(ServeDaemonTest, GuestSessionJobRunsCustomApp) {
  boot();
  Client client(config_.socket_path);
  client.send_line(
      "{\"cmd\": \"submit\", \"stream\": true, \"job\": "
      "{\"app\": \"guest\", \"payload\": \"fn-format-leak\", "
      "\"session\": [\"abcd%x%x%x%x%n\"]}}");
  ASSERT_TRUE(client.read_line().has_value());  // accepted
  const auto event = client.read_line();
  ASSERT_TRUE(event.has_value());
  const JsonValue v = JsonValue::parse(*event);
  ASSERT_NE(v.get("result"), nullptr);
  // The %n write derails through a tainted pointer — the generic session
  // classifier reports the detection.
  EXPECT_EQ(v.get("result")->get_string("verdict"), "DETECTED");
}

/// Guest jobs of one app, each with its own session: format-string
/// sessions that derail through a tainted %n pointer and plain ones that
/// exit.
std::vector<JobSpec> guest_specs(const std::string& tenant) {
  std::vector<JobSpec> specs;
  for (const char* line : {"hello", "abcd%x%x%x%x%n", "plain text 1",
                           "%x%x", "abcd%x%x%x%x%n!", "hello again"}) {
    JobSpec spec;
    spec.tenant = tenant;
    spec.app = "guest";
    spec.payload = "fn-format-leak";
    spec.policy = "paper";
    spec.session = {line};
    specs.push_back(std::move(spec));
  }
  return specs;
}

/// A guest job run the way the daemon ran them before sessions became job
/// input: the app booted with the session armed before its snapshot, on a
/// fresh cache and machine.
JsonValue fresh_boot_row(const JobSpec& spec) {
  campaign::SnapshotCache cache(campaign::StoreOptions{});
  campaign::Job job = campaign::make_session_job(
      spec.payload, spec.session, spec.stdin_text, spec.policy, cache,
      spec.elide);
  job.input.reset();
  job.get_snapshot = [&spec]() {
    core::Machine m;
    m.load_sources(guest::link_with_runtime(
        guest::apps::find_app(spec.payload)->make()));
    if (!spec.session.empty()) m.os().net().add_session(spec.session);
    if (!spec.stdin_text.empty()) m.os().set_stdin(spec.stdin_text);
    return std::make_shared<const core::MachineSnapshot>(m.snapshot());
  };
  campaign::MachinePool pool;
  campaign::ForkCounters counters;
  return JsonValue::parse(campaign::to_json_row(
      campaign::run_job(job, 0, campaign::WorkerConfig{}, pool, counters),
      {}));
}

void expect_same_row(const JsonValue& got, const JsonValue& want,
                     const std::string& what) {
  for (const char* field :
       {"status", "verdict", "detail", "stop", "alert", "alert_function"}) {
    EXPECT_EQ(got.get_string(field), want.get_string(field))
        << what << " " << field;
  }
  for (const char* field :
       {"exit_status", "instructions", "tainted_memory_bytes"}) {
    EXPECT_EQ(got.get_u64(field), want.get_u64(field)) << what << " " << field;
  }
}

/// One guest app: however many sessions, one boot snapshot.
void expect_one_guest_snapshot(Client& client) {
  const JsonValue status =
      JsonValue::parse(client.request("{\"cmd\": \"status\"}"));
  const JsonValue* cache = status.get("snapshot_cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->get_u64("builds"), 1u);
  EXPECT_EQ(cache->get_u64("entries"), 1u);
}

TEST_F(ServeDaemonTest, GuestSessionsOfOneAppForkOneBootSnapshot) {
  boot();
  const std::vector<JobSpec> specs = guest_specs("t");
  std::string jobs;
  for (const JobSpec& spec : specs) {
    jobs += (jobs.empty() ? "" : ", ") + spec.to_json();
  }
  Client client(config_.socket_path);
  client.send_line("{\"cmd\": \"submit\", \"stream\": true, \"jobs\": [" +
                   jobs + "]}");
  const auto accepted = client.read_line();
  ASSERT_TRUE(accepted.has_value());
  const JsonValue reply = JsonValue::parse(*accepted);
  const JsonValue* ids = reply.get("ids");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->as_array().size(), specs.size());
  std::map<uint64_t, JsonValue> rows;
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto event = client.read_line();
    ASSERT_TRUE(event.has_value());
    const JsonValue v = JsonValue::parse(*event);
    ASSERT_NE(v.get("result"), nullptr);
    rows.emplace(v.get_u64("id"), *v.get("result"));
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    const uint64_t id = ids->as_array()[i].as_u64();
    ASSERT_EQ(rows.count(id), 1u);
    expect_same_row(rows.at(id), fresh_boot_row(specs[i]),
                    specs[i].session.front());
  }
  expect_one_guest_snapshot(client);
}

TEST_F(ServeDaemonTest, RestartReplaysGuestJobsFromOneBootSnapshot) {
  const std::string base = "/tmp/ptaint_serve_test." +
                           std::to_string(::getpid()) + ".guest-restart";
  config_.socket_path = base + ".sock";
  config_.journal_path = base + ".journal";
  config_.workers = 2;
  ::unlink(config_.journal_path.c_str());
  const std::vector<JobSpec> specs = guest_specs("t");
  std::vector<uint64_t> ids;
  {
    JobQueue orphaned({config_.journal_path, 0});
    for (const JobSpec& spec : specs) ids.push_back(orphaned.submit(spec));
  }
  daemon_ = std::make_unique<ServeDaemon>(config_);
  daemon_->start();
  EXPECT_EQ(daemon_->replayed(), specs.size());
  Client client(config_.socket_path);
  const std::string drained = client.request("{\"cmd\": \"drain\"}");
  EXPECT_NE(drained.find("\"done\": " + std::to_string(specs.size())),
            std::string::npos);
  for (size_t i = 0; i < specs.size(); ++i) {
    const JsonValue reply = JsonValue::parse(client.request(
        "{\"cmd\": \"result\", \"id\": " + std::to_string(ids[i]) + "}"));
    ASSERT_NE(reply.get("result"), nullptr);
    expect_same_row(*reply.get("result"), fresh_boot_row(specs[i]),
                    specs[i].session.front());
  }
  expect_one_guest_snapshot(client);
}

TEST_F(ServeDaemonTest, CancelQueuedJobEmitsEvent) {
  boot(/*workers=*/1);
  Client submitter(config_.socket_path);
  // One long-budget spin job occupies the single worker, the next job
  // stays queued long enough to cancel deterministically.
  submitter.send_line(
      "{\"cmd\": \"submit\", \"stream\": true, \"jobs\": ["
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\", "
      "\"max_instructions\": 400000000}, "
      "{\"app\": \"attack\", \"payload\": \"exp2-heap-corruption\"}]}");
  const auto accepted = submitter.read_line();
  ASSERT_TRUE(accepted.has_value());
  const JsonValue acc = JsonValue::parse(*accepted);
  ASSERT_NE(acc.get("ids"), nullptr);
  ASSERT_EQ(acc.get("ids")->as_array().size(), 2u);
  const uint64_t second_id = acc.get("ids")->as_array()[1].as_u64();

  Client controller(config_.socket_path);
  // The first job finishes in well under a second (the alert fires after
  // ~500 instructions; the big budget only covers the queued window), so
  // cancellation of the second may race completion — accept either, but
  // the submitter's stream must terminate with exactly two events.
  const std::string reply = controller.request(
      "{\"cmd\": \"cancel\", \"id\": " + std::to_string(second_id) + "}");
  EXPECT_NE(reply.find("\"event\": \"cancel\""), std::string::npos);
  const auto first_event = submitter.read_line();
  const auto second_event = submitter.read_line();
  ASSERT_TRUE(first_event.has_value());
  ASSERT_TRUE(second_event.has_value());
  const bool saw_cancelled =
      first_event->find("\"event\": \"cancelled\"") != std::string::npos ||
      second_event->find("\"event\": \"cancelled\"") != std::string::npos;
  const bool saw_verdict =
      first_event->find("\"event\": \"verdict\"") != std::string::npos ||
      second_event->find("\"event\": \"verdict\"") != std::string::npos;
  EXPECT_TRUE(saw_verdict);
  EXPECT_TRUE(saw_cancelled || saw_verdict);
}

TEST_F(ServeDaemonTest, QuotaRejectionReportsAcceptedPrefix) {
  boot(/*workers=*/1, /*quota=*/2);
  Client client(config_.socket_path);
  // Three jobs against a quota of two: the third is rejected, and the
  // reply names the two accepted ids so the client can still stream them.
  const std::string reply = client.request(
      "{\"cmd\": \"submit\", \"jobs\": ["
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}, "
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}, "
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}]}");
  if (reply.find("\"event\": \"error\"") != std::string::npos) {
    EXPECT_NE(reply.find("over quota"), std::string::npos);
    EXPECT_NE(reply.find("\"accepted\": ["), std::string::npos);
  } else {
    // The single worker may drain fast enough that all three fit — then
    // the submission simply succeeds.  Either way nothing is lost.
    EXPECT_NE(reply.find("\"event\": \"accepted\""), std::string::npos);
  }
}

TEST_F(ServeDaemonTest, DrainCompletesEverythingThenRejects) {
  boot();
  Client client(config_.socket_path);
  client.request(
      "{\"cmd\": \"submit\", \"jobs\": ["
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}, "
      "{\"app\": \"attack\", \"payload\": \"exp2-heap-corruption\"}]}");
  const std::string drained = client.request("{\"cmd\": \"drain\"}");
  EXPECT_NE(drained.find("\"event\": \"drained\""), std::string::npos);
  EXPECT_NE(drained.find("\"done\": 2"), std::string::npos);
  const std::string rejected = client.request(
      "{\"cmd\": \"submit\", \"job\": "
      "{\"app\": \"attack\", \"payload\": \"exp1-stack-smash\"}}");
  EXPECT_NE(rejected.find("\"event\": \"error\""), std::string::npos);
}

TEST_F(ServeDaemonTest, RestartReplaysJournaledBacklog) {
  // Queue three submissions with no daemon attached (simulating accepted
  // work lost to a crash), then boot the daemon on that journal: the
  // backlog must run to completion without any client re-submitting.
  const std::string base = "/tmp/ptaint_serve_test." +
                           std::to_string(::getpid()) + ".restart";
  config_.socket_path = base + ".sock";
  config_.journal_path = base + ".journal";
  config_.workers = 2;
  ::unlink(config_.journal_path.c_str());
  {
    JobQueue orphaned({config_.journal_path, 0});
    orphaned.submit(attack_spec("t", "exp1-stack-smash"));
    orphaned.submit(attack_spec("t", "exp2-heap-corruption"));
    orphaned.submit(attack_spec("t", "exp3-format-string"));
  }
  daemon_ = std::make_unique<ServeDaemon>(config_);
  daemon_->start();
  EXPECT_EQ(daemon_->replayed(), 3u);
  Client client(config_.socket_path);
  const std::string drained = client.request("{\"cmd\": \"drain\"}");
  EXPECT_NE(drained.find("\"done\": 3"), std::string::npos);
}

}  // namespace
}  // namespace ptaint::serve
