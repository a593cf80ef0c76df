// Campaign job model.
//
// A campaign expands an `app × payload × policy` experiment matrix into
// jobs.  Each job owns the recipe for building one armed Machine (usually
// by restoring a shared post-boot snapshot) and for judging the finished
// run.  Jobs carry stable matrix coordinates so the aggregation layer can
// merge results in matrix order no matter which worker finished first.
//
// The simulator stays single-threaded per Machine instance: a job's
// machine is built, driven and classified entirely on one worker thread,
// which is what keeps detection semantics identical to serial runs (see
// docs/CAMPAIGN.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/machine.hpp"

namespace ptaint::campaign {

/// How a job ended, from the harness's point of view.  Guest-side outcomes
/// (detection, compromise, crash) live in the report/verdict — a crashing
/// *guest* is kGuestFault and never takes the harness down.
enum class JobStatus : uint8_t {
  kOk,               // guest stopped by itself (exit or security alert)
  kGuestFault,       // guest faulted (bad memory access, invalid instr, ...)
  kBudgetExhausted,  // per-job instruction budget ran out
  kTimeout,          // per-job wall-clock deadline passed
  kHarnessError,     // job threw (assembly error, bad config, ...)
};

const char* to_string(JobStatus status);

struct JobResult;

/// Guest input a job installs after restoring its snapshot and before the
/// first instruction runs: the attacker-controlled bytes of the paper's
/// threat model, which SYS_RECV/SYS_READ taint on delivery.  Keeping them
/// out of the snapshot lets every session of one app fork that app's single
/// boot snapshot.
struct JobInput {
  std::vector<std::string> session;  // one scripted client connection;
                                     // empty = no connection
  std::string stdin_text;

  /// Replaces (never appends to) the machine's network sessions and stdin,
  /// so installing into a restored boot snapshot gives exactly the state of
  /// a boot that armed these inputs before its snapshot — whether or not
  /// the snapshot already carried a session.
  void install(core::Machine& machine) const;
};

/// One cell of the experiment matrix.
struct Job {
  // Stable matrix coordinates (labels, not indices, so reports read well).
  std::string app;
  std::string payload;
  std::string policy;

  /// How the armed machine comes to be.  `get_snapshot` resolves (building
  /// on first use) the shared post-boot snapshot; `engine` is the one
  /// thing about the machine that runs it a restore cannot change, and
  /// `machine_key` names it — deliberately not the snapshot or the policy,
  /// since a kept machine restores any snapshot under any `settings` — so
  /// a worker keeps one machine per engine and serves every job with a
  /// cheap COW (or delta) restore instead of a rebuild.  `get_snapshot`
  /// runs on a worker thread; throwing marks the job kHarnessError (one
  /// retry).
  std::string machine_key;
  std::optional<cpu::Engine> engine;  // unset = the process default
  std::function<std::shared_ptr<const core::MachineSnapshot>()> get_snapshot;

  /// The job's policy and static elision, applied by run_job at restore
  /// (core::Machine::restore).
  core::RestoreSettings settings;

  /// Installed by run_job between restore and run (JobInput::install).
  /// Guest session jobs set it; matrix cells arm their payloads inside the
  /// snapshot and leave it unset.
  std::optional<JobInput> input;

  /// Fills verdict/detail from the finished run.  Optional; runs on the
  /// same worker thread as get_snapshot().
  std::function<void(core::Machine&, const core::RunReport&, JobResult&)>
      classify;

  /// Per-job instruction budget, enforced by the executor in slices (the
  /// report then shows kInstLimit exactly like a serial Machine::run).
  uint64_t max_instructions = 50'000'000;

  /// Per-job wall-clock deadline.
  std::chrono::milliseconds timeout{120'000};

  /// Treat a wall-clock timeout like a spurious harness failure and retry
  /// it (bounded by the worker's max_retries).  Off for batch campaigns —
  /// a timeout there is a result worth reporting — but the serve daemon
  /// turns it on, where a shard briefly descheduled under load would
  /// otherwise fail a job that retries fine.  Each attempt gets the full
  /// `timeout` budget and the result's timings describe the successful
  /// attempt only.
  bool retry_on_timeout = false;
};

/// One merged result cell, in stable matrix order.
struct JobResult {
  size_t index = 0;  // position in the expanded matrix
  std::string app;
  std::string payload;
  std::string policy;

  JobStatus status = JobStatus::kHarnessError;
  int attempts = 0;       // 1 normally; 2 after the bounded retry
  double wall_ms = 0.0;   // of the successful attempt

  // Per-phase wall time of the successful attempt.  Timings are
  // host-dependent and therefore excluded from the deterministic report
  // emitters unless explicitly requested (ReportOptions::with_timing).
  double build_ms = 0.0;    // snapshot resolution (cold cache = guest boot)
  double restore_ms = 0.0;  // machine construction + snapshot restore
  double run_ms = 0.0;      // driving the guest in slices
  double judge_ms = 0.0;    // report extraction + classify

  // COW footprint of the finished run.  dirty_pages is a deterministic function of the guest run; shared_pages
  // depends on concurrent snapshot sharing and is reporting-only.
  uint64_t dirty_pages = 0;   // pages the run diverged on
  uint64_t shared_pages = 0;  // pages still shared with the snapshot at stop

  core::RunReport report;
  std::string verdict;  // classifier's one-word judgement (e.g. DETECTED)
  std::string detail;   // classifier's evidence (e.g. the alert line)
  std::string error;    // harness error message, when status says so
};

}  // namespace ptaint::campaign
