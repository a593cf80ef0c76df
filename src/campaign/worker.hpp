// Per-worker job execution core, shared by the batch Executor and the
// ptaint-serve daemon shards.
//
// A worker owns a MachinePool (kept machines, one per engine; any of them
// restores any snapshot under any policy) and calls run_job() for each job
// it claims: build or restore the Machine, drive it in instruction slices
// with wall-clock and budget checks between slices, classify, and return
// the filled JobResult.  The pool is strictly thread-local to its worker —
// machines are single-threaded by contract — while ForkCounters aggregates
// build/reuse tallies across workers.
//
// Extracted from the executor (DESIGN.md §7) so a long-running daemon
// shard gets the exact batch-campaign semantics: same slice loop, same
// retry policy, same per-phase timings.  Any divergence between the two
// callers would show up as a --check verdict diff, which is the contract
// the whole campaign layer is built on.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <utility>

#include "campaign/job.hpp"

namespace ptaint::campaign {

/// Per-worker machine pool for the fork path: one machine per
/// Job::machine_key — the engine, deliberately not the snapshot or the
/// policy — FIFO-evicted past a small cap.  A kept machine restores
/// whatever snapshot its next job names under that job's policy and
/// elision (core::RestoreSettings) and keeps code images for the programs
/// it ran recently (cpu::CodeImage), so one machine serving every policy
/// column of several apps in turn does not rebuild their decodes.
class MachinePool {
 public:
  core::Machine* find(const std::string& key);
  void put(const std::string& key, std::unique_ptr<core::Machine> machine);

  /// Drops the machine for `key` (a harness error may have left it
  /// half-restored; the retry rebuilds from scratch).
  void drop(const std::string& key);

  size_t size() const { return entries_.size(); }

 private:
  static constexpr size_t kCapacity = 8;
  std::deque<std::pair<std::string, std::unique_ptr<core::Machine>>> entries_;
};

/// Cross-worker tallies for the fork path.
struct ForkCounters {
  std::atomic<uint64_t> machine_builds{0};
  std::atomic<uint64_t> machine_reuses{0};
};

/// The slice of executor configuration run_job needs; the Executor and the
/// serve daemon both build one from their own config structs.
struct WorkerConfig {
  /// Instructions per run_for slice between deadline checks.
  uint64_t slice_instructions = 250'000;
  /// Bounded retries for jobs that fail in the harness (make/classify
  /// threw) — and, for jobs opting in via Job::retry_on_timeout, for
  /// wall-clock timeouts.
  int max_retries = 1;
};

/// Runs one job to completion on the calling thread.  Every attempt starts
/// from cleared per-phase timings and COW counters, so a result produced
/// after a retry reports the successful attempt only (attempts still
/// counts every try).
JobResult run_job(const Job& job, size_t index, const WorkerConfig& config,
                  MachinePool& machines, ForkCounters& counters);

}  // namespace ptaint::campaign
