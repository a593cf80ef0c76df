// Work-stealing thread-pool executor for campaign jobs.
//
// The matrix is dealt round-robin onto per-worker deques; a worker pops
// from the back of its own deque and, when empty, steals from the front of
// a victim's — the classic split that keeps an unbalanced matrix (one slow
// SPEC workload among quick attack runs) from idling workers.
//
// Each job runs entirely on one worker thread: build (or restore) the
// Machine, drive it in instruction slices with wall-clock and
// instruction-budget checks between slices, classify, write the result
// into its matrix slot.  Guest faults are captured in the job's result; a
// job that throws is marked kHarnessError and retried once.  Results come
// back in stable matrix order regardless of completion order.
//
// Jobs carrying the fork fields (machine_key / engine / get_snapshot /
// settings) let a worker keep one machine per engine: every job restores
// it from its shared snapshot under its own policy — a COW share, or a
// delta restore, O(pages the last run dirtied), when the snapshot repeats
// — instead of constructing and deep-populating a fresh one.  The matrix
// is dealt in contiguous chunks (not round-robin) so neighbouring jobs,
// which share snapshots and programs by construction, land on the same
// worker.
//
// The per-worker execution core (MachinePool + run_job) lives in
// campaign/worker.hpp, shared with the ptaint-serve daemon's shard
// workers; this class adds the batch concerns: dealing, stealing, stable
// result merging, and aggregate stats.
#pragma once

#include <cstdint>
#include <vector>

#include "campaign/job.hpp"

namespace ptaint::campaign {

class Executor {
 public:
  struct Config {
    /// Worker threads.  The default favours determinism of the *campaign*
    /// (not of any single host): 4 workers everywhere, as the paper matrix
    /// is small; raise for big sweeps on big hosts.
    int workers = 4;
    /// Instructions per run_for slice between deadline checks (~a few
    /// milliseconds of guest time per check).
    uint64_t slice_instructions = 250'000;
    /// Bounded retries for jobs that fail in the harness (make/classify
    /// threw).  Guest-side faults are results, not retries.
    int max_retries = 1;
  };

  struct Stats {
    uint64_t jobs = 0;
    uint64_t steals = 0;   // jobs a worker took from another's deque
    uint64_t retries = 0;  // extra attempts after harness errors
    uint64_t machine_builds = 0;  // fork-path machines constructed
    uint64_t machine_reuses = 0;  // fork-path jobs served by a kept machine
    // Per-phase wall time summed over all jobs' successful attempts (they
    // overlap across workers, so sums can exceed the campaign wall time).
    double build_ms = 0.0;
    double restore_ms = 0.0;
    double run_ms = 0.0;
    double judge_ms = 0.0;
  };

  Executor();
  explicit Executor(Config config);

  /// Runs every job and returns results indexed exactly like `jobs`.
  std::vector<JobResult> run(const std::vector<Job>& jobs);

  /// Statistics of the most recent run().
  const Stats& stats() const { return stats_; }

 private:
  Config config_;
  Stats stats_;
};

}  // namespace ptaint::campaign
