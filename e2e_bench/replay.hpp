// In-process replay of a workload's job stream through the public calls a
// daemon makes per job, with spans around each call.
//
// The replay runs one job at a time on the calling thread, in the order a
// daemon shard and its judge run them: parse the submit line, journal the
// submit, acquire, build the campaign job, run_job, render the verdict row,
// journal the completion, compose the verdict event.  run_job's internal
// phases (snapshot resolve, restore, run, judge) come from the JobResult
// timings the campaign layer already reports; the snapshot resolve is also
// a real span, because the benchmark wraps the job's get_snapshot.  For
// session jobs that resolve is a first-sight boot, which the replay performs
// through the same public calls make_session_job's builder makes (link,
// assemble, load, arm, snapshot), each in its own span.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve_load.hpp"
#include "workloads.hpp"

namespace e2e {

struct Span {
  std::string_view name;  // "<layer>.<call>" literal; roots are "job" and
                          // "probe.*"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;   // index into the log, -1 for a root
  uint64_t job = 0;  // replayed job id; 0 outside jobs
};

/// Spans of one traced replay, kept in memory and written out at exit.
class SpanLog {
 public:
  SpanLog() : t0_(std::chrono::steady_clock::now()) { spans_.reserve(1 << 16); }

  int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }
  /// Opens a span under the innermost open one.
  int open(const char* name, uint64_t job);
  void close(int id);
  /// Records an already-finished span (a phase reported by the program).
  int add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          uint64_t job);
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  const std::vector<Span>& spans() const { return spans_; }
  bool write_jsonl(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the log is null (the untraced replay).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, uint64_t job)
      : log_(log), id_(log ? log->open(name, job) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Execution-engine counters summed over a replay, read as deltas from the
/// pooled machine around each run_job.
struct EngineTotals {
  uint64_t superblock_instructions = 0;
  double superblock_run_ms = 0.0;
  uint64_t jit_instructions = 0;
  double jit_run_ms = 0.0;
  uint64_t block_retired = 0;    // superblock jobs: retired inside blocks
  uint64_t step_retired = 0;     // superblock jobs: via the step fallback
  uint64_t host_retired = 0;     // jit jobs: retired in host code
  uint64_t blocks_compiled = 0;  // jit jobs
  uint64_t bailouts = 0;         // jit jobs: blocks the compiler refused
};

struct ReplayResult {
  uint64_t jobs = 0;            // jobs replayed in each mode
  double untraced_job_us = 0.0;  // mean wall per job, no spans
  double traced_job_us = 0.0;    // mean wall per job, spans recorded
  EngineTotals engines;          // of the traced jobs
  std::vector<Row> rows;         // of both modes
};

/// Replays stream indices first_index, first_index+1, ... for `seconds` or
/// `max_jobs` jobs, whichever ends first,
/// each job once untraced and once traced, against two independent sets of
/// fresh caches, machine pools and journals (after an untimed warm pass on
/// indices from warm_index).  Interleaving the two modes job by job lets
/// them share the host's state, so their difference is the tracing cost.
ReplayResult replay(const Workload& workload, const SpecStream& stream,
                    uint64_t first_index, uint64_t warm_index, double seconds,
                    uint64_t max_jobs, SpanLog& log);

/// First-sight boots and cold/warm analyses of the workload's programs,
/// repeated `rounds` times, as "probe.*" roots outside any job.
void probe_first_sight(const Workload& workload, int rounds, SpanLog& log);

}  // namespace e2e
