// Persistent job queue for the ptaint-serve daemon.
//
// Every accepted job is journaled before it is acknowledged, and every
// finished job's verdict row is journaled before it is streamed, so a
// daemon killed at any instant (kill -9 included) restarts into a
// consistent state: replay re-enqueues accepted-but-unfinished jobs and
// keeps finished verdicts queryable — an accepted job is never lost, and
// a finished job is never re-run or double-reported (docs/SERVING.md §
// crash recovery).
//
// Scheduling is fair across tenants: acquire() round-robins over tenants
// with queued work, so one tenant flooding the queue cannot starve
// another's single job.  Quotas bound each tenant's live (queued +
// running) jobs; an over-quota submit is rejected before it touches the
// journal.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace ptaint::serve {

/// One analysis job as submitted over the socket: a campaign matrix cell
/// (app "spec"/"attack") or a custom session job (app "guest": boot a
/// registry app with a scripted client session / stdin).
struct JobSpec {
  std::string tenant = "default";
  std::string app;             // "spec" | "attack" | "guest"
  std::string payload;         // workload / scenario / registry app name
  std::string policy = "paper";  // ablation variant, coverage mode, "paper"
  std::string engine;          // "" (default) | "step" | "superblock" | "jit"
  bool elide = false;
  std::vector<std::string> session;  // guest jobs: scripted client session
  std::string stdin_text;            // guest jobs: stdin bytes
  uint64_t max_instructions = 0;     // 0 = job-kind default
  uint64_t timeout_ms = 0;           // 0 = daemon default

  /// Largest accepted timeout_ms (one day): far larger values would
  /// overflow the worker's deadline arithmetic.
  static constexpr uint64_t kMaxTimeoutMs = 24 * 60 * 60 * 1000;

  /// One-line JSON object, parseable by from_json (journal `spec` field).
  std::string to_json() const;
  /// Throws JsonError / std::invalid_argument on missing or bad fields.
  static JobSpec from_json(const class JsonValue& v);
};

class QuotaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class JobQueue {
 public:
  struct Config {
    std::string journal_path;
    /// Max live (queued + running) jobs per tenant; 0 = unlimited.
    int tenant_quota = 0;
  };

  /// Job states a queried id can be in.
  enum class State { kUnknown, kQueued, kRunning, kDone, kCancelled };

  struct Counts {
    uint64_t queued = 0;
    uint64_t running = 0;
    uint64_t done = 0;
    uint64_t cancelled = 0;
  };

  struct Status {
    Counts total;
    std::map<std::string, Counts> tenants;
    uint64_t replayed = 0;  // jobs re-enqueued by journal replay
    bool accepting = true;
  };

  struct Acquired {
    uint64_t id = 0;
    JobSpec spec;
  };

  /// Opens (creating if needed) and replays the journal.  Throws
  /// std::runtime_error when the journal cannot be opened; malformed
  /// trailing lines (a crash mid-append) are ignored.
  explicit JobQueue(Config config);
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Journals and enqueues; returns the assigned id.  Throws QuotaError
  /// over quota and std::runtime_error once submissions are closed.
  uint64_t submit(const JobSpec& spec);

  /// Cancels a job that is still queued (journaled).  Running or finished
  /// jobs are not cancellable; returns false for them and unknown ids.
  bool cancel(uint64_t id);

  /// Blocks until a job is available, then marks it running and returns
  /// it.  Returns nullopt once stop() has been called and the queue is
  /// empty.  Fair: round-robins across tenants with queued work.
  std::optional<Acquired> acquire();

  /// Journals the finished job's verdict row and marks it done.
  void complete(uint64_t id, const std::string& result_json);

  /// Stops accepting submits (drain); queued and running jobs finish.
  void close_submissions();

  /// Wakes acquirers; they drain remaining queued jobs, then see nullopt.
  void stop();

  /// Blocks until nothing is queued or running.
  void wait_idle();

  State state(uint64_t id) const;
  /// The journaled verdict row for a done job (exactly-once: one row per
  /// id, surviving restarts); nullopt otherwise.
  std::optional<std::string> result_json(uint64_t id) const;

  Status status() const;

 private:
  struct Pending {
    JobSpec spec;
  };

  void append_record(const std::string& line);  // caller holds mutex_
  void replay();
  Counts& tenant_counts(const std::string& tenant);

  Config config_;
  int journal_fd_ = -1;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // acquire() waiters
  std::condition_variable idle_cv_;   // wait_idle() waiters
  uint64_t next_id_ = 1;
  bool accepting_ = true;
  bool stopping_ = false;
  uint64_t replayed_ = 0;

  std::map<uint64_t, Pending> pending_;             // queued jobs by id
  std::map<std::string, std::deque<uint64_t>> queues_;  // per-tenant FIFO
  std::string fair_cursor_;                         // last tenant served
  std::map<uint64_t, std::string> running_;         // id -> tenant
  std::map<uint64_t, std::string> done_;            // id -> verdict row
  std::map<uint64_t, std::string> done_tenant_;     // id -> tenant
  std::map<uint64_t, std::string> cancelled_;       // id -> tenant
  std::map<std::string, Counts> tenants_;           // live per-tenant tallies
};

}  // namespace ptaint::serve
