// The benchmark's three workloads and their seeded job streams.
//
// A stream is index-addressed: spec(i) is a pure function of (seed, i), so
// the same seed gives the same job sequence however far a run consumes it.
// Jobs come in rounds; each round is a seeded permutation of the workload's
// cells, which keeps the per-round mix (and so the per-job cost) identical
// across seeds while the order changes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/job.hpp"
#include "campaign/snapshot_cache.hpp"
#include "cpu/cpu.hpp"
#include "serve/queue.hpp"

namespace e2e {

struct Workload {
  std::string name;
  int closed_batch = 1;       // jobs each connection keeps in flight
  /// Offered jobs/s in the open-loop phase.  Each connection serves one
  /// request at a time, so the rate stays well below 2 / per-job round
  /// trip: a host slowed twofold must still keep up, or latency measures
  /// the backlog instead of the daemon.
  double open_rate = 0.0;
  bool snapshot_store = false;  // daemon's memory-only snapshot store
  int warmup_rounds = 1;
  /// Cells of one round: every job is one of these, with a nonce folded in
  /// for session-cold.
  std::vector<ptaint::serve::JobSpec> cells;
  /// Registry apps (and the policy they run under) whose first-sight boot
  /// the traced run replays through the public guest/asmgen/core/analysis
  /// calls.
  std::vector<std::pair<std::string, std::string>> probe_apps;
};

/// Builds the named workload; throws std::invalid_argument when unknown.
Workload make_workload(const std::string& name);

class SpecStream {
 public:
  SpecStream(const Workload& workload, uint64_t seed);

  ptaint::serve::JobSpec spec(uint64_t i) const;
  /// spec(i) as the one-line JSON object a client submits.
  std::string json(uint64_t i) const;
  size_t round_size() const { return workload_->cells.size(); }

 private:
  size_t cell_of(uint64_t i) const;

  const Workload* workload_;
  uint64_t seed_;
  bool nonce_ = false;
  std::vector<std::string> cell_json_;
};

/// The reference key of a spec: everything that decides its verdict, which
/// excludes the engine and check elision (both verdict-preserving).
std::string reference_key(const ptaint::serve::JobSpec& spec);

/// The campaign job a daemon shard builds for `spec` (the mapping of
/// ServeDaemon::build_job), with the engine and elision given explicitly so
/// the oracle can pin the reference configuration.
ptaint::campaign::Job job_for_spec(const ptaint::serve::JobSpec& spec,
                                   ptaint::campaign::SnapshotCache& cache,
                                   std::optional<ptaint::cpu::Engine> engine,
                                   bool elide);
std::optional<ptaint::cpu::Engine> engine_of(const ptaint::serve::JobSpec& spec);

uint64_t splitmix64(uint64_t x);

}  // namespace e2e
