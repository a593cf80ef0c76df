// Process-wide analysis summary cache.
//
// Every consumer of the static results — Machine::apply_static_elision on
// each boot, the campaign static-check leg, the ptaint-serve shards,
// ptaint-prove — used to re-run full CFG recovery plus the memory-aware
// VSA from scratch per program.  This cache memoizes the complete result
// set (the VSA analysis, the elision table built from it, the leak
// bitmaps, the recovered block leaders) keyed by program content and
// policy, and keeps the converged fixpoint so a *mutated* program can be
// re-analyzed incrementally: only functions whose content hash changed —
// and their transitive dependents over the call graph — are re-iterated,
// and the warm result is verified byte-identical to a cold run (see
// vsa.hpp for the scheme).  The register-only analyzer is not cached: it
// runs only as gen2_elision's fallback when the VSA exhausts its budget.
//
// Hash key.  Each function's local hash covers its text words, its span,
// its return sites (the caller fingerprint: a new call into a function
// changes the flows it emits) and the global label fingerprint (label
// placement decides block structure and indirect-jump fanout).  The
// chained hash folds in the local hashes of everything the function's
// facts depend on — callees (summaries compose upward) and functions that
// flow into it over ordinary cross-function edges — computed bottom-up
// over the call graph's SCC condensation (Tarjan), so a mutation dirties
// exactly the changed function plus its transitive dependents (the
// inverse-call-graph closure).  The policy column and analysis options are
// hashed alongside: the same program under a different Table 1
// configuration is a different entry.
//
// Memoization defaults to on; PTAINT_ANALYSIS_CACHE=0 turns it off for
// every cache in the process (the CI identity leg diffs that against cached
// runs), and set_enabled(false) turns it off for one cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/vsa.hpp"
#include "asmgen/assembler.hpp"
#include "cpu/taint_policy.hpp"

namespace ptaint::analysis {

/// The complete static result set for one (program, policy, options) key.
/// Shared-ptr immutable once published; consumers index freely.
struct CachedAnalysis {
  VsaAnalysis g2;          // memory-aware value-set prover
  Gen2Elision gen2;        // the table Machine ships to the CPU
  std::vector<uint8_t> block_leaders;  // recovered block begins, per inst

  // Warm-base material: the converged fixpoint plus per-function chained
  // hashes (entry PC -> hash, ascending) to diff a mutated program against.
  std::shared_ptr<const VsaFixpoint> g2_fp;
  std::vector<std::pair<uint32_t, uint64_t>> fn_hashes;
};

struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;            // exact content hit, no analysis ran
  uint64_t cold_misses = 0;     // analyzed from scratch
  uint64_t warm_hits = 0;       // incremental re-analysis
  uint64_t warm_fallbacks = 0;  // warm attempted, went cold
  uint64_t invalidated_fns = 0; // dirty functions across warm attempts
  uint64_t evictions = 0;
  uint64_t analysis_micros = 0; // wall time inside cold + warm analysis
  size_t entries = 0;

  /// One flat JSON object for status/--json surfaces.  Timing is opt-out
  /// for surfaces with a byte-identical-output contract (ptaint-prove).
  std::string json(bool include_timing = true) const;
};

/// Thread-safe LRU memoizer.  `analyze` is the single entry point: it
/// returns the cached result on an exact content hit, attempts incremental
/// re-analysis against the most recent same-policy entry otherwise, and
/// falls back to a cold run (parallel when jobs > 1) when identity cannot
/// be proven.  Concurrent lookups of the same key block on one analysis.
class SummaryCache {
 public:
  /// The process-wide instance every consumer shares.
  static SummaryCache& instance();

  SummaryCache();

  std::shared_ptr<const CachedAnalysis> analyze(
      const asmgen::Program& program, const cpu::TaintPolicy& policy,
      const VsaOptions& options = {});

  CacheStats stats() const;
  void clear();

  void set_capacity(size_t cap);  // LRU entries (default 32)
  void set_jobs(int jobs);        // cold VSA fixpoint threads (default 1)
  int jobs() const;

  /// Memoization on (default: PTAINT_ANALYSIS_CACHE).  When off, analyze()
  /// still computes and returns the same result object, uncached.
  bool enabled() const;
  void set_enabled(bool on);

 private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

}  // namespace ptaint::analysis
