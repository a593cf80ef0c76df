// Process-wide analysis summary cache: an exact-content memo.
//
// Every consumer of the static results — Machine::apply_static_elision on
// each boot, the campaign static-check leg, the ptaint-serve shards,
// ptaint-prove — needs the complete result set for a program: the VSA
// analysis, the elision table built from it, the leak bitmaps and the
// recovered block leaders.  This cache memoizes that set keyed by program
// content and policy.  A miss runs exactly what an uncached consumer would:
// Cfg recovery, one serial analyze_vsa, gen2_elision, block leaders.  The
// register-only analyzer is not cached: it runs only as gen2_elision's
// fallback when the VSA exhausts its budget.
//
// Key.  The content hash is asmgen::code_digest: the text words, the entry
// point and the label placement (which shapes the recovered CFG); the data
// segment is left out, because the analyses never read data bytes.  A
// shared program carries the digest from its publication, so a lookup
// through the shared-pointer overload does not rehash.  So campaign
// payload variants that differ only in their input data hit one entry.
// The policy column and analysis options are hashed alongside: the same
// program under a different Table 1 configuration is a different entry.
// Any text change is a full miss; there is no partial reuse.
//
// Memoization is always on.  The uncached reference — Cfg recovery and a
// direct analyze_vsa — stays in the tests and in bench_analysis --check,
// which pin every cached result equal to it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/vsa.hpp"
#include "asmgen/assembler.hpp"
#include "cpu/taint_policy.hpp"
#include "util/memo.hpp"

namespace ptaint::analysis {

/// The complete static result set for one (program, policy, options) key.
/// Shared-ptr immutable once published; consumers index freely.
struct CachedAnalysis {
  VsaAnalysis g2;          // memory-aware value-set prover
  Gen2Elision gen2;        // the table Machine ships to the CPU
  std::vector<uint8_t> block_leaders;  // recovered block begins, per inst
};

struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;            // exact content hit, no analysis ran
  uint64_t cold_misses = 0;     // analyzed from scratch
  uint64_t evictions = 0;
  uint64_t analysis_micros = 0; // wall time inside analysis
  size_t entries = 0;

  /// One flat JSON object for status/--json surfaces.  Timing is opt-out
  /// for surfaces with a byte-identical-output contract (ptaint-prove).
  std::string json(bool include_timing = true) const;
};

/// Thread-safe LRU memoizer (a util::Memo).  `analyze` is the single entry
/// point: it returns the cached result on an exact content hit and analyzes
/// from scratch otherwise.  Concurrent lookups of the same key block on one
/// analysis.
class SummaryCache {
 public:
  /// LRU entries kept; the least recently used one is evicted beyond it.
  static constexpr size_t kCapacity = 32;

  /// The process-wide instance every consumer shares.
  static SummaryCache& instance();

  /// Hashes the program's code on every call: a value Program may have
  /// been mutated since it was last seen.
  std::shared_ptr<const CachedAnalysis> analyze(
      const asmgen::Program& program, const cpu::TaintPolicy& policy,
      const VsaOptions& options = {});

  /// Same key and result as the by-reference overload, but keyed on the
  /// digest the published program carries (asmgen::share), so an exact hit
  /// does not rehash the text.
  std::shared_ptr<const CachedAnalysis> analyze(
      const std::shared_ptr<const asmgen::Program>& program,
      const cpu::TaintPolicy& policy, const VsaOptions& options = {});

  CacheStats stats() const;

 private:
  std::shared_ptr<const CachedAnalysis> lookup(const asmgen::Program& program,
                                               uint64_t digest,
                                               const cpu::TaintPolicy& policy,
                                               const VsaOptions& options);

  /// (code digest, policy hash) -> result set.
  util::Memo<std::pair<uint64_t, uint64_t>, CachedAnalysis> memo_{kCapacity};

  mutable std::mutex mu_;  // guards analysis_micros_
  uint64_t analysis_micros_ = 0;
};

}  // namespace ptaint::analysis
