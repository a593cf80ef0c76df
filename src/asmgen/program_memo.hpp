// Assembled programs as immutable shared values, and the process-wide memo
// that assembles each distinct source set once.
//
// A Program is published once — by share() or by the memo — behind a
// std::shared_ptr<const Program>.  Machines, snapshots and the summary
// cache then hold that pointer instead of their own copy, so taking a
// snapshot or restoring a different one copies a pointer, not the ~700
// source-location strings of a registry app.  The published object also
// carries its code digest (computed once, at publication), which is what
// the summary cache keys on: an exact hit through a shared program does not
// rehash the text.
//
// The memo is a util::Memo keyed by a 128-bit content digest of the linked
// sources (unit names and text, never the text itself): it keeps the
// kCapacity most recently used programs, collapses concurrent misses on one
// key onto a single assembly, and caches nothing for sources that fail to
// assemble: every call with them throws the AssemblyError afresh.
// Machine::load_sources goes through it, so re-booting an app (a fresh
// snapshot cache, a first sight of a session, a campaign serial reference)
// skips assembly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "asmgen/assembler.hpp"
#include "util/memo.hpp"

namespace ptaint::asmgen {

/// Digest of everything that shapes the decoded code and the recovered
/// CFG: entry point, text words and label placement.  Data bytes and label
/// names are excluded, so programs differing only in data share a digest.
uint64_t code_digest(const Program& program);

/// The digest share() stamped on `program` — no rehash — or, for a pointer
/// share() did not make, code_digest(*program).
uint64_t code_digest(const std::shared_ptr<const Program>& program);

/// Publishes `program` as an immutable shared value stamped with its code
/// digest.  The stamp lives in the pointer's control block, so it can never
/// go stale: the object behind it is const.
std::shared_ptr<const Program> share(Program program);

struct ProgramMemoStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;        // served an already-published program
  uint64_t assemblies = 0;  // assemble() calls, failed ones included
  uint64_t evictions = 0;
  size_t entries = 0;
};

/// Thread-safe LRU memo from linked sources to their assembled program.
class ProgramMemo {
 public:
  /// Programs kept; the least recently used one is evicted beyond it.
  static constexpr size_t kCapacity = 32;

  /// The process-wide instance Machine::load_sources uses.
  static ProgramMemo& instance();

  /// The published program for `sources`; throws AssemblyError (and
  /// caches nothing) when they do not assemble.
  std::shared_ptr<const Program> assemble(const std::vector<Source>& sources);

  ProgramMemoStats stats() const;

 private:
  util::Memo<std::pair<uint64_t, uint64_t>, Program> memo_{kCapacity};
};

}  // namespace ptaint::asmgen
