// Superblock threaded-dispatch execution engine (DESIGN.md §9).
//
// The step interpreter pays a fetch / decode-cache probe / switch dispatch
// for every guest instruction.  This engine lazily translates straight-line
// runs of instructions ("superblocks", ending at branches, jumps, syscalls
// or static CFG leaders) into contiguous micro-op arrays and executes them
// with a computed-goto threaded dispatch loop: one bounds/NX/alignment check
// per block instead of per instruction, pre-classified handlers instead of
// the big decode switch, static check-elision verdicts baked into the
// micro-ops, and common pairs (lui+ori, compare+branch, addr-gen+load/store)
// fused into single handlers.
//
// Identity contract: every handler replicates Cpu::execute()'s semantics
// bit-for-bit — architectural state, stop reasons, alert records, CpuStats
// and TaintUnit::Stats counters, and counter *ordering* around early stops.
// The untainted fast paths skip TaintUnit::propagate only when its result
// and counter bumps are provably reproduced inline.  The engine never runs
// when a retire hook (trace/profile/pipeline) is installed; Cpu::advance
// falls back to step() in that case.
//
// Invalidation: the block cache is keyed by entry PC over the decoded-text
// range.  Cpu::invalidate_decode_range (guest stores into text, kernel
// copies) retires overlapping blocks into a graveyard — freed only between
// block executions, so a block invalidating *itself* mid-run keeps a valid
// micro-op array; the store handlers then abort the block with the PC of
// the next instruction and execution resumes through fresh translation.
// The blocks themselves live in the Cpu's active CodeImage (cpu.hpp), so a
// snapshot restore keeps them exactly where it keeps the decodes: on text
// pages whose page object is the one they were translated from.  Under
// the jit a switch to another image drops the translations instead, since
// compiled host code lives in one per-engine arena (DESIGN.md §12).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/cpu.hpp"

namespace ptaint::cpu {

class SuperblockEngine {
  friend struct Superblock;  // holds the engine's micro-op array

 public:
  explicit SuperblockEngine(Cpu& cpu) : cpu_(cpu) {}
  ~SuperblockEngine();  // out-of-line: unique_ptr to the incomplete JitEngine

  /// Runs until stop or until exactly `n` more instructions retire (same
  /// budget semantics as the step loop in Cpu::run, minus the kInstLimit
  /// marking).  Blocks longer than the remaining budget fall back to
  /// single-stepping so budgets never overshoot.  Under Engine::kJit the
  /// JIT trampoline takes over and uses this engine's translation cache and
  /// interpreted dispatch for cold or non-JITable blocks.
  StopReason advance(uint64_t n);

  /// Attaches the JIT tier (Engine::kJit).  Idempotent; the tier stays
  /// attached but dormant if the engine later switches back.
  void enable_jit();

  /// JIT-tier counters (zeros when the tier was never enabled).
  const JitStats& jit_stats() const;

  /// Retires every cached block overlapping [addr, addr+len) — the
  /// self-modifying-code path, forwarded from Cpu::invalidate_decode_range.
  void on_invalidate(uint32_t addr, uint32_t len);

  /// Drops every cached block of the active image (elision/leader bitmap
  /// changed); safe to call between runs only.
  void flush_all();

  /// Drops every block of the active image and rewinds the jit's code
  /// arena (engine switch).
  void reset();

  /// The Cpu is about to stash `outgoing` and activate another image.
  /// Chain memos go stale; under the jit the outgoing translations are
  /// dropped and the arena rewound, so no stashed image ever refers to host
  /// code.
  void on_switch(CodeImage& outgoing);

  /// Cumulative counters plus the live shape of the active image's cache.
  const SuperblockStats& stats() const;

 private:
  friend class JitEngine;   // compiles Block micro-op arrays to host code
  friend struct JitRuntime; // slow-path helpers re-enter the handler logic
  /// Micro-op kinds.  Order must match the dispatch table in exec_block.
  enum Kind : uint8_t {
    kEnd,  // fall off the block (CFG leader / size cap): set pc, exit
    kLui,
    kAddRR, kSubRR, kOrRR, kNorRR, kXorRR, kAndRR, kSltRR, kSltuRR,
    kSllI, kSrlI, kSraI, kSllvRR, kSrlvRR, kSravRR,
    kAddI, kOrI, kXorI, kAndI, kSltI, kSltuI,
    kMulDiv,  // mult/multu/div/divu/mfhi/mflo/mthi/mtlo/taintset/taintclr
    kLw, kLoadOther,
    kSw, kStoreSmall,
    // fused pairs
    kLuiOri, kAddrLw, kAddrSw,
    // terminators
    kBranch, kCmpBranch, kJ, kJal, kJr, kJalr, kSyscall, kBreak,
    kNumKinds,
  };

  struct MicroOp {
    uint8_t kind = kEnd;
    uint8_t elide = 0;  // pointer check statically elided (mem / jr site)
    uint8_t aux = 0;    // kLuiOri: intermediate write needed; kCmpBranch: bne
    uint8_t pad = 0;
    uint32_t pc = 0;     // guest PC of the (first) instruction
    uint32_t value = 0;  // precomputed constant (kLui / kLuiOri)
    isa::Instruction inst;
    isa::Instruction inst2;  // second instruction of a fused pair
  };

  using Block = Superblock;

  Block* translate(uint32_t pc, uint32_t idx);
  /// Executes `blk` and then chains: block-exit handlers dispatch straight
  /// into the successor block while it is cached and fits the remaining
  /// `budget` (in guest instructions), without returning to advance().
  /// Chaining is what makes short, branchy blocks cheap — the per-entry
  /// bookkeeping in advance() would otherwise dominate 3-instruction loops.
  void exec_block(Block& blk, uint64_t budget);

  Cpu& cpu_;
  // Bumped whenever any translation dies or the active image changes
  // (invalidation, flush, reset, switch), so every Block::succ memo taken
  // under an older generation stops matching.
  uint64_t gen_ = 1;
  std::vector<std::unique_ptr<Block>> graveyard_;  // invalidated mid-advance
  // Cumulative counters; stats() fills in the live shape on demand.
  mutable SuperblockStats stats_;
  std::unique_ptr<JitEngine> jit_;  // attached by enable_jit (Engine::kJit)
};

/// One translated superblock, owned by the CodeImage whose text it covers
/// (CodeImage::blocks, indexed by entry in CodeImage::block_at).
struct Superblock {
  uint32_t entry_pc = 0;
  uint32_t guest_len = 0;  // guest instructions covered
  uint32_t byte_len = 0;   // text bytes covered (invalidation overlap)
  uint32_t fused = 0;      // fused pairs inside
  bool retired = false;    // flushed while possibly executing
  // Chain memo: the successor block this one last exited into, keyed by
  // exit pc and validated against the engine's invalidation generation.
  // Loops chain block-to-block without touching block_at at all.
  Superblock* succ = nullptr;
  uint32_t succ_pc = 0;
  uint64_t succ_gen = 0;
  // JIT tier (DESIGN.md §12).  `host` points into the engine-owned code
  // arena once the block compiles; `heat` counts trampoline entries until
  // the compile threshold; `no_jit` latches a compiler bailout so the
  // block stays on the interpreted path without re-scanning.
  const uint8_t* host = nullptr;
  uint32_t heat = 0;
  uint8_t no_jit = 0;
  std::vector<SuperblockEngine::MicroOp> uops;
};

}  // namespace ptaint::cpu
