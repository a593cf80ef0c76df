// JIT tier implementation (DESIGN.md §12): trampoline, code arena, and the
// micro-op → x86-64 compiler.
//
// Emitted register convention (SysV, entry arg rdi = Context*):
//   r14 = Context*        r12 = Cpu*
//   r13 = register slots  rbp = TaintedMemory*
// all callee-saved, so they survive helper calls; rax/rcx/rdx/rsi/r8/r9 are
// scratch.  Register slot i lives at [r13 + 8*i]: value dword at +0, taint
// word at +4, two padding bytes that are never read — an untainted result
// is stored as one 8-byte mov of the zero-extended value.  Taint tests read
// only the 16 taint bits (test cx,cx after shr rcx,32), never the padding.
#include "cpu/jit/jit_engine.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "core/settings.hpp"
#include "cpu/cpu.hpp"
#include "cpu/jit/emitter.hpp"
#include "cpu/jit/jit_runtime.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define PTAINT_JIT_HAVE_MMAP 1
#else
#define PTAINT_JIT_HAVE_MMAP 0
#endif

namespace ptaint::cpu {

namespace {

using jit::Cc;
using jit::Emitter;
using jit::Gp;
using SB = SuperblockEngine;

// Trampoline entries before a block is compiled.  Low enough that hot loops
// compile almost immediately, high enough that one-shot code never pays for
// compilation.
constexpr uint32_t kHotThreshold = 8;

// Budget slice handed to the interpreted dispatch when a block is cold or
// non-JITable.  exec_block chains blocks internally, so without a cap a hot
// interpreted loop would never return to the trampoline to accrue heat.
constexpr uint64_t kInterpSlice = 1024;

constexpr size_t kArenaBytes = 8u << 20;  // virtual; pages commit lazily

template <typename Fn>
uint64_t fn_addr(Fn* fn) {
  return reinterpret_cast<uint64_t>(reinterpret_cast<void*>(fn));
}

// Deferred counter sums, keyed by byte offset from the Cpu object.
using Flush = std::map<int32_t, uint64_t>;

}  // namespace

// ---------------------------------------------------------------------------
// Construction / arena
// ---------------------------------------------------------------------------

JitEngine::JitEngine(SuperblockEngine& sb, Cpu& cpu) : sb_(sb), cpu_(cpu) {
  // The emitted indirect-target probe addresses entries as base + i*16 with
  // pc at +0, guest_len at +4 and top at +8.
  static_assert(sizeof(IndirectEntry) == 16);
  static_assert(offsetof(IndirectEntry, guest_len) == 4);
  static_assert(offsetof(IndirectEntry, top) == 8);
  itable_.assign(kIndirectSlots, IndirectEntry{});  // never resized again
  ctx_.cpu = &cpu;
  ctx_.regs = cpu.regs_.flat_slots();
  ctx_.mem = &cpu.memory_;

  const char* cbase = reinterpret_cast<const char*>(&cpu);
  const auto coff = [cbase](const void* p) {
    return static_cast<int32_t>(reinterpret_cast<const char*>(p) - cbase);
  };
  off_.pc = coff(&cpu.pc_);
  off_.st_instructions = coff(&cpu.stats_.instructions);
  off_.st_alu_ops = coff(&cpu.stats_.alu_ops);
  off_.st_loads = coff(&cpu.stats_.loads);
  off_.st_stores = coff(&cpu.stats_.stores);
  off_.st_branches = coff(&cpu.stats_.branches);
  off_.st_taken_branches = coff(&cpu.stats_.taken_branches);
  off_.st_jumps = coff(&cpu.stats_.jumps);
  off_.st_compare_untaints = coff(&cpu.stats_.compare_untaints);
  TaintUnit::Stats& tu = cpu.taint_unit_.stats_ref();
  off_.tu_evaluations = coff(&tu.evaluations);
  off_.tu_tainted_evaluations = coff(&tu.tainted_evaluations);
  off_.tu_compare_untaints = coff(&tu.compare_untaints);
  off_.tu_and_zero_untaints = coff(&tu.and_zero_untaints);
  off_.tu_xor_self_untaints = coff(&tu.xor_self_untaints);
  const mem::TaintedMemory::JitLayout ml = cpu.memory_.jit_layout();
  off_.mem_memo_index = static_cast<int32_t>(ml.memo_index);
  off_.mem_memo_page = static_cast<int32_t>(ml.memo_page);
  off_.mem_wmemo_index = static_cast<int32_t>(ml.wmemo_index);
  off_.mem_wmemo_page = static_cast<int32_t>(ml.wmemo_page);
  off_.page_data = static_cast<int32_t>(ml.page_data);
  off_.page_summary = static_cast<int32_t>(ml.page_summary);

#if PTAINT_JIT_HAVE_MMAP
  void* p = mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE | PROT_EXEC,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    arena_ = static_cast<uint8_t*>(p);
    arena_cap_ = kArenaBytes;
  }
#endif
}

JitEngine::~JitEngine() {
#if PTAINT_JIT_HAVE_MMAP
  if (arena_ != nullptr) munmap(arena_, arena_cap_);
#endif
}

bool JitEngine::supported() {
#if defined(__x86_64__) && (defined(__unix__) || defined(__APPLE__))
  return !core::settings().jit_force_unsupported;
#else
  return false;
#endif
}

void JitEngine::on_reset() {
  arena_used_ = 0;
  stats_.code_bytes = 0;
  compiled_.clear();
  chain_exits_.clear();
  std::fill(itable_.begin(), itable_.end(), IndirectEntry{});
}

// ---------------------------------------------------------------------------
// Cross-block chaining
// ---------------------------------------------------------------------------

namespace {
void patch_rel32(uint8_t* site, const uint8_t* target) {
  const int64_t rel = target - (site + 4);
  const auto v = static_cast<uint32_t>(static_cast<int32_t>(rel));
  std::memcpy(site, &v, 4);
}
}  // namespace

void JitEngine::link_chains() {
  for (ChainExit& x : chain_exits_) {
    if (x.patched) continue;
    const auto it = compiled_.find(x.target_pc);
    if (it == compiled_.end()) continue;
    // Thunk: re-check the budget for one more pass of the target block,
    // debit it, and jump past the target's prologue; on an exhausted budget
    // fall back to the source epilogue (pc is already set).
    Emitter t;
    const auto glen = static_cast<int32_t>(it->second.guest_len);
    t.cmp_m64_imm(Gp::R14, offsetof(Context, budget), glen);
    const size_t out = t.jcc(Cc::CC_B);
    t.sub_m64_imm(Gp::R14, offsetof(Context, budget), glen);
    const size_t to_target = t.jmp();
    t.patch_here(out);
    const size_t to_epilogue = t.jmp();
    if (arena_used_ + t.size() > arena_cap_) return;  // no room, stay unlinked
    uint8_t* thunk = arena_ + arena_used_;
    std::memcpy(thunk, t.code().data(), t.size());
    arena_used_ += t.size();
    stats_.code_bytes = arena_used_;
    patch_rel32(thunk + to_target, it->second.top);
    patch_rel32(thunk + to_epilogue, x.epilogue);
    patch_rel32(x.site, thunk);
    x.patched = true;
  }
  // Refresh the indirect-target cache (collisions just take the miss path).
  for (const auto& [pc, body] : compiled_) {
    itable_[(pc >> 2) & kIndirectMask] = {pc, body.guest_len, body.top};
  }
}

void JitEngine::unlink_chains(uint32_t dead_entry) {
  // Conservative and rare (SMC / snapshot restore): revert every chain so
  // nothing can reach the dead block's code, drop the dead block's own
  // sites, and let the next compile() re-link the survivors.
  for (ChainExit& x : chain_exits_) {
    if (x.patched) {
      patch_rel32(x.site, x.epilogue);
      x.patched = false;
    }
  }
  compiled_.erase(dead_entry);
  std::erase_if(chain_exits_, [dead_entry](const ChainExit& x) {
    return x.source_entry == dead_entry;
  });
  std::fill(itable_.begin(), itable_.end(), IndirectEntry{});
}

void JitEngine::note_block_dropped(const Block& blk) {
  ++stats_.invalidations;
  unlink_chains(blk.entry_pc);
}

// ---------------------------------------------------------------------------
// Trampoline
// ---------------------------------------------------------------------------

StopReason JitEngine::advance(uint64_t n) {
  Cpu& c = cpu_;
  uint64_t remaining = n;
  while (remaining > 0 && c.stop_ == StopReason::kRunning) {
    Block* blk = nullptr;
    const uint32_t pc = c.pc_;
    if (pc % 4 == 0 && pc >= c.text_begin_) {
      const uint32_t idx = (pc - c.text_begin_) / 4;
      if (idx < sb_.block_at_.size()) {
        blk = sb_.block_at_[idx];
        if (blk == nullptr) blk = sb_.translate(pc, idx);
      }
    }
    if (blk == nullptr || blk->guest_len > remaining) {
      // Same irregular-case fallback as the superblock budget loop.
      const uint64_t before = c.stats_.instructions;
      c.step();
      sb_.stats_.step_retired += c.stats_.instructions - before;
      --remaining;
      continue;
    }
    if (blk->host == nullptr && blk->no_jit == 0 &&
        ++blk->heat >= kHotThreshold) {
      compile(*blk);
    }
    const uint64_t before = c.stats_.instructions;
    if (blk->host != nullptr) {
      // The emitted self-loop back edge re-debits guest_len per iteration,
      // so the budget below is what the block may retire beyond this pass.
      ctx_.budget = remaining - blk->guest_len;
      ++stats_.host_entries;
      auto fn = reinterpret_cast<void (*)(Context*)>(
          reinterpret_cast<uintptr_t>(blk->host));
      fn(&ctx_);
      const uint64_t retired = c.stats_.instructions - before;
      stats_.host_retired += retired;
      remaining -= retired;
    } else {
      ++sb_.stats_.blocks_entered;
      sb_.exec_block(*blk, remaining < kInterpSlice ? remaining : kInterpSlice);
      const uint64_t retired = c.stats_.instructions - before;
      sb_.stats_.block_retired += retired;
      remaining -= retired;
    }
    if (!sb_.graveyard_.empty()) sb_.graveyard_.clear();
  }
  return c.stop_;
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

void JitEngine::compile(Block& blk) {
  for (const MicroOp& u : blk.uops) {
    if (u.kind == SB::kSyscall) {
      blk.no_jit = 1;
      ++stats_.bailout_syscall;
      return;
    }
    if (u.kind == SB::kBreak) {
      blk.no_jit = 1;
      ++stats_.bailout_break;
      return;
    }
  }
  if (arena_ == nullptr) {
    blk.no_jit = 1;
    ++stats_.bailout_arena_full;
    return;
  }

  Emitter e;
  const TaintPolicy& policy = cpu_.policy_;
  const uint32_t text_begin = cpu_.text_begin_;
  const uint32_t text_end = cpu_.text_end_;

  // Slow-path call sites, emitted after the epilogue.
  enum Recipe : uint8_t {
    R_ALU,      // void (Cpu*, MicroOp*, v); v is in eax at the branch
    R_LW, R_LOADOTHER, R_ADDRLW,   // status (Cpu*, MicroOp*)
    R_SW, R_SS, R_ADDRSW,          // status (Cpu*, MicroOp*, Block*)
    R_BR, R_CMPBR, R_JR, R_JALR,   // terminator: void (Cpu*, MicroOp*)
    // Inline compare-untaint side effect (no call): clear the operands'
    // data-taint bits, bump the counters the hot-path flush can't fold
    // (they only fire on data-tainted operands), and resume the hot path.
    R_BR_UNTAINT, R_CMPBR_UNTAINT,
  };
  struct ColdSite {
    size_t jcc_pos = 0;
    size_t resume = 0;  // hot-path continuation for status==0
    const MicroOp* u = nullptr;
    Recipe recipe = R_ALU;
    Flush flush;  // status recipes: inclusive prefix; terminators: exclusive
  };
  std::vector<ColdSite> colds;
  std::vector<size_t> exit_jumps;  // hot-path "jmp epilogue" fixups
  struct ChainSite {
    size_t pos;       // rel32 operand position in the buffer
    uint32_t target;  // compile-time-known guest target pc
  };
  std::vector<ChainSite> chain_sites;

  Flush acc;  // deferred constants of the micro-ops retired so far
  const auto bump = [&acc](int32_t off, uint64_t n) { acc[off] += n; };
  const auto emit_flush = [&](const Flush& f) {
    for (const auto& [disp, n] : f) {
      if (n != 0) e.add_m64_imm(Gp::R12, disp, static_cast<int32_t>(n));
    }
  };
  const auto slot = [](int r) { return static_cast<int32_t>(8 * r); };
  const auto load_slot = [&](Gp dst, int r) {
    e.mov_r64_m(dst, Gp::R13, slot(r));
  };
  const auto store_slot = [&](int r, Gp src) {
    if (r != 0) e.mov_m_r64(Gp::R13, slot(r), src);
  };
  // Full-width taint test of the TaintedWord in `w`; clobbers `scratch`.
  // Jumps to the pending cold site on any set plane.
  const auto taint_jnz = [&](Gp w, Gp scratch) {
    if (scratch != w) e.mov_r64_r64(scratch, w);
    e.shr_r64_imm(scratch, 32);
    e.test_r16_r16(scratch, scratch);
    return e.jcc(Cc::CC_NE);
  };
  // Data-plane-only taint test — the reference `tainted()` gate.  Address
  // provenance alone triggers no compare side effect, so compares of
  // addresses stay on the hot path.  `scratch` must be rax..rbx (8-bit test).
  const auto data_taint_jnz = [&](Gp w, Gp scratch) {
    if (scratch != w) e.mov_r64_r64(scratch, w);
    e.shr_r64_imm(scratch, 32);
    e.test_r8_imm(scratch, mem::kDataMask);
    return e.jcc(Cc::CC_NE);
  };
  // Clears a register's data-taint bits in place (RegisterFile::untaint).
  const auto untaint_slot = [&](int r) {
    if (r != 0) {
      e.and_m16_imm(Gp::R13, slot(r) + 4,
                    static_cast<uint16_t>(~mem::kDataMask));
    }
  };
  const auto lui_taint = [&](uint32_t v) -> uint64_t {
    return text_begin != 0 && v >= text_begin && v < text_end
               ? static_cast<uint64_t>(mem::kTextAddrMask)
               : 0;
  };
  const auto ra_word = [&](uint32_t pc) {
    return static_cast<uint64_t>(pc) |
           (static_cast<uint64_t>(mem::kTextAddrMask) << 32);
  };

  // Prologue: 4 pushes + sub 8 keeps rsp 16-aligned at helper calls.
  e.push_r64(Gp::RBP);
  e.push_r64(Gp::R12);
  e.push_r64(Gp::R13);
  e.push_r64(Gp::R14);
  e.sub_rsp(8);
  e.mov_r64_r64(Gp::R14, Gp::RDI);
  e.mov_r64_m(Gp::R12, Gp::R14, offsetof(Context, cpu));
  e.mov_r64_m(Gp::R13, Gp::R14, offsetof(Context, regs));
  e.mov_r64_m(Gp::RBP, Gp::R14, offsetof(Context, mem));
  const size_t top = e.size();  // self-loop back-edge target

  // Emits one exit side of a terminator: flush, set pc, leave.  When the
  // (compile-time) target is the block's own entry, a self-loop back edge
  // keeps tight loops entirely in host code; any other known target becomes
  // a chain site, patched to the target's compiled body by link_chains().
  const auto emit_exit = [&](const Flush& f, uint32_t target_pc,
                             bool may_loop) {
    emit_flush(f);
    const bool self_loop = may_loop && target_pc == blk.entry_pc;
    if (self_loop) {
      const int32_t glen = static_cast<int32_t>(blk.guest_len);
      e.cmp_m64_imm(Gp::R14, offsetof(Context, budget), glen);
      const size_t out = e.jcc(Cc::CC_B);
      e.sub_m64_imm(Gp::R14, offsetof(Context, budget), glen);
      e.jmp_to(top);
      e.patch_here(out);
    }
    e.mov_m32_imm(Gp::R12, off_.pc, target_pc);
    const size_t pos = e.jmp();
    exit_jumps.push_back(pos);
    // A self-loop exit only fires on budget exhaustion — chaining it would
    // re-fail the same check, so leave it pointing at the epilogue.
    if (!self_loop) chain_sites.push_back({pos, target_pc});
  };

  for (const MicroOp& u : blk.uops) {
    const isa::Instruction& in = u.inst;
    switch (u.kind) {
      // ---- constants ------------------------------------------------------
      case SB::kLui: {
        if (in.rt != 0) {
          e.mov_r64_imm(Gp::RAX, static_cast<uint64_t>(u.value) |
                                     (lui_taint(u.value) << 32));
          store_slot(in.rt, Gp::RAX);
        }
        bump(off_.st_alu_ops, 1);
        bump(off_.st_instructions, 1);
        break;
      }
      case SB::kLuiOri: {
        const uint32_t lui_v = static_cast<uint32_t>(in.imm & 0xffff) << 16;
        const uint64_t lt = lui_taint(lui_v);
        if (u.aux != 0) {
          e.mov_r64_imm(Gp::RAX,
                        static_cast<uint64_t>(lui_v) | (lt << 32));
          store_slot(in.rt, Gp::RAX);
        }
        if (u.inst2.rt != 0) {
          e.mov_r64_imm(Gp::RAX,
                        static_cast<uint64_t>(u.value) | (lt << 32));
          store_slot(u.inst2.rt, Gp::RAX);
        }
        bump(off_.tu_evaluations, 1);
        bump(off_.st_alu_ops, 2);
        bump(off_.st_instructions, 2);
        break;
      }

      // ---- ALU ------------------------------------------------------------
      case SB::kAddRR: case SB::kSubRR: case SB::kOrRR: case SB::kNorRR:
      case SB::kXorRR: case SB::kAndRR: case SB::kSltRR: case SB::kSltuRR:
      case SB::kSllvRR: case SB::kSrlvRR: case SB::kSravRR:
      case SB::kSllI: case SB::kSrlI: case SB::kSraI:
      case SB::kAddI: case SB::kOrI: case SB::kXorI: case SB::kAndI:
      case SB::kSltI: case SB::kSltuI: {
        const bool shift_var = u.kind == SB::kSllvRR ||
                               u.kind == SB::kSrlvRR || u.kind == SB::kSravRR;
        const bool shift_imm =
            u.kind == SB::kSllI || u.kind == SB::kSrlI || u.kind == SB::kSraI;
        const bool two_reg =
            u.kind >= SB::kAddRR && u.kind <= SB::kSltuRR && !shift_imm;
        const uint8_t dest =
            (two_reg || shift_var || shift_imm) ? in.rd : in.rt;
        size_t to_cold;
        if (shift_var) {
          // a = rt (shifted value), b = rs (amount, consumed via cl).
          load_slot(Gp::RAX, in.rt);
          load_slot(Gp::RCX, in.rs);
          e.mov_r64_r64(Gp::RDX, Gp::RAX);
          e.or_r64_r64(Gp::RDX, Gp::RCX);
          if (u.kind == SB::kSllvRR) e.shl_r32_cl(Gp::RAX);
          if (u.kind == SB::kSrlvRR) e.shr_r32_cl(Gp::RAX);
          if (u.kind == SB::kSravRR) e.sar_r32_cl(Gp::RAX);
          e.shr_r64_imm(Gp::RDX, 32);
          e.test_r16_r16(Gp::RDX, Gp::RDX);
          to_cold = e.jcc(Cc::CC_NE);
        } else if (two_reg) {
          load_slot(Gp::RAX, in.rs);
          load_slot(Gp::RDX, in.rt);
          e.mov_r64_r64(Gp::RCX, Gp::RAX);
          e.or_r64_r64(Gp::RCX, Gp::RDX);
          switch (u.kind) {
            case SB::kAddRR: e.add_r32_r32(Gp::RAX, Gp::RDX); break;
            case SB::kSubRR: e.sub_r32_r32(Gp::RAX, Gp::RDX); break;
            case SB::kOrRR: e.or_r32_r32(Gp::RAX, Gp::RDX); break;
            case SB::kNorRR:
              e.or_r32_r32(Gp::RAX, Gp::RDX);
              e.not_r32(Gp::RAX);
              break;
            case SB::kXorRR: e.xor_r32_r32(Gp::RAX, Gp::RDX); break;
            case SB::kAndRR: e.and_r32_r32(Gp::RAX, Gp::RDX); break;
            default:  // kSltRR / kSltuRR
              e.cmp_r32_r32(Gp::RAX, Gp::RDX);
              e.setcc_r8(u.kind == SB::kSltRR ? Cc::CC_L : Cc::CC_B, Gp::RAX);
              e.movzx_r32_r8(Gp::RAX, Gp::RAX);
              break;
          }
          e.shr_r64_imm(Gp::RCX, 32);
          e.test_r16_r16(Gp::RCX, Gp::RCX);
          to_cold = e.jcc(Cc::CC_NE);
        } else {
          // Immediate forms: a = rs (rt for shift-by-immediate).
          load_slot(Gp::RAX, shift_imm ? in.rt : in.rs);
          e.mov_r64_r64(Gp::RCX, Gp::RAX);
          switch (u.kind) {
            case SB::kSllI: e.shl_r32_imm(Gp::RAX, in.shamt); break;
            case SB::kSrlI: e.shr_r32_imm(Gp::RAX, in.shamt); break;
            case SB::kSraI: e.sar_r32_imm(Gp::RAX, in.shamt); break;
            case SB::kAddI: e.add_r32_imm(Gp::RAX, in.imm); break;
            case SB::kOrI: e.or_r32_imm(Gp::RAX, in.imm & 0xffff); break;
            case SB::kXorI: e.xor_r32_imm(Gp::RAX, in.imm & 0xffff); break;
            case SB::kAndI: e.and_r32_imm(Gp::RAX, in.imm & 0xffff); break;
            default:  // kSltI / kSltuI
              e.cmp_r32_imm(Gp::RAX, in.imm);
              e.setcc_r8(u.kind == SB::kSltI ? Cc::CC_L : Cc::CC_B, Gp::RAX);
              e.movzx_r32_r8(Gp::RAX, Gp::RAX);
              break;
          }
          e.shr_r64_imm(Gp::RCX, 32);
          e.test_r16_r16(Gp::RCX, Gp::RCX);
          to_cold = e.jcc(Cc::CC_NE);
        }
        store_slot(dest, Gp::RAX);

        bump(off_.tu_evaluations, 1);
        if ((u.kind == SB::kAndRR || u.kind == SB::kAndI) &&
            policy.and_zero_untaints) {
          bump(off_.tu_and_zero_untaints, 1);
        }
        if (u.kind == SB::kXorRR && in.rs == in.rt &&
            policy.xor_self_untaints) {
          bump(off_.tu_xor_self_untaints, 1);
        }
        if ((u.kind == SB::kSltRR || u.kind == SB::kSltuRR ||
             u.kind == SB::kSltI || u.kind == SB::kSltuI) &&
            policy.compare_untaints) {
          bump(off_.tu_compare_untaints, 1);
          bump(off_.st_compare_untaints, 1);
        }
        bump(off_.st_alu_ops, 1);
        bump(off_.st_instructions, 1);
        colds.push_back({to_cold, e.size(), &u, R_ALU, {}});
        break;
      }

      case SB::kMulDiv: {
        e.mov_r64_r64(Gp::RDI, Gp::R12);
        e.mov_r64_imm(Gp::RSI, reinterpret_cast<uint64_t>(&u));
        e.mov_r64_imm(Gp::RAX, fn_addr(&JitRuntime::muldiv));
        e.call_r64(Gp::RAX);
        // The helper bumps alu_ops/instructions itself (no flush constants),
        // so stop stubs after it stay exact without compensation.
        break;
      }

      // ---- loads ----------------------------------------------------------
      case SB::kLw: case SB::kLoadOther: {
        const Recipe recipe = u.kind == SB::kLw ? R_LW : R_LOADOTHER;
        std::vector<size_t> to_cold;
        load_slot(Gp::RAX, in.rs);
        if (u.elide == 0) to_cold.push_back(taint_jnz(Gp::RAX, Gp::RCX));
        e.mov_r32_r32(Gp::RDX, Gp::RAX);
        e.add_r32_imm(Gp::RDX, in.imm);  // ea
        if (u.kind == SB::kLw) {
          e.test_r8_imm(Gp::RDX, 3);
          to_cold.push_back(e.jcc(Cc::CC_NE));
        } else if (in.op == isa::Op::kLh || in.op == isa::Op::kLhu) {
          e.test_r8_imm(Gp::RDX, 1);
          to_cold.push_back(e.jcc(Cc::CC_NE));
        }
        e.mov_r32_r32(Gp::RCX, Gp::RDX);
        e.shr_r32_imm(Gp::RCX, 12);
        e.cmp_r32_m(Gp::RCX, Gp::RBP, off_.mem_memo_index);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.mov_r64_m(Gp::R8, Gp::RBP, off_.mem_memo_page);
        e.cmp_m64_imm(Gp::R8, off_.page_summary, 0);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.and_r32_imm(Gp::RDX, 0xfff);
        if (u.kind == SB::kLw) {
          e.mov_r32_m_bi(Gp::RAX, Gp::R8, Gp::RDX, off_.page_data);
        } else {
          switch (in.op) {
            case isa::Op::kLb:
              e.movsx_r32_m8_bi(Gp::RAX, Gp::R8, Gp::RDX, off_.page_data);
              break;
            case isa::Op::kLbu:
              e.movzx_r32_m8_bi(Gp::RAX, Gp::R8, Gp::RDX, off_.page_data);
              break;
            case isa::Op::kLh:
              e.movsx_r32_m16_bi(Gp::RAX, Gp::R8, Gp::RDX, off_.page_data);
              break;
            default:  // kLhu
              e.movzx_r32_m16_bi(Gp::RAX, Gp::R8, Gp::RDX, off_.page_data);
              break;
          }
        }
        store_slot(in.rt, Gp::RAX);

        bump(off_.st_loads, 1);
        bump(off_.st_instructions, 1);
        Flush inclusive = acc;
        const size_t resume = e.size();
        for (size_t pos : to_cold) {
          colds.push_back({pos, resume, &u, recipe, inclusive});
        }
        break;
      }

      // ---- stores ---------------------------------------------------------
      case SB::kSw: case SB::kStoreSmall: {
        const Recipe recipe = u.kind == SB::kSw ? R_SW : R_SS;
        std::vector<size_t> to_cold;
        load_slot(Gp::RAX, in.rs);
        if (u.elide == 0) to_cold.push_back(taint_jnz(Gp::RAX, Gp::RCX));
        load_slot(Gp::RDX, in.rt);  // value; slot 0 reads {0, 0}
        to_cold.push_back(taint_jnz(Gp::RDX, Gp::R9));
        e.mov_r32_r32(Gp::RCX, Gp::RAX);
        e.add_r32_imm(Gp::RCX, in.imm);  // ea
        if (u.kind == SB::kSw) {
          e.test_r8_imm(Gp::RCX, 3);
          to_cold.push_back(e.jcc(Cc::CC_NE));
        } else if (in.op == isa::Op::kSh) {
          e.test_r8_imm(Gp::RCX, 1);
          to_cold.push_back(e.jcc(Cc::CC_NE));
        }
        // Stores at/above text_end can never invalidate translations; the
        // rare below-text store goes slow and runs the reference guard.
        e.cmp_r32_imm(Gp::RCX, static_cast<int32_t>(text_end));
        to_cold.push_back(e.jcc(Cc::CC_B));
        e.mov_r32_r32(Gp::RSI, Gp::RCX);
        e.shr_r32_imm(Gp::RSI, 12);
        e.cmp_r32_m(Gp::RSI, Gp::RBP, off_.mem_wmemo_index);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.mov_r64_m(Gp::R8, Gp::RBP, off_.mem_wmemo_page);
        e.cmp_m64_imm(Gp::R8, off_.page_summary, 0);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.and_r32_imm(Gp::RCX, 0xfff);
        if (u.kind == SB::kSw) {
          e.mov_m_r32_bi(Gp::R8, Gp::RCX, off_.page_data, Gp::RDX);
        } else if (in.op == isa::Op::kSh) {
          e.mov_m_r16_bi(Gp::R8, Gp::RCX, off_.page_data, Gp::RDX);
        } else {
          e.mov_m_r8_bi(Gp::R8, Gp::RCX, off_.page_data, Gp::RDX);
        }

        bump(off_.st_stores, 1);
        bump(off_.st_instructions, 1);
        Flush inclusive = acc;
        const size_t resume = e.size();
        for (size_t pos : to_cold) {
          colds.push_back({pos, resume, &u, recipe, inclusive});
        }
        break;
      }

      // ---- fused address-generation pairs ---------------------------------
      case SB::kAddrLw: {
        std::vector<size_t> to_cold;
        load_slot(Gp::RAX, in.rs);
        to_cold.push_back(taint_jnz(Gp::RAX, Gp::RCX));
        e.add_r32_imm(Gp::RAX, in.imm);  // av, zero-extended (taint 0)
        e.mov_r32_r32(Gp::RDX, Gp::RAX);
        e.add_r32_imm(Gp::RDX, u.inst2.imm);  // ea
        e.test_r8_imm(Gp::RDX, 3);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.mov_r32_r32(Gp::RCX, Gp::RDX);
        e.shr_r32_imm(Gp::RCX, 12);
        e.cmp_r32_m(Gp::RCX, Gp::RBP, off_.mem_memo_index);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.mov_r64_m(Gp::R8, Gp::RBP, off_.mem_memo_page);
        e.cmp_m64_imm(Gp::R8, off_.page_summary, 0);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        // All checks passed — commit both register writes.
        store_slot(in.rt, Gp::RAX);
        e.and_r32_imm(Gp::RDX, 0xfff);
        e.mov_r32_m_bi(Gp::RAX, Gp::R8, Gp::RDX, off_.page_data);
        store_slot(u.inst2.rt, Gp::RAX);

        bump(off_.tu_evaluations, 1);
        bump(off_.st_alu_ops, 1);
        bump(off_.st_loads, 1);
        bump(off_.st_instructions, 2);
        Flush inclusive = acc;
        const size_t resume = e.size();
        for (size_t pos : to_cold) {
          colds.push_back({pos, resume, &u, R_ADDRLW, inclusive});
        }
        break;
      }

      case SB::kAddrSw: {
        const isa::Instruction& si = u.inst2;
        std::vector<size_t> to_cold;
        load_slot(Gp::RAX, in.rs);
        to_cold.push_back(taint_jnz(Gp::RAX, Gp::RCX));
        e.add_r32_imm(Gp::RAX, in.imm);  // av
        if (si.rt == in.rt) {
          // The stored value is the freshly-written av itself (taint 0).
          e.mov_r64_r64(Gp::RDX, Gp::RAX);
        } else {
          load_slot(Gp::RDX, si.rt);
          to_cold.push_back(taint_jnz(Gp::RDX, Gp::R9));
        }
        e.mov_r32_r32(Gp::RCX, Gp::RAX);
        e.add_r32_imm(Gp::RCX, si.imm);  // ea
        e.test_r8_imm(Gp::RCX, 3);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.cmp_r32_imm(Gp::RCX, static_cast<int32_t>(text_end));
        to_cold.push_back(e.jcc(Cc::CC_B));
        e.mov_r32_r32(Gp::RSI, Gp::RCX);
        e.shr_r32_imm(Gp::RSI, 12);
        e.cmp_r32_m(Gp::RSI, Gp::RBP, off_.mem_wmemo_index);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        e.mov_r64_m(Gp::R8, Gp::RBP, off_.mem_wmemo_page);
        e.cmp_m64_imm(Gp::R8, off_.page_summary, 0);
        to_cold.push_back(e.jcc(Cc::CC_NE));
        store_slot(in.rt, Gp::RAX);
        e.and_r32_imm(Gp::RCX, 0xfff);
        e.mov_m_r32_bi(Gp::R8, Gp::RCX, off_.page_data, Gp::RDX);

        bump(off_.tu_evaluations, 1);
        bump(off_.st_alu_ops, 1);
        bump(off_.st_stores, 1);
        bump(off_.st_instructions, 2);
        Flush inclusive = acc;
        const size_t resume = e.size();
        for (size_t pos : to_cold) {
          colds.push_back({pos, resume, &u, R_ADDRSW, inclusive});
        }
        break;
      }

      // ---- terminators ----------------------------------------------------
      case SB::kEnd: {
        emit_exit(acc, u.pc, /*may_loop=*/false);
        break;
      }

      case SB::kJ: case SB::kJal: {
        if (u.kind == SB::kJal) {
          e.mov_r64_imm(Gp::RAX, ra_word(u.pc + 4));
          store_slot(isa::kRa, Gp::RAX);
        }
        Flush side = acc;
        side[off_.st_jumps] += 1;
        side[off_.st_instructions] += 1;
        emit_exit(side, in.target, /*may_loop=*/true);
        break;
      }

      case SB::kJr: case SB::kJalr: {
        load_slot(Gp::RAX, in.rs);
        if (u.elide == 0) {
          const size_t pos = taint_jnz(Gp::RAX, Gp::RCX);
          colds.push_back(
              {pos, 0, &u, u.kind == SB::kJr ? R_JR : R_JALR, acc});
        }
        Flush side = acc;
        side[off_.st_jumps] += 1;
        side[off_.st_instructions] += 1;
        emit_flush(side);
        if (u.kind == SB::kJalr && in.rd != 0) {
          e.mov_r64_imm(Gp::RCX, ra_word(u.pc + 4));
          store_slot(in.rd, Gp::RCX);
        }
        // Indirect-target cache probe (eax = target pc): on a hit, re-check
        // and debit the budget and jump straight into the target's body.
        // Misaligned targets miss before probing, so the ~0u sentinel in
        // empty slots can never match.
        e.test_r8_imm(Gp::RAX, 3);
        const size_t miss1 = e.jcc(Cc::CC_NE);
        e.mov_r32_r32(Gp::RCX, Gp::RAX);
        e.shr_r32_imm(Gp::RCX, 2);
        e.and_r32_imm(Gp::RCX, static_cast<int32_t>(kIndirectMask));
        e.shl_r32_imm(Gp::RCX, 4);
        e.mov_r64_imm(Gp::RSI, reinterpret_cast<uint64_t>(itable_.data()));
        e.mov_r32_m_bi(Gp::RDX, Gp::RSI, Gp::RCX, 0);  // entry.pc
        e.cmp_r32_r32(Gp::RDX, Gp::RAX);
        const size_t miss2 = e.jcc(Cc::CC_NE);
        e.mov_r32_m_bi(Gp::RDX, Gp::RSI, Gp::RCX, 4);  // entry.guest_len
        e.cmp_m64_r64(Gp::R14, offsetof(Context, budget), Gp::RDX);
        const size_t miss3 = e.jcc(Cc::CC_B);
        e.sub_m64_r64(Gp::R14, offsetof(Context, budget), Gp::RDX);
        e.jmp_m64_bi(Gp::RSI, Gp::RCX, 8);             // entry.top
        e.patch_here(miss1);
        e.patch_here(miss2);
        e.patch_here(miss3);
        e.mov_m_r32(Gp::R12, off_.pc, Gp::RAX);
        exit_jumps.push_back(e.jmp());
        break;
      }

      case SB::kBranch: {
        load_slot(Gp::RAX, in.rs);
        load_slot(Gp::RDX, in.rt);
        if (policy.compare_untaints) {
          // Data taint on either operand triggers the compare-untaint side
          // effect.  Plain branches inline it (untaint + counter, then
          // resume — input-scanning loops hit this every iteration); the
          // linking forms keep the reference terminator because it orders
          // the $ra write before the untaint.
          const bool linking =
              in.op == isa::Op::kBltzal || in.op == isa::Op::kBgezal;
          e.mov_r64_r64(Gp::RCX, Gp::RAX);
          e.or_r64_r64(Gp::RCX, Gp::RDX);
          const size_t pos = data_taint_jnz(Gp::RCX, Gp::RCX);
          colds.push_back({pos, e.size(), &u,
                           linking ? R_BR : R_BR_UNTAINT, acc});
        }
        if (in.op == isa::Op::kBltzal || in.op == isa::Op::kBgezal) {
          e.mov_r64_imm(Gp::RCX, ra_word(u.pc + 4));
          store_slot(isa::kRa, Gp::RCX);
        }
        Cc cc;
        switch (in.op) {
          case isa::Op::kBeq:
            e.cmp_r32_r32(Gp::RAX, Gp::RDX);
            cc = Cc::CC_E;
            break;
          case isa::Op::kBne:
            e.cmp_r32_r32(Gp::RAX, Gp::RDX);
            cc = Cc::CC_NE;
            break;
          case isa::Op::kBlez:
            e.cmp_r32_imm(Gp::RAX, 0);
            cc = Cc::CC_LE;
            break;
          case isa::Op::kBgtz:
            e.cmp_r32_imm(Gp::RAX, 0);
            cc = Cc::CC_G;
            break;
          case isa::Op::kBltz: case isa::Op::kBltzal:
            e.cmp_r32_imm(Gp::RAX, 0);
            cc = Cc::CC_L;
            break;
          default:  // kBgez / kBgezal
            e.cmp_r32_imm(Gp::RAX, 0);
            cc = Cc::CC_GE;
            break;
        }
        const size_t taken_fix = e.jcc(cc);
        Flush side = acc;
        side[off_.st_branches] += 1;
        side[off_.st_instructions] += 1;
        emit_exit(side, u.pc + 4, /*may_loop=*/false);
        e.patch_here(taken_fix);
        side[off_.st_taken_branches] += 1;
        emit_exit(side, u.pc + 4 + (static_cast<uint32_t>(in.imm) << 2),
                  /*may_loop=*/true);
        break;
      }

      case SB::kCmpBranch: {
        const isa::Instruction& ci = in;
        const bool reg_form =
            ci.op == isa::Op::kSlt || ci.op == isa::Op::kSltu;
        const bool is_signed =
            ci.op == isa::Op::kSlt || ci.op == isa::Op::kSlti;
        const uint8_t dest = reg_form ? ci.rd : ci.rt;
        load_slot(Gp::RAX, ci.rs);
        // With compare-untaints on (the default), a data-tainted compare
        // differs from the hot path only by the in-place operand untaint
        // and one tainted-evaluation count, both inlined (R_CMPBR_UNTAINT);
        // address-only taint behaves exactly like the hot path.  With the
        // policy off, tainted compares propagate taint into the result, so
        // any set plane runs the reference terminator.
        size_t pos;
        if (reg_form) {
          load_slot(Gp::RDX, ci.rt);
          e.mov_r64_r64(Gp::RCX, Gp::RAX);
          e.or_r64_r64(Gp::RCX, Gp::RDX);
          pos = policy.compare_untaints ? data_taint_jnz(Gp::RCX, Gp::RCX)
                                        : taint_jnz(Gp::RCX, Gp::RCX);
          const size_t resume = e.size();
          colds.push_back({pos, resume, &u,
                           policy.compare_untaints ? R_CMPBR_UNTAINT
                                                   : R_CMPBR,
                           acc});
          e.cmp_r32_r32(Gp::RAX, Gp::RDX);
        } else {
          pos = policy.compare_untaints ? data_taint_jnz(Gp::RAX, Gp::RCX)
                                        : taint_jnz(Gp::RAX, Gp::RCX);
          const size_t resume = e.size();
          colds.push_back({pos, resume, &u,
                           policy.compare_untaints ? R_CMPBR_UNTAINT
                                                   : R_CMPBR,
                           acc});
          e.cmp_r32_imm(Gp::RAX, ci.imm);
        }
        e.setcc_r8(is_signed ? Cc::CC_L : Cc::CC_B, Gp::RAX);
        e.movzx_r32_r8(Gp::RAX, Gp::RAX);
        store_slot(dest, Gp::RAX);  // dest != 0 (fusion guarantee)
        e.test_r32_r32(Gp::RAX, Gp::RAX);
        // aux: the branch half is bne (taken when the compare produced 1).
        const size_t taken_fix = e.jcc(u.aux != 0 ? Cc::CC_NE : Cc::CC_E);
        Flush side = acc;
        side[off_.tu_evaluations] += 1;
        if (policy.compare_untaints) {
          side[off_.tu_compare_untaints] += 1;
          side[off_.st_compare_untaints] += 1;
        }
        side[off_.st_alu_ops] += 1;
        side[off_.st_branches] += 1;
        side[off_.st_instructions] += 2;
        emit_exit(side, u.pc + 8, /*may_loop=*/false);
        e.patch_here(taken_fix);
        side[off_.st_taken_branches] += 1;
        emit_exit(side, u.pc + 8 + (static_cast<uint32_t>(u.inst2.imm) << 2),
                  /*may_loop=*/true);
        break;
      }

      default:
        // kSyscall/kBreak were rejected above; kNumKinds never appears.
        blk.no_jit = 1;
        ++stats_.bailout_break;
        return;
    }
  }

  // Epilogue — every exit path lands here with pc_ and counters final.
  const size_t epilogue = e.size();
  for (size_t pos : exit_jumps) e.patch(pos, epilogue);
  e.add_rsp(8);
  e.pop_r64(Gp::R14);
  e.pop_r64(Gp::R13);
  e.pop_r64(Gp::R12);
  e.pop_r64(Gp::RBP);
  e.ret();

  // Cold stubs.
  for (const ColdSite& s : colds) {
    e.patch_here(s.jcc_pos);
    switch (s.recipe) {
      case R_ALU: {
        e.mov_r32_r32(Gp::RDX, Gp::RAX);  // v
        e.mov_r64_r64(Gp::RDI, Gp::R12);
        e.mov_r64_imm(Gp::RSI, reinterpret_cast<uint64_t>(s.u));
        e.mov_r64_imm(Gp::RAX, fn_addr(&JitRuntime::alu_slow));
        e.call_r64(Gp::RAX);
        e.jmp_to(s.resume);
        break;
      }
      case R_LW: case R_LOADOTHER: case R_ADDRLW:
      case R_SW: case R_SS: case R_ADDRSW: {
        e.mov_r64_r64(Gp::RDI, Gp::R12);
        e.mov_r64_imm(Gp::RSI, reinterpret_cast<uint64_t>(s.u));
        uint64_t fn = 0;
        switch (s.recipe) {
          case R_LW: fn = fn_addr(&JitRuntime::lw_slow); break;
          case R_LOADOTHER: fn = fn_addr(&JitRuntime::load_other_slow); break;
          case R_ADDRLW: fn = fn_addr(&JitRuntime::addr_lw_slow); break;
          case R_SW: fn = fn_addr(&JitRuntime::sw_slow); break;
          case R_SS: fn = fn_addr(&JitRuntime::store_small_slow); break;
          default: fn = fn_addr(&JitRuntime::addr_sw_slow); break;
        }
        if (s.recipe == R_SW || s.recipe == R_SS || s.recipe == R_ADDRSW) {
          e.mov_r64_imm(Gp::RDX, reinterpret_cast<uint64_t>(&blk));
        }
        e.mov_r64_imm(Gp::RAX, fn);
        e.call_r64(Gp::RAX);
        e.test_r32_r32(Gp::RAX, Gp::RAX);
        const size_t cont = e.jcc(Cc::CC_E);
        e.patch(cont, s.resume);
        // Stopped mid-block: flush the inclusive prefix (this micro-op's
        // constants cancel the helper's pre-subtract, earlier ones account
        // for the already-retired fast paths).
        emit_flush(s.flush);
        e.jmp_to(epilogue);
        break;
      }
      case R_BR: case R_CMPBR: case R_JR: case R_JALR: {
        // Terminator slow path: flush the retired prefix, then run the full
        // reference terminator (it bumps its own counters and sets pc_).
        emit_flush(s.flush);
        e.mov_r64_r64(Gp::RDI, Gp::R12);
        e.mov_r64_imm(Gp::RSI, reinterpret_cast<uint64_t>(s.u));
        uint64_t fn = 0;
        switch (s.recipe) {
          case R_BR: fn = fn_addr(&JitRuntime::branch_term); break;
          case R_CMPBR: fn = fn_addr(&JitRuntime::cmp_branch_term); break;
          case R_JR: fn = fn_addr(&JitRuntime::jr_term); break;
          default: fn = fn_addr(&JitRuntime::jalr_term); break;
        }
        e.mov_r64_imm(Gp::RAX, fn);
        e.call_r64(Gp::RAX);
        e.jmp_to(epilogue);
        break;
      }
      case R_BR_UNTAINT: {
        // Data-tainted plain branch: validate-untaint the operands in place
        // (branch_term), bump the counter the side flushes can't fold, and
        // rejoin the hot path — the compare itself is taint-independent.
        const isa::Instruction& bi = s.u->inst;
        untaint_slot(bi.rs);
        if (bi.op == isa::Op::kBeq || bi.op == isa::Op::kBne) {
          untaint_slot(bi.rt);
        }
        e.add_m64_imm(Gp::R12, off_.st_compare_untaints, 1);
        e.jmp_to(s.resume);
        break;
      }
      case R_CMPBR_UNTAINT: {
        // Data-tainted fused compare (compare-untaints policy on): identical
        // to the hot path except for the tainted-evaluation count and the
        // in-place operand untaint; the result is untainted either way.
        const isa::Instruction& ci = s.u->inst;
        e.add_m64_imm(Gp::R12, off_.tu_tainted_evaluations, 1);
        untaint_slot(ci.rs);
        if (ci.op == isa::Op::kSlt || ci.op == isa::Op::kSltu) {
          untaint_slot(ci.rt);
        }
        e.jmp_to(s.resume);
        break;
      }
    }
  }

  if (arena_used_ + e.size() > arena_cap_) {
    blk.no_jit = 1;
    ++stats_.bailout_arena_full;
    return;
  }
  uint8_t* dst = arena_ + arena_used_;
  std::memcpy(dst, e.code().data(), e.size());
  arena_used_ += e.size();
  blk.host = dst;
  ++stats_.blocks_compiled;
  stats_.code_bytes = arena_used_;

  compiled_[blk.entry_pc] = {dst + top, blk.guest_len};
  for (const ChainSite& cs : chain_sites) {
    chain_exits_.push_back(
        {blk.entry_pc, cs.target, dst + cs.pos, dst + epilogue, false});
  }
  link_chains();
}

}  // namespace ptaint::cpu
