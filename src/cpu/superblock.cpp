#include "cpu/superblock.hpp"

#include <algorithm>

#include "cpu/jit/jit_engine.hpp"

namespace ptaint::cpu {

// Out-of-line: JitEngine is incomplete in the header.
SuperblockEngine::~SuperblockEngine() = default;

void SuperblockEngine::enable_jit() {
  if (jit_ == nullptr) jit_ = std::make_unique<JitEngine>(*this, cpu_);
}

const JitStats& SuperblockEngine::jit_stats() const {
  static const JitStats kZero{};
  return jit_ != nullptr ? jit_->stats() : kZero;
}

using isa::Instruction;
using isa::Op;
using mem::TaintedWord;

// ---------------------------------------------------------------------------
// Translation
// ---------------------------------------------------------------------------

namespace {

// Longest straight-line run translated into one block.  Big enough to cover
// real basic blocks (SPEC surrogates average well under 20 instructions);
// small enough that the budget tail fallback in advance() stays negligible.
constexpr uint32_t kMaxGuestInsts = 64;

bool is_terminator(Op op) {
  switch (op) {
    case Op::kBeq: case Op::kBne: case Op::kBlez: case Op::kBgtz:
    case Op::kBltz: case Op::kBgez: case Op::kBltzal: case Op::kBgezal:
    case Op::kJ: case Op::kJal: case Op::kJr: case Op::kJalr:
    case Op::kSyscall: case Op::kBreak:
      return true;
    default:
      return false;
  }
}

}  // namespace

SuperblockEngine::Block* SuperblockEngine::translate(uint32_t pc,
                                                     uint32_t idx0) {
  Cpu& c = cpu_;
  CodeImage& code = c.code_;
  auto& dcache = code.decode_cache;
  auto& dvalid = code.decode_valid;

  // Decode through the Cpu's cache with step()'s exact fill rule, so the
  // cache ends up in the same state either engine would leave it in.
  const auto decode_at = [&](uint32_t j, uint32_t jpc) -> const Instruction& {
    if (!dvalid[j]) {
      dcache[j] = isa::decode(c.memory_.load_word(jpc).value);
      dvalid[j] = j < code.elide_bits.size() && code.elide_bits[j] ? 2 : 1;
    }
    return dcache[j];
  };
  const auto is_leader = [&](uint32_t j) {
    return j < code.leader_bits.size() && code.leader_bits[j] != 0;
  };

  auto blk = std::make_unique<Block>();
  blk->entry_pc = pc;
  uint32_t i = idx0;
  uint32_t cur = pc;
  bool terminated = false;

  while (!terminated) {
    if (i >= dvalid.size()) break;                // past the decode cache
    if (i != idx0 && is_leader(i)) break;         // static CFG block boundary
    if (blk->guest_len >= kMaxGuestInsts) break;  // size cap
    const Instruction& inst = decode_at(i, cur);
    if (inst.op == Op::kInvalid) {
      // Entry is invalid: let step() raise the identical fault.  Mid-block:
      // end before it; execution falls off and step() faults on re-entry.
      if (i == idx0) return nullptr;
      break;
    }

    MicroOp u;
    u.pc = cur;
    u.inst = inst;
    u.elide = dvalid[i] == 2 ? 1 : 0;

    // Peek at the following instruction for pair fusion.
    const Instruction* next = nullptr;
    const uint32_t j = i + 1;
    if (j < dvalid.size() && !is_leader(j) &&
        blk->guest_len + 2 <= kMaxGuestInsts) {
      const Instruction& nx = decode_at(j, cur + 4);
      if (nx.op != Op::kInvalid) next = &nx;
    }

    bool fused = false;
    if (next != nullptr) {
      if (inst.op == Op::kLui && next->op == Op::kOri &&
          next->rs == inst.rt && inst.rt != 0) {
        // lui rA, hi ; ori rB, rA, lo  →  one constant materialisation.
        u.kind = kLuiOri;
        u.inst2 = *next;
        u.value = (static_cast<uint32_t>(inst.imm & 0xffff) << 16) |
                  static_cast<uint32_t>(next->imm & 0xffff);
        u.aux = next->rt != inst.rt ? 1 : 0;  // rA outlives the pair
        fused = true;
      } else if ((inst.op == Op::kSlt || inst.op == Op::kSltu ||
                  inst.op == Op::kSlti || inst.op == Op::kSltiu) &&
                 (next->op == Op::kBeq || next->op == Op::kBne) &&
                 next->rt == 0) {
        const uint8_t dest =
            (inst.op == Op::kSlt || inst.op == Op::kSltu) ? inst.rd : inst.rt;
        if (dest != 0 && next->rs == dest) {
          // sltX d, ... ; beq/bne d, $zero  →  compare-and-branch.
          u.kind = kCmpBranch;
          u.inst2 = *next;
          u.aux = next->op == Op::kBne ? 1 : 0;
          fused = true;
          terminated = true;
        }
      } else if ((inst.op == Op::kAddi || inst.op == Op::kAddiu) &&
                 inst.rt != 0 && next->rs == inst.rt &&
                 (next->op == Op::kLw || next->op == Op::kSw)) {
        // addiu rA, rB, k ; lw/sw rX, off(rA)  →  addr-gen + access.
        u.kind = next->op == Op::kLw ? kAddrLw : kAddrSw;
        u.inst2 = *next;
        u.elide = dvalid[j] == 2 ? 1 : 0;  // the memory site's elision
        fused = true;
      }
    }

    if (fused) {
      blk->uops.push_back(u);
      ++blk->fused;
      blk->guest_len += 2;
      i += 2;
      cur += 8;
      continue;
    }

    if (is_terminator(inst.op)) {
      switch (inst.op) {
        case Op::kJ: u.kind = kJ; break;
        case Op::kJal: u.kind = kJal; break;
        case Op::kJr: u.kind = kJr; break;
        case Op::kJalr: u.kind = kJalr; break;
        case Op::kSyscall: u.kind = kSyscall; break;
        case Op::kBreak: u.kind = kBreak; break;
        default: u.kind = kBranch; break;
      }
      terminated = true;
    } else {
      switch (inst.op) {
        case Op::kSll: u.kind = kSllI; break;
        case Op::kSrl: u.kind = kSrlI; break;
        case Op::kSra: u.kind = kSraI; break;
        case Op::kSllv: u.kind = kSllvRR; break;
        case Op::kSrlv: u.kind = kSrlvRR; break;
        case Op::kSrav: u.kind = kSravRR; break;
        case Op::kAdd: case Op::kAddu: u.kind = kAddRR; break;
        case Op::kSub: case Op::kSubu: u.kind = kSubRR; break;
        case Op::kAnd: u.kind = kAndRR; break;
        case Op::kOr: u.kind = kOrRR; break;
        case Op::kXor: u.kind = kXorRR; break;
        case Op::kNor: u.kind = kNorRR; break;
        case Op::kSlt: u.kind = kSltRR; break;
        case Op::kSltu: u.kind = kSltuRR; break;
        case Op::kMult: case Op::kMultu: case Op::kDiv: case Op::kDivu:
        case Op::kMfhi: case Op::kMflo: case Op::kMthi: case Op::kMtlo:
        case Op::kTaintSet: case Op::kTaintClr:
          u.kind = kMulDiv;
          break;
        case Op::kAddi: case Op::kAddiu: u.kind = kAddI; break;
        case Op::kSlti: u.kind = kSltI; break;
        case Op::kSltiu: u.kind = kSltuI; break;
        case Op::kAndi: u.kind = kAndI; break;
        case Op::kOri: u.kind = kOrI; break;
        case Op::kXori: u.kind = kXorI; break;
        case Op::kLui:
          u.kind = kLui;
          u.value = static_cast<uint32_t>(inst.imm & 0xffff) << 16;
          break;
        case Op::kLw: u.kind = kLw; break;
        case Op::kLb: case Op::kLbu: case Op::kLh: case Op::kLhu:
          u.kind = kLoadOther;
          break;
        case Op::kSw: u.kind = kSw; break;
        case Op::kSb: case Op::kSh: u.kind = kStoreSmall; break;
        default: return nullptr;  // unreachable (kInvalid handled above)
      }
    }
    blk->uops.push_back(u);
    blk->guest_len += 1;
    i += 1;
    cur += 4;
  }

  if (blk->uops.empty()) return nullptr;
  if (!terminated) {
    MicroOp end;
    end.kind = kEnd;
    end.pc = cur;  // first PC not covered by this block
    blk->uops.push_back(end);
  }
  blk->byte_len = blk->guest_len * 4;

  Block* raw = blk.get();
  code.block_at[idx0] = raw;
  code.blocks.push_back(std::move(blk));
  ++stats_.blocks_translated;
  return raw;
}

// ---------------------------------------------------------------------------
// Cache maintenance
// ---------------------------------------------------------------------------

const SuperblockStats& SuperblockEngine::stats() const {
  stats_.blocks = cpu_.code_.blocks.size();
  stats_.guest_instructions = stats_.uops = stats_.fused_pairs = 0;
  for (const auto& blk : cpu_.code_.blocks) {
    stats_.guest_instructions += blk->guest_len;
    stats_.uops += blk->uops.size();
    stats_.fused_pairs += blk->fused;
  }
  return stats_;
}

void SuperblockEngine::reset() {
  ++gen_;
  CodeImage& code = cpu_.code_;
  code.blocks.clear();
  std::fill(code.block_at.begin(), code.block_at.end(), nullptr);
  graveyard_.clear();
  // Every translation is gone, so no compiled body can be mid-execution:
  // the only safe point to rewind the code arena.
  if (jit_ != nullptr) jit_->on_reset();
}

void SuperblockEngine::on_switch(CodeImage& outgoing) {
  ++gen_;  // chain memos are only ever taken within one image
  graveyard_.clear();  // between runs: nothing in it can be executing
  if (jit_ == nullptr || cpu_.engine_ != Engine::kJit) return;
  // Host code lives in the one arena, rewound here; the outgoing image
  // keeps its decodes and bitmaps but not translations that point into it.
  outgoing.blocks.clear();
  std::fill(outgoing.block_at.begin(), outgoing.block_at.end(), nullptr);
  jit_->on_reset();
}

void SuperblockEngine::flush_all() {
  CodeImage& code = cpu_.code_;
  if (code.blocks.empty()) return;
  ++gen_;
  for (auto& blk : code.blocks) {
    blk->retired = true;
    if (blk->host != nullptr && jit_ != nullptr) jit_->note_block_dropped(*blk);
    graveyard_.push_back(std::move(blk));
  }
  code.blocks.clear();
  std::fill(code.block_at.begin(), code.block_at.end(), nullptr);
}

void SuperblockEngine::on_invalidate(uint32_t addr, uint32_t len) {
  CodeImage& code = cpu_.code_;
  if (code.blocks.empty() || len == 0) return;
  ++gen_;  // conservatively drops every chain memo, hit or not
  const uint32_t lo = addr;
  const uint32_t hi = addr + len;
  for (size_t i = 0; i < code.blocks.size();) {
    Block* blk = code.blocks[i].get();
    if (blk->entry_pc < hi && blk->entry_pc + blk->byte_len > lo) {
      blk->retired = true;
      if (blk->host != nullptr && jit_ != nullptr) jit_->note_block_dropped(*blk);
      code.block_at[(blk->entry_pc - cpu_.text_begin_) / 4] = nullptr;
      ++stats_.invalidations;
      // Keep the storage alive until the dispatch loop is between blocks:
      // the store that triggered this invalidation may live in `blk`.
      graveyard_.push_back(std::move(code.blocks[i]));
      code.blocks[i] = std::move(code.blocks.back());
      code.blocks.pop_back();
    } else {
      ++i;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispatch loop
// ---------------------------------------------------------------------------

// Computed-goto threaded dispatch on GCC/Clang; a plain switch elsewhere
// (or with -DPTAINT_NO_COMPUTED_GOTO, which CI uses to keep the fallback
// compiling).  Handlers are written once and shared by both forms.
#if defined(__GNUC__) && !defined(PTAINT_NO_COMPUTED_GOTO)
#define PTAINT_THREADED_DISPATCH 1
#else
#define PTAINT_THREADED_DISPATCH 0
#endif

void SuperblockEngine::exec_block(Block& blk, uint64_t budget) {
  Cpu& c = cpu_;
  mem::RegisterFile& regs = c.regs_;
  CpuStats& st = c.stats_;
  Block* cur = &blk;
  const uint64_t entry_insts = st.instructions;
  TaintUnit::Stats& tu = c.taint_unit_.stats_ref();
  const TaintPolicy& policy = c.policy_;
  const MicroOp* u = blk.uops.data();

#if PTAINT_THREADED_DISPATCH
  // Order must match Kind exactly.
  static const void* const kLabels[kNumKinds] = {
      &&h_End, &&h_Lui,
      &&h_AddRR, &&h_SubRR, &&h_OrRR, &&h_NorRR, &&h_XorRR, &&h_AndRR,
      &&h_SltRR, &&h_SltuRR,
      &&h_SllI, &&h_SrlI, &&h_SraI, &&h_SllvRR, &&h_SrlvRR, &&h_SravRR,
      &&h_AddI, &&h_OrI, &&h_XorI, &&h_AndI, &&h_SltI, &&h_SltuI,
      &&h_MulDiv,
      &&h_Lw, &&h_LoadOther,
      &&h_Sw, &&h_StoreSmall,
      &&h_LuiOri, &&h_AddrLw, &&h_AddrSw,
      &&h_Branch, &&h_CmpBranch, &&h_J, &&h_Jal, &&h_Jr, &&h_Jalr,
      &&h_Syscall, &&h_Break,
  };
#define OP(name) h_##name:
#define NEXT()                 \
  do {                         \
    ++u;                       \
    goto* kLabels[u->kind];    \
  } while (0)
  goto* kLabels[u->kind];
#else
#define OP(name) case k##name:
#define NEXT()                 \
  do {                         \
    ++u;                       \
    goto dispatch_top;         \
  } while (0)
dispatch_top:
  switch (u->kind) {
#endif

  // -- block fall-off (leader boundary / size cap) --------------------------
  OP(End) {
    c.pc_ = u->pc;
    goto chain_next;
  }

  OP(Lui) {
    // Mirrors step(): a constant landing in the executable range carries
    // text provenance (`la label` expands to LUI/ORI of a code address).
    const mem::TaintBits lt =
        c.text_begin_ != 0 && u->value >= c.text_begin_ &&
                u->value < c.text_end_
            ? mem::kTextAddrMask
            : mem::kUntainted;
    regs.set(u->inst.rt, TaintedWord{u->value, lt});
    ++st.alu_ops;
    ++st.instructions;
    NEXT();
  }

  // -- three-register ALU (default Table 1 class: or-merge) -----------------
  // Fast path when both inputs are untainted: propagate() would return an
  // untainted or-merge, bumping only `evaluations` — reproduced inline.
#define ALU_RR(name, vexpr)                    \
  OP(name) {                                   \
    const Instruction& in = u->inst;           \
    const TaintedWord a = regs.get(in.rs);     \
    const TaintedWord b2 = regs.get(in.rt);    \
    const uint32_t v = (vexpr);                \
    if ((a.taint | b2.taint) == 0) {           \
      ++tu.evaluations;                        \
      regs.set(in.rd, TaintedWord{v});         \
    } else {                                   \
      c.alu_write(in, in.rd, v, a, b2, false); \
    }                                          \
    ++st.alu_ops;                              \
    ++st.instructions;                         \
    NEXT();                                    \
  }

  ALU_RR(AddRR, a.value + b2.value)
  ALU_RR(SubRR, a.value - b2.value)
  ALU_RR(OrRR, a.value | b2.value)
  ALU_RR(NorRR, ~(a.value | b2.value))
#undef ALU_RR

  // xor/and/slt classes bump their policy counters even for untainted
  // inputs (propagate counts rule applications, not rule effects), so the
  // fast paths replicate those bumps; the register untainting they imply
  // is a no-op on untainted registers.
  OP(XorRR) {
    const Instruction& in = u->inst;
    const TaintedWord a = regs.get(in.rs);
    const TaintedWord b2 = regs.get(in.rt);
    const uint32_t v = a.value ^ b2.value;
    if ((a.taint | b2.taint) == 0) {
      ++tu.evaluations;
      if (in.rs == in.rt && policy.xor_self_untaints) ++tu.xor_self_untaints;
      regs.set(in.rd, TaintedWord{v});
    } else {
      c.alu_write(in, in.rd, v, a, b2, false);
    }
    ++st.alu_ops;
    ++st.instructions;
    NEXT();
  }

  OP(AndRR) {
    const Instruction& in = u->inst;
    const TaintedWord a = regs.get(in.rs);
    const TaintedWord b2 = regs.get(in.rt);
    const uint32_t v = a.value & b2.value;
    if ((a.taint | b2.taint) == 0) {
      ++tu.evaluations;
      if (policy.and_zero_untaints) ++tu.and_zero_untaints;
      regs.set(in.rd, TaintedWord{v});
    } else {
      c.alu_write(in, in.rd, v, a, b2, false);
    }
    ++st.alu_ops;
    ++st.instructions;
    NEXT();
  }

#define ALU_CMP_RR(name, vexpr)                \
  OP(name) {                                   \
    const Instruction& in = u->inst;           \
    const TaintedWord a = regs.get(in.rs);     \
    const TaintedWord b2 = regs.get(in.rt);    \
    const uint32_t v = (vexpr);                \
    if ((a.taint | b2.taint) == 0) {           \
      ++tu.evaluations;                        \
      if (policy.compare_untaints) {           \
        ++tu.compare_untaints;                 \
        ++st.compare_untaints;                 \
      }                                        \
      regs.set(in.rd, TaintedWord{v});         \
    } else {                                   \
      c.alu_write(in, in.rd, v, a, b2, false); \
    }                                          \
    ++st.alu_ops;                              \
    ++st.instructions;                         \
    NEXT();                                    \
  }

  ALU_CMP_RR(SltRR, static_cast<int32_t>(a.value) < static_cast<int32_t>(
                                                        b2.value)
                        ? 1
                        : 0)
  ALU_CMP_RR(SltuRR, a.value < b2.value ? 1 : 0)
#undef ALU_CMP_RR

  // -- shifts (smear(0) == 0, so the untainted fast path is exact) ----------
#define ALU_SHIFT_I(name, vexpr)                                \
  OP(name) {                                                    \
    const Instruction& in = u->inst;                            \
    const TaintedWord a = regs.get(in.rt);                      \
    const uint32_t v = (vexpr);                                 \
    if (a.taint == 0) {                                         \
      ++tu.evaluations;                                         \
      regs.set(in.rd, TaintedWord{v});                          \
    } else {                                                    \
      c.alu_write(in, in.rd, v, a, TaintedWord{in.shamt}, true); \
    }                                                           \
    ++st.alu_ops;                                               \
    ++st.instructions;                                          \
    NEXT();                                                     \
  }

  ALU_SHIFT_I(SllI, a.value << in.shamt)
  ALU_SHIFT_I(SrlI, a.value >> in.shamt)
  ALU_SHIFT_I(SraI, static_cast<uint32_t>(static_cast<int32_t>(a.value) >>
                                          in.shamt))
#undef ALU_SHIFT_I

#define ALU_SHIFT_V(name, vexpr)               \
  OP(name) {                                   \
    const Instruction& in = u->inst;           \
    const TaintedWord a = regs.get(in.rt);     \
    const TaintedWord b2 = regs.get(in.rs);    \
    const uint32_t v = (vexpr);                \
    if ((a.taint | b2.taint) == 0) {           \
      ++tu.evaluations;                        \
      regs.set(in.rd, TaintedWord{v});         \
    } else {                                   \
      c.alu_write(in, in.rd, v, a, b2, false); \
    }                                          \
    ++st.alu_ops;                              \
    ++st.instructions;                         \
    NEXT();                                    \
  }

  ALU_SHIFT_V(SllvRR, a.value << (b2.value & 31))
  ALU_SHIFT_V(SrlvRR, a.value >> (b2.value & 31))
  ALU_SHIFT_V(SravRR, static_cast<uint32_t>(static_cast<int32_t>(a.value) >>
                                            (b2.value & 31)))
#undef ALU_SHIFT_V

  // -- immediate ALU --------------------------------------------------------
#define ALU_IMM(name, vexpr, bexpr)                                   \
  OP(name) {                                                          \
    const Instruction& in = u->inst;                                  \
    const TaintedWord a = regs.get(in.rs);                            \
    const uint32_t v = (vexpr);                                       \
    if (a.taint == 0) {                                               \
      ++tu.evaluations;                                               \
      regs.set(in.rt, TaintedWord{v});                                \
    } else {                                                          \
      c.alu_write(in, in.rt, v, a, TaintedWord{(bexpr)}, true);       \
    }                                                                 \
    ++st.alu_ops;                                                     \
    ++st.instructions;                                                \
    NEXT();                                                           \
  }

  ALU_IMM(AddI, a.value + static_cast<uint32_t>(in.imm),
          static_cast<uint32_t>(in.imm))
  ALU_IMM(OrI, a.value | (in.imm & 0xffff),
          static_cast<uint32_t>(in.imm & 0xffff))
  ALU_IMM(XorI, a.value ^ (in.imm & 0xffff),
          static_cast<uint32_t>(in.imm & 0xffff))
#undef ALU_IMM

  OP(AndI) {
    const Instruction& in = u->inst;
    const TaintedWord a = regs.get(in.rs);
    const uint32_t v = a.value & (in.imm & 0xffff);
    if (a.taint == 0) {
      ++tu.evaluations;
      if (policy.and_zero_untaints) ++tu.and_zero_untaints;
      regs.set(in.rt, TaintedWord{v});
    } else {
      c.alu_write(in, in.rt, v, a,
                  TaintedWord{static_cast<uint32_t>(in.imm & 0xffff)}, true);
    }
    ++st.alu_ops;
    ++st.instructions;
    NEXT();
  }

#define ALU_CMP_I(name, vexpr)                                           \
  OP(name) {                                                             \
    const Instruction& in = u->inst;                                     \
    const TaintedWord a = regs.get(in.rs);                               \
    const uint32_t v = (vexpr);                                          \
    if (a.taint == 0) {                                                  \
      ++tu.evaluations;                                                  \
      if (policy.compare_untaints) {                                     \
        ++tu.compare_untaints;                                           \
        ++st.compare_untaints;                                           \
      }                                                                  \
      regs.set(in.rt, TaintedWord{v});                                   \
    } else {                                                             \
      c.alu_write(in, in.rt, v, a,                                       \
                  TaintedWord{static_cast<uint32_t>(in.imm)}, true);     \
    }                                                                    \
    ++st.alu_ops;                                                        \
    ++st.instructions;                                                   \
    NEXT();                                                              \
  }

  ALU_CMP_I(SltI, static_cast<int32_t>(a.value) < in.imm ? 1 : 0)
  ALU_CMP_I(SltuI, a.value < static_cast<uint32_t>(in.imm) ? 1 : 0)
#undef ALU_CMP_I

  // -- multiply/divide/hi-lo/taint primitives (no propagate in execute) -----
  OP(MulDiv) {
    const Instruction& in = u->inst;
    const TaintedWord a = regs.get(in.rs);
    const TaintedWord b2 = regs.get(in.rt);
    switch (in.op) {
      case Op::kMult: {
        const int64_t p =
            static_cast<int64_t>(static_cast<int32_t>(a.value)) *
            static_cast<int64_t>(static_cast<int32_t>(b2.value));
        const auto t = static_cast<mem::TaintBits>(a.taint | b2.taint);
        regs.set_lo(TaintedWord{static_cast<uint32_t>(p), t});
        regs.set_hi(TaintedWord{static_cast<uint32_t>(p >> 32), t});
        break;
      }
      case Op::kMultu: {
        const uint64_t p = static_cast<uint64_t>(a.value) *
                           static_cast<uint64_t>(b2.value);
        const auto t = static_cast<mem::TaintBits>(a.taint | b2.taint);
        regs.set_lo(TaintedWord{static_cast<uint32_t>(p), t});
        regs.set_hi(TaintedWord{static_cast<uint32_t>(p >> 32), t});
        break;
      }
      case Op::kDiv: {
        const auto [q, r] = signed_divide(a.value, b2.value);
        const auto t = static_cast<mem::TaintBits>(a.taint | b2.taint);
        regs.set_lo(TaintedWord{q, t});
        regs.set_hi(TaintedWord{r, t});
        break;
      }
      case Op::kDivu: {
        const auto t = static_cast<mem::TaintBits>(a.taint | b2.taint);
        if (b2.value == 0) {
          regs.set_lo(TaintedWord{0, t});
          regs.set_hi(TaintedWord{0, t});
        } else {
          regs.set_lo(TaintedWord{a.value / b2.value, t});
          regs.set_hi(TaintedWord{a.value % b2.value, t});
        }
        break;
      }
      case Op::kMfhi: regs.set(in.rd, regs.hi()); break;
      case Op::kMflo: regs.set(in.rd, regs.lo()); break;
      case Op::kMthi: regs.set_hi(a); break;
      case Op::kMtlo: regs.set_lo(a); break;
      case Op::kTaintSet:
        regs.set(in.rd,
                 TaintedWord{a.value, static_cast<mem::TaintBits>(
                                          mem::kAllTainted |
                                          (a.taint & mem::kAddrMask))});
        break;
      default:  // kTaintClr
        regs.set(in.rd, TaintedWord{a.value, mem::kUntainted});
        break;
    }
    ++st.alu_ops;
    ++st.instructions;
    NEXT();
  }

  // -- loads ----------------------------------------------------------------
  // detect_pointer() is a pure predicate when the base is untainted, so
  // gating the call on base.tainted() is observation-equivalent.
  OP(Lw) {
    const Instruction& in = u->inst;
    c.pc_ = u->pc;
    const TaintedWord base = regs.get(in.rs);
    const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
    ++st.loads;
    if (u->elide == 0 && base.tainted() &&
        c.detect_pointer(in, in.rs, base, AlertKind::kTaintedLoadAddress)) {
      return;
    }
    if (ea % 4 != 0) {
      c.fault("misaligned lw");
      return;
    }
    TaintedWord result = c.memory_.load_word(ea);
    if (policy.per_word_taint) {
      result.taint = mem::widen_planes(result.taint);
    }
    if (result.tainted()) ++st.tainted_loads;
    regs.set(in.rt, result);
    ++st.instructions;
    NEXT();
  }

  OP(LoadOther) {
    const Instruction& in = u->inst;
    c.pc_ = u->pc;
    const TaintedWord base = regs.get(in.rs);
    const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
    ++st.loads;
    if (u->elide == 0 && base.tainted() &&
        c.detect_pointer(in, in.rs, base, AlertKind::kTaintedLoadAddress)) {
      return;
    }
    TaintedWord result;
    if (in.op == Op::kLh || in.op == Op::kLhu) {
      if (ea % 2 != 0) {
        c.fault("misaligned lh");
        return;
      }
      const TaintedWord half = c.memory_.load_half(ea);
      if (in.op == Op::kLh) {
        result.value =
            static_cast<uint32_t>(static_cast<int16_t>(half.value & 0xffff));
        result.taint = mem::widen_planes(half.taint);
      } else {
        result = half;
      }
    } else {
      const mem::TaintedByte b = c.memory_.load_byte(ea);
      if (in.op == Op::kLb) {
        result.value = static_cast<uint32_t>(static_cast<int8_t>(b.value));
        result.taint = mem::widen_planes(mem::planes_to_word(b.planes, 0));
      } else {
        result.value = b.value;
        result.taint = mem::planes_to_word(b.planes, 0);
      }
    }
    if (policy.per_word_taint) {
      result.taint = mem::widen_planes(result.taint);
    }
    if (result.tainted()) ++st.tainted_loads;
    regs.set(in.rt, result);
    ++st.instructions;
    NEXT();
  }

  // -- stores ---------------------------------------------------------------
  // A store into text retires every overlapping block, possibly this one;
  // the storage stays alive in the graveyard, so after retiring the guest
  // instruction we abort the block with the next PC and re-enter through
  // fresh translation (self-modifying code executes its current bytes).
  OP(Sw) {
    const Instruction& in = u->inst;
    c.pc_ = u->pc;
    const TaintedWord base = regs.get(in.rs);
    const TaintedWord val = regs.get(in.rt);
    const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
    ++st.stores;
    if (u->elide == 0 && base.tainted() &&
        c.detect_pointer(in, in.rs, base, AlertKind::kTaintedStoreAddress)) {
      return;
    }
    const TaintedWord stored{val.value, val.taint};
    if (c.detect_annotation(in, ea, 4, stored)) return;
    if (val.tainted()) ++st.tainted_stores;
    if (ea < c.text_end_ && ea + 4 > c.text_begin_) {
      c.invalidate_decode_range(ea, 4);
    }
    if (ea % 4 != 0) {
      c.fault("misaligned sw");
      return;
    }
    c.memory_.store_word(ea, val);
    ++st.instructions;
    if (cur->retired) {
      c.pc_ = u->pc + 4;
      return;
    }
    NEXT();
  }

  OP(StoreSmall) {
    const Instruction& in = u->inst;
    c.pc_ = u->pc;
    const TaintedWord base = regs.get(in.rs);
    const TaintedWord val = regs.get(in.rt);
    const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
    ++st.stores;
    if (u->elide == 0 && base.tainted() &&
        c.detect_pointer(in, in.rs, base, AlertKind::kTaintedStoreAddress)) {
      return;
    }
    const uint32_t len = in.op == Op::kSh ? 2 : 1;
    const TaintedWord stored{
        val.value, static_cast<mem::TaintBits>(
                       val.taint & (((1u << len) - 1) * 0x1111u))};
    if (c.detect_annotation(in, ea, len, stored)) return;
    if (val.tainted()) ++st.tainted_stores;
    if (ea < c.text_end_ && ea + len > c.text_begin_) {
      c.invalidate_decode_range(ea, len);
    }
    if (in.op == Op::kSh) {
      if (ea % 2 != 0) {
        c.fault("misaligned sh");
        return;
      }
      c.memory_.store_half(ea, val);
    } else {
      c.memory_.store_byte(ea, {static_cast<uint8_t>(val.value),
                                mem::byte_planes(val.taint, 0)});
    }
    ++st.instructions;
    if (cur->retired) {
      c.pc_ = u->pc + 4;
      return;
    }
    NEXT();
  }

  // -- fused pairs ----------------------------------------------------------
  OP(LuiOri) {
    // The lui half seeds text provenance from its OWN value (the fused
    // constant's low half comes from the ori and must not affect the
    // in-text test — step() checks `imm << 16` alone).  The ori or-merges
    // that provenance into the fused constant; its data planes stay clean,
    // so the single evaluation bump matches propagate() exactly.
    const Instruction& in = u->inst;
    const uint32_t lui_v = static_cast<uint32_t>(in.imm & 0xffff) << 16;
    const mem::TaintBits lt =
        c.text_begin_ != 0 && lui_v >= c.text_begin_ && lui_v < c.text_end_
            ? mem::kTextAddrMask
            : mem::kUntainted;
    if (u->aux) {
      regs.set(in.rt, TaintedWord{lui_v, lt});
    }
    ++tu.evaluations;
    regs.set(u->inst2.rt, TaintedWord{u->value, lt});
    st.alu_ops += 2;
    st.instructions += 2;
    NEXT();
  }

  OP(AddrLw) {
    const Instruction& ai = u->inst;
    const Instruction& li = u->inst2;
    const TaintedWord a = regs.get(ai.rs);
    const uint32_t av = a.value + static_cast<uint32_t>(ai.imm);
    TaintedWord base;
    if (a.taint == 0) {
      ++tu.evaluations;
      base = TaintedWord{av};
      regs.set(ai.rt, base);
    } else {
      c.alu_write(ai, ai.rt, av, a,
                  TaintedWord{static_cast<uint32_t>(ai.imm)}, true);
      base = regs.get(ai.rt);  // re-read: granularity may have widened taint
    }
    ++st.alu_ops;
    ++st.instructions;
    c.pc_ = u->pc + 4;  // the load's own PC, for alerts and faults
    const uint32_t ea = base.value + static_cast<uint32_t>(li.imm);
    ++st.loads;
    if (u->elide == 0 && base.tainted() &&
        c.detect_pointer(li, li.rs, base, AlertKind::kTaintedLoadAddress)) {
      return;
    }
    if (ea % 4 != 0) {
      c.fault("misaligned lw");
      return;
    }
    TaintedWord result = c.memory_.load_word(ea);
    if (policy.per_word_taint) {
      result.taint = mem::widen_planes(result.taint);
    }
    if (result.tainted()) ++st.tainted_loads;
    regs.set(li.rt, result);
    ++st.instructions;
    NEXT();
  }

  OP(AddrSw) {
    const Instruction& ai = u->inst;
    const Instruction& si = u->inst2;
    const TaintedWord a = regs.get(ai.rs);
    const uint32_t av = a.value + static_cast<uint32_t>(ai.imm);
    TaintedWord base;
    if (a.taint == 0) {
      ++tu.evaluations;
      base = TaintedWord{av};
      regs.set(ai.rt, base);
    } else {
      c.alu_write(ai, ai.rt, av, a,
                  TaintedWord{static_cast<uint32_t>(ai.imm)}, true);
      base = regs.get(ai.rt);
    }
    ++st.alu_ops;
    ++st.instructions;
    c.pc_ = u->pc + 4;
    const TaintedWord val = regs.get(si.rt);
    const uint32_t ea = base.value + static_cast<uint32_t>(si.imm);
    ++st.stores;
    if (u->elide == 0 && base.tainted() &&
        c.detect_pointer(si, si.rs, base, AlertKind::kTaintedStoreAddress)) {
      return;
    }
    const TaintedWord stored{val.value, val.taint};
    if (c.detect_annotation(si, ea, 4, stored)) return;
    if (val.tainted()) ++st.tainted_stores;
    if (ea < c.text_end_ && ea + 4 > c.text_begin_) {
      c.invalidate_decode_range(ea, 4);
    }
    if (ea % 4 != 0) {
      c.fault("misaligned sw");
      return;
    }
    c.memory_.store_word(ea, val);
    ++st.instructions;
    if (cur->retired) {
      c.pc_ = u->pc + 8;
      return;
    }
    NEXT();
  }

  // -- terminators ----------------------------------------------------------
  OP(Branch) {
    const Instruction& in = u->inst;
    const TaintedWord a = regs.get(in.rs);
    const TaintedWord b2 = regs.get(in.rt);
    ++st.branches;
    const auto sval = static_cast<int32_t>(a.value);
    bool taken = false;
    switch (in.op) {
      case Op::kBeq: taken = a.value == b2.value; break;
      case Op::kBne: taken = a.value != b2.value; break;
      case Op::kBlez: taken = sval <= 0; break;
      case Op::kBgtz: taken = sval > 0; break;
      case Op::kBltz: case Op::kBltzal: taken = sval < 0; break;
      default: taken = sval >= 0; break;
    }
    if (in.op == Op::kBltzal || in.op == Op::kBgezal) {
      regs.set(isa::kRa, TaintedWord{u->pc + 4, mem::kTextAddrMask});
    }
    if (policy.compare_untaints &&
        (a.tainted() || regs.get(in.rt).tainted())) {
      regs.untaint(in.rs);
      if (in.op == Op::kBeq || in.op == Op::kBne) regs.untaint(in.rt);
      ++st.compare_untaints;
    }
    if (taken) {
      c.pc_ = u->pc + 4 + (static_cast<uint32_t>(in.imm) << 2);
      ++st.taken_branches;
    } else {
      c.pc_ = u->pc + 4;
    }
    ++st.instructions;
    goto chain_next;
  }

  OP(CmpBranch) {
    const Instruction& ci = u->inst;
    const Instruction& bi = u->inst2;
    const TaintedWord a = regs.get(ci.rs);
    TaintedWord b2;
    bool b_imm = false;
    uint8_t dest = 0;
    uint32_t v = 0;
    switch (ci.op) {
      case Op::kSlt:
        b2 = regs.get(ci.rt);
        dest = ci.rd;
        v = static_cast<int32_t>(a.value) < static_cast<int32_t>(b2.value)
                ? 1
                : 0;
        break;
      case Op::kSltu:
        b2 = regs.get(ci.rt);
        dest = ci.rd;
        v = a.value < b2.value ? 1 : 0;
        break;
      case Op::kSlti:
        b2 = TaintedWord{static_cast<uint32_t>(ci.imm)};
        b_imm = true;
        dest = ci.rt;
        v = static_cast<int32_t>(a.value) < ci.imm ? 1 : 0;
        break;
      default:  // kSltiu
        b2 = TaintedWord{static_cast<uint32_t>(ci.imm)};
        b_imm = true;
        dest = ci.rt;
        v = a.value < static_cast<uint32_t>(ci.imm) ? 1 : 0;
        break;
    }
    if ((a.taint | b2.taint) == 0) {
      ++tu.evaluations;
      if (policy.compare_untaints) {
        ++tu.compare_untaints;
        ++st.compare_untaints;
      }
      regs.set(dest, TaintedWord{v});
    } else {
      c.alu_write(ci, dest, v, a, b2, b_imm);
    }
    ++st.alu_ops;
    ++st.instructions;
    // Branch half: beq/bne dest, $zero.  The branch-side compare-untaint
    // rule can never fire here — with the policy on the compare just left
    // `dest` untainted, with it off the rule is gated — so only the
    // condition and the counters remain.
    ++st.branches;
    const uint32_t cv = regs.get(bi.rs).value;
    const bool taken = u->aux ? cv != 0 : cv == 0;
    if (taken) {
      c.pc_ = u->pc + 8 + (static_cast<uint32_t>(bi.imm) << 2);
      ++st.taken_branches;
    } else {
      c.pc_ = u->pc + 8;
    }
    ++st.instructions;
    goto chain_next;
  }

  OP(J) {
    ++st.jumps;
    ++st.instructions;
    c.pc_ = u->inst.target;
    goto chain_next;
  }

  OP(Jal) {
    regs.set(isa::kRa, TaintedWord{u->pc + 4, mem::kTextAddrMask});
    ++st.jumps;
    ++st.instructions;
    c.pc_ = u->inst.target;
    goto chain_next;
  }

  OP(Jr) {
    const Instruction& in = u->inst;
    c.pc_ = u->pc;
    const TaintedWord a = regs.get(in.rs);
    ++st.jumps;
    if (u->elide == 0 && a.tainted() &&
        c.detect_pointer(in, in.rs, a, AlertKind::kTaintedJumpTarget)) {
      return;
    }
    ++st.instructions;
    c.pc_ = a.value;
    goto chain_next;
  }

  OP(Jalr) {
    const Instruction& in = u->inst;
    c.pc_ = u->pc;
    const TaintedWord a = regs.get(in.rs);
    ++st.jumps;
    if (u->elide == 0 && a.tainted() &&
        c.detect_pointer(in, in.rs, a, AlertKind::kTaintedJumpTarget)) {
      return;
    }
    regs.set(in.rd, TaintedWord{u->pc + 4, mem::kTextAddrMask});
    ++st.instructions;
    c.pc_ = a.value;
    goto chain_next;
  }

  OP(Syscall) {
    c.pc_ = u->pc;
    ++st.syscalls;
    if (c.os_ == nullptr) {
      c.fault("syscall without an OS");
      return;
    }
    c.os_->syscall(c);
    ++st.instructions;
    if (c.stop_ != StopReason::kRunning) return;  // pc stays at the syscall
    c.pc_ = u->pc + 4;
    return;
  }

  OP(Break) {
    c.pc_ = u->pc;
    c.stop_ = StopReason::kBreak;
    ++st.instructions;
    return;
  }

#if !PTAINT_THREADED_DISPATCH
    default:
      c.pc_ = u->pc;
      return;  // unreachable: translate() emits only known kinds
  }
#endif

  // Block exit with the machine still running: dispatch straight into the
  // successor block when it is cached (translating on a miss keeps hot
  // loops inside the chain) and fits the remaining budget.  Anything
  // irregular — off-text target, budget tail, invalid entry — returns to
  // advance(), whose step() fallback has reference semantics.  Blocks this
  // one invalidated are nulled in block_at before we get here, so a chain
  // can never enter stale translations; a self-invalidated block returns
  // through its store handler instead (cur->retired).
chain_next: {
  const uint64_t retired = st.instructions - entry_insts;
  if (retired >= budget) return;
  const uint32_t npc = c.pc_;
  Block* next;
  if (cur->succ_pc == npc && cur->succ_gen == gen_) {
    next = cur->succ;  // memo hit: loops take this path every iteration
  } else {
    if (npc % 4 != 0 || npc < c.text_begin_) return;
    const uint32_t idx = (npc - c.text_begin_) / 4;
    if (idx >= c.code_.block_at.size()) return;
    next = c.code_.block_at[idx];
    if (next == nullptr) {
      next = translate(npc, idx);
      if (next == nullptr) return;
    }
    cur->succ = next;
    cur->succ_pc = npc;
    cur->succ_gen = gen_;
  }
  if (next->guest_len > budget - retired) return;
  cur = next;
  ++stats_.blocks_entered;
  u = cur->uops.data();
#if PTAINT_THREADED_DISPATCH
  goto* kLabels[u->kind];
#else
  goto dispatch_top;
#endif
}
#undef OP
#undef NEXT
}

// ---------------------------------------------------------------------------
// Budget loop
// ---------------------------------------------------------------------------

StopReason SuperblockEngine::advance(uint64_t n) {
  Cpu& c = cpu_;
  if (jit_ != nullptr && c.engine_ == Engine::kJit) return jit_->advance(n);
  uint64_t remaining = n;
  while (remaining > 0 && c.stop_ == StopReason::kRunning) {
    Block* blk = nullptr;
    const uint32_t pc = c.pc_;
    if (pc % 4 == 0 && pc >= c.text_begin_) {
      const uint32_t idx = (pc - c.text_begin_) / 4;
      if (idx < c.code_.block_at.size()) {
        blk = c.code_.block_at[idx];
        if (blk == nullptr) blk = translate(pc, idx);
      }
    }
    if (blk == nullptr || blk->guest_len > remaining) {
      // step() handles every irregular case with reference semantics:
      // misaligned/off-text fetch (NX), invalid encodings, and the budget
      // tail where the next block is longer than what remains.
      const uint64_t before = c.stats_.instructions;
      c.step();
      stats_.step_retired += c.stats_.instructions - before;
      --remaining;
      continue;
    }
    const uint64_t before = c.stats_.instructions;
    ++stats_.blocks_entered;
    exec_block(*blk, remaining);
    const uint64_t retired = c.stats_.instructions - before;
    stats_.block_retired += retired;
    remaining -= retired;
    // Blocks invalidated while executing (self-modifying code, kernel
    // copies into text) are parked in the graveyard; now that dispatch is
    // between blocks their storage can go.
    if (!graveyard_.empty()) graveyard_.clear();
  }
  return c.stop_;
}

}  // namespace ptaint::cpu
