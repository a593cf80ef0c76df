#include "cpu/jit/jit_runtime.hpp"

#include "cpu/cpu.hpp"
#include "cpu/jit/jit_engine.hpp"  // completes JitEngine for superblock.hpp

namespace ptaint::cpu {

using isa::Instruction;
using isa::Op;
using mem::TaintedWord;

namespace {
using SB = SuperblockEngine;
}  // namespace

// ---------------------------------------------------------------------------
// Mid-block ALU (one helper for every non-memory ALU kind)
// ---------------------------------------------------------------------------

void JitRuntime::alu_slow(Cpu* c, const MicroOp* u, uint32_t v) {
  mem::RegisterFile& regs = c->regs_;
  TaintUnit::Stats& tu = c->taint_unit_.stats_ref();
  const TaintPolicy& policy = c->policy_;
  const Instruction& in = u->inst;

  // Cancel this micro-op's fast-path constants (see jit_runtime.hpp); the
  // propagate() call below re-bumps the true amounts.  alu_ops/instructions
  // stay with the block flush — neither path below touches them.
  --tu.evaluations;

  TaintedWord a;
  TaintedWord b;
  bool b_imm = false;
  uint8_t dest = in.rd;
  switch (u->kind) {
    case SB::kAddRR: case SB::kSubRR: case SB::kOrRR: case SB::kNorRR:
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kXorRR:
      if (in.rs == in.rt && policy.xor_self_untaints) --tu.xor_self_untaints;
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kAndRR:
      if (policy.and_zero_untaints) --tu.and_zero_untaints;
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kSltRR: case SB::kSltuRR:
      if (policy.compare_untaints) {
        --tu.compare_untaints;
        --c->stats_.compare_untaints;
      }
      a = regs.get(in.rs);
      b = regs.get(in.rt);
      break;
    case SB::kSllI: case SB::kSrlI: case SB::kSraI:
      a = regs.get(in.rt);
      b = TaintedWord{in.shamt};
      b_imm = true;
      break;
    case SB::kSllvRR: case SB::kSrlvRR: case SB::kSravRR:
      a = regs.get(in.rt);
      b = regs.get(in.rs);
      break;
    case SB::kAddI:
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm)};
      b_imm = true;
      dest = in.rt;
      break;
    case SB::kOrI: case SB::kXorI:
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm & 0xffff)};
      b_imm = true;
      dest = in.rt;
      break;
    case SB::kAndI:
      if (policy.and_zero_untaints) --tu.and_zero_untaints;
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm & 0xffff)};
      b_imm = true;
      dest = in.rt;
      break;
    default:  // kSltI / kSltuI
      if (policy.compare_untaints) {
        --tu.compare_untaints;
        --c->stats_.compare_untaints;
      }
      a = regs.get(in.rs);
      b = TaintedWord{static_cast<uint32_t>(in.imm)};
      b_imm = true;
      dest = in.rt;
      break;
  }
  c->alu_write(in, dest, v, a, b, b_imm);
}

// ---------------------------------------------------------------------------
// Mid-block loads
// ---------------------------------------------------------------------------

uint64_t JitRuntime::lw_slow(Cpu* c, const MicroOp* u) {
  CpuStats& st = c->stats_;
  --st.loads;
  --st.instructions;

  const Instruction& in = u->inst;
  c->pc_ = u->pc;
  const TaintedWord base = c->regs_.get(in.rs);
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.loads;
  if (u->elide == 0 && base.tainted() &&
      c->detect_pointer(in, in.rs, base, AlertKind::kTaintedLoadAddress)) {
    return 1;
  }
  if (ea % 4 != 0) {
    c->fault("misaligned lw");
    return 1;
  }
  TaintedWord result = c->memory_.load_word(ea);
  if (c->policy_.per_word_taint) {
    result.taint = mem::widen_planes(result.taint);
  }
  if (result.tainted()) ++st.tainted_loads;
  c->regs_.set(in.rt, result);
  ++st.instructions;
  return 0;
}

uint64_t JitRuntime::load_other_slow(Cpu* c, const MicroOp* u) {
  CpuStats& st = c->stats_;
  --st.loads;
  --st.instructions;

  const Instruction& in = u->inst;
  c->pc_ = u->pc;
  const TaintedWord base = c->regs_.get(in.rs);
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.loads;
  if (u->elide == 0 && base.tainted() &&
      c->detect_pointer(in, in.rs, base, AlertKind::kTaintedLoadAddress)) {
    return 1;
  }
  TaintedWord result;
  if (in.op == Op::kLh || in.op == Op::kLhu) {
    if (ea % 2 != 0) {
      c->fault("misaligned lh");
      return 1;
    }
    const TaintedWord half = c->memory_.load_half(ea);
    if (in.op == Op::kLh) {
      result.value =
          static_cast<uint32_t>(static_cast<int16_t>(half.value & 0xffff));
      result.taint = mem::widen_planes(half.taint);
    } else {
      result = half;
    }
  } else {
    const mem::TaintedByte b = c->memory_.load_byte(ea);
    if (in.op == Op::kLb) {
      result.value = static_cast<uint32_t>(static_cast<int8_t>(b.value));
      result.taint = mem::widen_planes(mem::planes_to_word(b.planes, 0));
    } else {
      result.value = b.value;
      result.taint = mem::planes_to_word(b.planes, 0);
    }
  }
  if (c->policy_.per_word_taint) {
    result.taint = mem::widen_planes(result.taint);
  }
  if (result.tainted()) ++st.tainted_loads;
  c->regs_.set(in.rt, result);
  ++st.instructions;
  return 0;
}

// ---------------------------------------------------------------------------
// Mid-block stores
// ---------------------------------------------------------------------------

uint64_t JitRuntime::sw_slow(Cpu* c, const MicroOp* u, const Block* blk) {
  CpuStats& st = c->stats_;
  --st.stores;
  --st.instructions;

  const Instruction& in = u->inst;
  c->pc_ = u->pc;
  const TaintedWord base = c->regs_.get(in.rs);
  const TaintedWord val = c->regs_.get(in.rt);
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.stores;
  if (u->elide == 0 && base.tainted() &&
      c->detect_pointer(in, in.rs, base, AlertKind::kTaintedStoreAddress)) {
    return 1;
  }
  const TaintedWord stored{val.value, val.taint};
  if (c->detect_annotation(in, ea, 4, stored)) return 1;
  if (val.tainted()) ++st.tainted_stores;
  if (ea < c->text_end_ && ea + 4 > c->text_begin_) {
    c->invalidate_decode_range(ea, 4);
  }
  if (ea % 4 != 0) {
    c->fault("misaligned sw");
    return 1;
  }
  c->memory_.store_word(ea, val);
  ++st.instructions;
  if (blk->retired) {
    c->pc_ = u->pc + 4;
    return 1;  // block invalidated itself; resume through retranslation
  }
  return 0;
}

uint64_t JitRuntime::store_small_slow(Cpu* c, const MicroOp* u,
                                      const Block* blk) {
  CpuStats& st = c->stats_;
  --st.stores;
  --st.instructions;

  const Instruction& in = u->inst;
  c->pc_ = u->pc;
  const TaintedWord base = c->regs_.get(in.rs);
  const TaintedWord val = c->regs_.get(in.rt);
  const uint32_t ea = base.value + static_cast<uint32_t>(in.imm);
  ++st.stores;
  if (u->elide == 0 && base.tainted() &&
      c->detect_pointer(in, in.rs, base, AlertKind::kTaintedStoreAddress)) {
    return 1;
  }
  const uint32_t len = in.op == Op::kSh ? 2 : 1;
  const TaintedWord stored{
      val.value, static_cast<mem::TaintBits>(
                     val.taint & (((1u << len) - 1) * 0x1111u))};
  if (c->detect_annotation(in, ea, len, stored)) return 1;
  if (val.tainted()) ++st.tainted_stores;
  if (ea < c->text_end_ && ea + len > c->text_begin_) {
    c->invalidate_decode_range(ea, len);
  }
  if (in.op == Op::kSh) {
    if (ea % 2 != 0) {
      c->fault("misaligned sh");
      return 1;
    }
    c->memory_.store_half(ea, val);
  } else {
    c->memory_.store_byte(ea, {static_cast<uint8_t>(val.value),
                               mem::byte_planes(val.taint, 0)});
  }
  ++st.instructions;
  if (blk->retired) {
    c->pc_ = u->pc + 4;
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Mid-block fused pairs
// ---------------------------------------------------------------------------

uint64_t JitRuntime::addr_lw_slow(Cpu* c, const MicroOp* u) {
  CpuStats& st = c->stats_;
  TaintUnit::Stats& tu = c->taint_unit_.stats_ref();
  --tu.evaluations;
  --st.alu_ops;
  --st.loads;
  st.instructions -= 2;

  mem::RegisterFile& regs = c->regs_;
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
    c->alu_write(ai, ai.rt, av, a, TaintedWord{static_cast<uint32_t>(ai.imm)},
                 true);
    base = regs.get(ai.rt);  // re-read: granularity may have widened taint
  }
  ++st.alu_ops;
  ++st.instructions;
  c->pc_ = u->pc + 4;
  const uint32_t ea = base.value + static_cast<uint32_t>(li.imm);
  ++st.loads;
  if (u->elide == 0 && base.tainted() &&
      c->detect_pointer(li, li.rs, base, AlertKind::kTaintedLoadAddress)) {
    return 1;
  }
  if (ea % 4 != 0) {
    c->fault("misaligned lw");
    return 1;
  }
  TaintedWord result = c->memory_.load_word(ea);
  if (c->policy_.per_word_taint) {
    result.taint = mem::widen_planes(result.taint);
  }
  if (result.tainted()) ++st.tainted_loads;
  regs.set(li.rt, result);
  ++st.instructions;
  return 0;
}

uint64_t JitRuntime::addr_sw_slow(Cpu* c, const MicroOp* u, const Block* blk) {
  CpuStats& st = c->stats_;
  TaintUnit::Stats& tu = c->taint_unit_.stats_ref();
  --tu.evaluations;
  --st.alu_ops;
  --st.stores;
  st.instructions -= 2;

  mem::RegisterFile& regs = c->regs_;
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
    c->alu_write(ai, ai.rt, av, a, TaintedWord{static_cast<uint32_t>(ai.imm)},
                 true);
    base = regs.get(ai.rt);
  }
  ++st.alu_ops;
  ++st.instructions;
  c->pc_ = u->pc + 4;
  const TaintedWord val = regs.get(si.rt);
  const uint32_t ea = base.value + static_cast<uint32_t>(si.imm);
  ++st.stores;
  if (u->elide == 0 && base.tainted() &&
      c->detect_pointer(si, si.rs, base, AlertKind::kTaintedStoreAddress)) {
    return 1;
  }
  const TaintedWord stored{val.value, val.taint};
  if (c->detect_annotation(si, ea, 4, stored)) return 1;
  if (val.tainted()) ++st.tainted_stores;
  if (ea < c->text_end_ && ea + 4 > c->text_begin_) {
    c->invalidate_decode_range(ea, 4);
  }
  if (ea % 4 != 0) {
    c->fault("misaligned sw");
    return 1;
  }
  c->memory_.store_word(ea, val);
  ++st.instructions;
  if (blk->retired) {
    c->pc_ = u->pc + 8;
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Mid-block multiply/divide/hi-lo/taint primitives (always a helper call;
// the exit flush carries no constants for this kind, so it bumps its own)
// ---------------------------------------------------------------------------

void JitRuntime::muldiv(Cpu* c, const MicroOp* u) {
  mem::RegisterFile& regs = c->regs_;
  const Instruction& in = u->inst;
  const TaintedWord a = regs.get(in.rs);
  const TaintedWord b2 = regs.get(in.rt);
  switch (in.op) {
    case Op::kMult: {
      const int64_t p = static_cast<int64_t>(static_cast<int32_t>(a.value)) *
                        static_cast<int64_t>(static_cast<int32_t>(b2.value));
      const auto t = static_cast<mem::TaintBits>(a.taint | b2.taint);
      regs.set_lo(TaintedWord{static_cast<uint32_t>(p), t});
      regs.set_hi(TaintedWord{static_cast<uint32_t>(p >> 32), t});
      break;
    }
    case Op::kMultu: {
      const uint64_t p =
          static_cast<uint64_t>(a.value) * static_cast<uint64_t>(b2.value);
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
      regs.set(in.rd, TaintedWord{a.value, static_cast<mem::TaintBits>(
                                               mem::kAllTainted |
                                               (a.taint & mem::kAddrMask))});
      break;
    default:  // kTaintClr
      regs.set(in.rd, TaintedWord{a.value, mem::kUntainted});
      break;
  }
  ++c->stats_.alu_ops;
  ++c->stats_.instructions;
}

// ---------------------------------------------------------------------------
// Terminators
// ---------------------------------------------------------------------------

void JitRuntime::branch_term(Cpu* c, const MicroOp* u) {
  mem::RegisterFile& regs = c->regs_;
  CpuStats& st = c->stats_;
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
  if (c->policy_.compare_untaints &&
      (a.tainted() || regs.get(in.rt).tainted())) {
    regs.untaint(in.rs);
    if (in.op == Op::kBeq || in.op == Op::kBne) regs.untaint(in.rt);
    ++st.compare_untaints;
  }
  if (taken) {
    c->pc_ = u->pc + 4 + (static_cast<uint32_t>(in.imm) << 2);
    ++st.taken_branches;
  } else {
    c->pc_ = u->pc + 4;
  }
  ++st.instructions;
}

void JitRuntime::cmp_branch_term(Cpu* c, const MicroOp* u) {
  mem::RegisterFile& regs = c->regs_;
  CpuStats& st = c->stats_;
  TaintUnit::Stats& tu = c->taint_unit_.stats_ref();
  const TaintPolicy& policy = c->policy_;
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
      v = static_cast<int32_t>(a.value) < static_cast<int32_t>(b2.value) ? 1
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
    c->alu_write(ci, dest, v, a, b2, b_imm);
  }
  ++st.alu_ops;
  ++st.instructions;
  ++st.branches;
  const uint32_t cv = regs.get(bi.rs).value;
  const bool taken = u->aux ? cv != 0 : cv == 0;
  if (taken) {
    c->pc_ = u->pc + 8 + (static_cast<uint32_t>(bi.imm) << 2);
    ++st.taken_branches;
  } else {
    c->pc_ = u->pc + 8;
  }
  ++st.instructions;
}

void JitRuntime::jr_term(Cpu* c, const MicroOp* u) {
  const Instruction& in = u->inst;
  c->pc_ = u->pc;
  const TaintedWord a = c->regs_.get(in.rs);
  ++c->stats_.jumps;
  if (u->elide == 0 && a.tainted() &&
      c->detect_pointer(in, in.rs, a, AlertKind::kTaintedJumpTarget)) {
    return;
  }
  ++c->stats_.instructions;
  c->pc_ = a.value;
}

void JitRuntime::jalr_term(Cpu* c, const MicroOp* u) {
  const Instruction& in = u->inst;
  c->pc_ = u->pc;
  const TaintedWord a = c->regs_.get(in.rs);
  ++c->stats_.jumps;
  if (u->elide == 0 && a.tainted() &&
      c->detect_pointer(in, in.rs, a, AlertKind::kTaintedJumpTarget)) {
    return;
  }
  c->regs_.set(in.rd, TaintedWord{u->pc + 4, mem::kTextAddrMask});
  ++c->stats_.instructions;
  c->pc_ = a.value;
}

}  // namespace ptaint::cpu
