#include "analysis/taint_analyzer.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>

#include "isa/isa.hpp"

namespace ptaint::analysis {

using isa::Instruction;
using isa::Op;
using isa::OpClass;

const char* to_string(Taint t) {
  switch (t) {
    case Taint::kUntainted: return "untainted";
    case Taint::kMaybeTainted: return "maybe-tainted";
    case Taint::kTop: return "top";
  }
  return "?";
}

namespace {

/// Applies one instruction's Table 1 transfer to `s`, mirroring the
/// dynamic TaintUnit under `policy`.  Dereference recording happens in the
/// caller (it needs the pre-transfer state of the address register).
void transfer(const Instruction& inst, const cpu::TaintPolicy& policy,
              RegState& s) {
  const auto rs = [&] { return s.get(inst.rs); };
  const auto rt = [&] { return s.get(inst.rt); };
  switch (inst.op) {
    // Shift-immediate: taint smears between bytes but stays in the word.
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
      s.set(inst.rd, rt());
      break;
    // Variable shifts: a tainted amount taints the whole result.
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
      s.set(inst.rd, join(rt(), rs()));
      break;

    case Op::kAdd: case Op::kAddu: case Op::kSub: case Op::kSubu:
    case Op::kOr: case Op::kNor:
      s.set(inst.rd, join(rs(), rt()));
      break;

    case Op::kAnd:
      // AND-zero rule: $zero is the only statically-certain zero byte
      // source; the value-dependent byte cases stay conservative.
      if (policy.and_zero_untaints &&
          (inst.rs == isa::kZero || inst.rt == isa::kZero)) {
        s.set(inst.rd, Taint::kUntainted);
      } else {
        s.set(inst.rd, join(rs(), rt()));
      }
      break;
    case Op::kXor:
      // XOR r,r,r zeroing idiom.
      if (policy.xor_self_untaints && inst.rs == inst.rt) {
        s.set(inst.rd, Taint::kUntainted);
      } else {
        s.set(inst.rd, join(rs(), rt()));
      }
      break;

    // Compare family: validated data is trusted afterwards (when the
    // policy applies the rule; the ablation variants must not assume it).
    case Op::kSlt:
    case Op::kSltu:
      if (policy.compare_untaints) {
        s.set(inst.rs, Taint::kUntainted);
        s.set(inst.rt, Taint::kUntainted);
        s.set(inst.rd, Taint::kUntainted);
      } else {
        s.set(inst.rd, join(rs(), rt()));
      }
      break;
    case Op::kSlti:
    case Op::kSltiu:
      if (policy.compare_untaints) {
        s.set(inst.rs, Taint::kUntainted);
        s.set(inst.rt, Taint::kUntainted);
      } else {
        s.set(inst.rt, rs());
      }
      break;

    case Op::kMult: case Op::kMultu: case Op::kDiv: case Op::kDivu: {
      const Taint t = join(rs(), rt());
      s.set(RegState::kHi, t);
      s.set(RegState::kLo, t);
      break;
    }
    case Op::kMfhi: s.set(inst.rd, s.get(RegState::kHi)); break;
    case Op::kMflo: s.set(inst.rd, s.get(RegState::kLo)); break;
    case Op::kMthi: s.set(RegState::kHi, rs()); break;
    case Op::kMtlo: s.set(RegState::kLo, rs()); break;

    case Op::kTaintSet: s.set(inst.rd, Taint::kMaybeTainted); break;
    case Op::kTaintClr: s.set(inst.rd, Taint::kUntainted); break;

    case Op::kAddi: case Op::kAddiu: case Op::kOri: case Op::kXori:
      s.set(inst.rt, rs());
      break;
    case Op::kAndi:
      if (policy.and_zero_untaints && (inst.imm & 0xffff) == 0) {
        s.set(inst.rt, Taint::kUntainted);
      } else {
        s.set(inst.rt, rs());
      }
      break;
    case Op::kLui:
      s.set(inst.rt, Taint::kUntainted);
      break;

    // Loads: memory is summarized as possibly tainted.
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      s.set(inst.rt, Taint::kMaybeTainted);
      break;
    case Op::kSb: case Op::kSh: case Op::kSw:
      break;  // no register effect

    // Branches compare data against bounds (Table 1 compare rule).
    case Op::kBeq: case Op::kBne:
      if (policy.compare_untaints) {
        s.set(inst.rs, Taint::kUntainted);
        s.set(inst.rt, Taint::kUntainted);
      }
      break;
    case Op::kBlez: case Op::kBgtz: case Op::kBltz: case Op::kBgez:
      if (policy.compare_untaints) s.set(inst.rs, Taint::kUntainted);
      break;
    case Op::kBltzal: case Op::kBgezal:
      if (policy.compare_untaints) s.set(inst.rs, Taint::kUntainted);
      s.set(isa::kRa, Taint::kUntainted);
      break;

    case Op::kJ:
      break;
    case Op::kJal:
      s.set(isa::kRa, Taint::kUntainted);
      break;
    case Op::kJr:
      break;
    case Op::kJalr:
      s.set(inst.rd, Taint::kUntainted);
      break;

    case Op::kSyscall:
      // SimOs writes only the (kernel-produced, untainted) result register.
      s.set(isa::kV0, Taint::kUntainted);
      break;
    case Op::kBreak:
    case Op::kInvalid:
      break;
  }
}

bool is_deref(const Instruction& inst) {
  return inst.is_mem() || inst.is_jump_reg();
}

/// Enumerates dereference sites ascending by PC and indexes them per
/// instruction (site_of[i] = site index, or -1).
std::vector<DerefSite> enumerate_sites(const Cfg& cfg,
                                       std::vector<int>& site_of) {
  const auto& insts = cfg.instructions();
  std::vector<DerefSite> sites;
  site_of.assign(insts.size(), -1);
  for (size_t i = 0; i < insts.size(); ++i) {
    const Instruction& inst = insts[i];
    if (!is_deref(inst)) continue;
    DerefSite site;
    site.pc = cfg.text_begin() + 4 * static_cast<uint32_t>(i);
    site.inst = inst;
    site.addr_reg = inst.rs;
    site.is_jump = inst.is_jump_reg();
    site_of[i] = static_cast<int>(sites.size());
    sites.push_back(site);
  }
  return sites;
}

/// Applies a whole block's transfer to `s` without recording site facts.
void walk_block(const Cfg& cfg, const cpu::TaintPolicy& policy,
                const BasicBlock& bb, RegState& s) {
  for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
    transfer(cfg.instructions()[cfg.index_of(pc)], policy, s);
  }
}

struct G1State {
  std::vector<RegState> in_state;
  std::vector<bool> has_in;
};

/// Chaotic worklist iteration from the all-Untainted entry state to the
/// least fixpoint.
G1State g1_fixpoint(const Cfg& cfg, const cpu::TaintPolicy& policy) {
  const auto& blocks = cfg.blocks();
  G1State st;
  st.in_state.resize(blocks.size());
  st.has_in.assign(blocks.size(), false);
  std::vector<bool> queued(blocks.size(), false);
  std::deque<int> worklist;
  const int entry = cfg.block_at(cfg.program().entry);
  if (entry >= 0) {
    st.has_in[static_cast<size_t>(entry)] = true;
    queued[static_cast<size_t>(entry)] = true;
    worklist.push_back(entry);
  }

  while (!worklist.empty()) {
    const int b = worklist.front();
    worklist.pop_front();
    queued[static_cast<size_t>(b)] = false;
    const BasicBlock& bb = blocks[static_cast<size_t>(b)];

    RegState s = st.in_state[static_cast<size_t>(b)];
    walk_block(cfg, policy, bb, s);

    auto flow_to = [&](int succ) {
      if (succ < 0) return;
      auto us = static_cast<size_t>(succ);
      bool changed = true;
      if (!st.has_in[us]) {
        st.in_state[us] = s;
        st.has_in[us] = true;
      } else {
        changed = st.in_state[us].join_with(s);
      }
      if (changed && !queued[us]) {
        queued[us] = true;
        worklist.push_back(succ);
      }
    };
    for (int succ : bb.succs) flow_to(succ);
    for (int succ : bb.call_succs) flow_to(succ);
  }
  return st;
}

/// Replays every reached block once from its converged in-state and records
/// site facts.  Equal to recording during iteration: in-states only grow
/// (monotone transfer), the worklist invariant guarantees the last visit of
/// each block used its final in-state, and the join over all visits of a
/// monotone chain equals its maximum.
void g1_collect(const Cfg& cfg, const cpu::TaintPolicy& policy,
                const G1State& st, const std::vector<int>& site_of,
                std::vector<DerefSite>& sites) {
  const auto& blocks = cfg.blocks();
  const auto& insts = cfg.instructions();
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (!st.has_in[b]) continue;
    const BasicBlock& bb = blocks[b];
    RegState s = st.in_state[b];
    for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
      const size_t i = cfg.index_of(pc);
      const Instruction& inst = insts[i];
      if (site_of[i] >= 0) {
        DerefSite& site = sites[static_cast<size_t>(site_of[i])];
        site.reachable = true;
        site.may_taint = join(site.may_taint, s.get(inst.rs));
      }
      transfer(inst, policy, s);
    }
  }
}

}  // namespace

bool TaintAnalysis::predicts_alert(uint32_t pc) const {
  const DerefSite* s = site_at(pc);
  return s != nullptr && may_be_tainted(s->may_taint);
}

const DerefSite* TaintAnalysis::site_at(uint32_t pc) const {
  auto it = std::lower_bound(
      sites.begin(), sites.end(), pc,
      [](const DerefSite& s, uint32_t p) { return s.pc < p; });
  if (it == sites.end() || it->pc != pc) return nullptr;
  return &*it;
}

std::string TaintAnalysis::report(const Cfg& cfg) const {
  std::string out;
  char line[256];
  for (const DerefSite& s : sites) {
    if (!may_be_tainted(s.may_taint)) continue;
    const int f = cfg.function_at(s.pc);
    std::snprintf(line, sizeof line, "%x: %-28s addr=$%-2d %-13s  [in %s]\n",
                  s.pc, isa::disassemble(s.inst, s.pc).c_str(), s.addr_reg,
                  to_string(s.may_taint),
                  f >= 0 ? cfg.functions()[static_cast<size_t>(f)].name.c_str()
                         : "?");
    out += line;
  }
  return out;
}

TaintAnalysis analyze_taint(const Cfg& cfg, const cpu::TaintPolicy& policy) {
  std::vector<int> site_of;
  TaintAnalysis result;
  result.sites = enumerate_sites(cfg, site_of);
  result.elision.assign(cfg.instructions().size(), 0);
  g1_collect(cfg, policy, g1_fixpoint(cfg, policy), site_of, result.sites);
  for (const DerefSite& site : result.sites) {
    if (!site.reachable) continue;  // never elide unanalyzed code
    if (may_be_tainted(site.may_taint)) {
      ++result.possible_sites;
    } else {
      ++result.proven_clean;
      result.elision[cfg.index_of(site.pc)] = 1;
    }
  }
  return result;
}

TaintAnalysis analyze_taint(const asmgen::Program& program,
                            const cpu::TaintPolicy& policy) {
  return analyze_taint(Cfg(program), policy);
}

}  // namespace ptaint::analysis
