#include "analysis/vsa.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/effects.hpp"
#include "analysis/stack_height.hpp"
#include "isa/isa.hpp"
#include "os/syscalls.hpp"

namespace ptaint::analysis {
namespace {

using isa::Instruction;
using isa::Op;

// ---- value-set arithmetic --------------------------------------------------

VsKind region_class(ValueSet v) {
  switch (v.kind) {
    case VsKind::kConst:
      switch (region_of_addr(static_cast<uint32_t>(v.value))) {
        case Region::kData: return VsKind::kDataRegion;
        case Region::kStack: return VsKind::kStackRegion;
        default: return VsKind::kAny;
      }
    case VsKind::kStackRel: return VsKind::kStackRegion;
    default: return v.kind;
  }
}

bool region_shaped(ValueSet v) {
  return v.kind == VsKind::kStackRegion || v.kind == VsKind::kDataRegion;
}

/// Stack lineage for the static pointer-difference rule: kStackRel and
/// kStackRegion values derive from the (plane-seeded) boot $sp, so they
/// must carry the stack-address plane dynamically.  kConst is excluded — a
/// materialized stack-range constant carries no planes.  This rides on the
/// same in-region assumption ValueSet documents, revalidated empirically by
/// the bidirectional --static-check leg.
bool sp_derived(ValueSet v) {
  return v.kind == VsKind::kStackRel || v.kind == VsKind::kStackRegion;
}

ValueSet vs_add(ValueSet a, ValueSet b) {
  if (a.kind > b.kind) std::swap(a, b);  // const < stackrel < regions < any
  if (a.is_const()) {
    switch (b.kind) {
      case VsKind::kConst:
        return ValueSet::constant(static_cast<int32_t>(
            static_cast<uint32_t>(a.value) + static_cast<uint32_t>(b.value)));
      case VsKind::kStackRel:
        return ValueSet::stack_rel(b.value + a.value);
      case VsKind::kStackRegion:
      case VsKind::kDataRegion:
        return {b.kind, 0};  // in-region: base + constant stays inside
      case VsKind::kAny: {
        // `la base; addu base, base, index`: a region base plus an unknown
        // index is assumed to stay in the base's region (the documented
        // in-region assumption).
        const VsKind r = region_class(a);
        if (r == VsKind::kAny) return ValueSet::any();
        return {r, 0};
      }
    }
  }
  if (a.is_stack_rel()) {
    // stackrel + unknown stays on the stack; stackrel + pointer is junk.
    if (b.kind == VsKind::kAny) return ValueSet::stack_region();
    return ValueSet::any();
  }
  if (region_shaped(a)) {
    if (b.kind == VsKind::kAny) return {a.kind, 0};
    return ValueSet::any();  // region + region: pointer arithmetic junk
  }
  return ValueSet::any();
}

ValueSet vs_sub(ValueSet a, ValueSet b) {
  if (a.is_const() && b.is_const()) {
    return ValueSet::constant(static_cast<int32_t>(
        static_cast<uint32_t>(a.value) - static_cast<uint32_t>(b.value)));
  }
  if (a.is_stack_rel()) {
    if (b.is_const()) return ValueSet::stack_rel(a.value - b.value);
    if (b.is_stack_rel()) return ValueSet::constant(a.value - b.value);
    if (b.kind == VsKind::kAny) return ValueSet::stack_region();
    return ValueSet::any();
  }
  if (region_shaped(a)) {
    if (b.kind == VsKind::kConst || b.kind == VsKind::kAny) return {a.kind, 0};
    return ValueSet::any();
  }
  if (a.is_const()) {  // constant minus something imprecise
    const VsKind r = region_class(a);
    if (b.kind == VsKind::kAny && r != VsKind::kAny) return {r, 0};
    return ValueSet::any();
  }
  return ValueSet::any();
}

ValueSet rebase_vs(ValueSet v, int32_t delta) {
  if (v.is_stack_rel()) return ValueSet::stack_rel(v.value + delta);
  return v;
}

ValueSet unanchor_vs(ValueSet v) {
  return v.is_stack_rel() ? ValueSet::stack_region() : v;
}

// ---- abstract machine state ------------------------------------------------

// A stack cell that is absent from the map: junk below $sp, unseen caller
// memory, or a cell smashed by an imprecise store.  Summarized as possibly
// tainted, value unknown.
constexpr AbsVal kStackDefault = AbsVal::maybe_any();

struct State {
  std::array<AbsVal, RegState::kCount> regs{};
  std::map<int32_t, AbsVal> stack;     // frame-entry-relative word offsets
  std::map<uint32_t, AbsVal> globals;  // absolute word addresses (data seg)
  Taint globals_default = Taint::kUntainted;
  Taint heap = Taint::kUntainted;
  Taint text = Taint::kUntainted;
  // Address-provenance may-summaries of the same regions.  Invariant: kept
  // plane-widened (each plane 0 or full nibble) — a byte loaded from a
  // summarized region may land at any byte position downstream.
  mem::TaintBits globals_aprov = 0;
  mem::TaintBits heap_aprov = 0;
  mem::TaintBits text_aprov = 0;

  State() { regs[0] = AbsVal::untainted_const(0); }

  AbsVal reg(int r) const { return regs[static_cast<size_t>(r)]; }
  void set_reg(int r, AbsVal v) {
    if (r != isa::kZero) regs[static_cast<size_t>(r)] = v;
  }

  AbsVal stack_cell(int32_t off) const {
    auto it = stack.find(off);
    return it == stack.end() ? kStackDefault : it->second;
  }
  void set_stack(int32_t off, AbsVal v) {
    if (v == kStackDefault) stack.erase(off);
    else stack[off] = v;
  }

  AbsVal global_default_val() const {
    return {globals_default, ValueSet::any(), globals_aprov};
  }
  AbsVal global_cell(uint32_t addr) const {
    auto it = globals.find(addr);
    return it == globals.end() ? global_default_val() : it->second;
  }
  void set_global(uint32_t addr, AbsVal v) {
    if (v == global_default_val()) globals.erase(addr);
    else globals[addr] = v;
  }

  bool operator==(const State&) const = default;
};

State join_states(const State& a, const State& b) {
  State r;
  for (int i = 0; i < RegState::kCount; ++i) {
    r.regs[static_cast<size_t>(i)] = join(a.regs[static_cast<size_t>(i)],
                                          b.regs[static_cast<size_t>(i)]);
  }
  r.globals_default = join(a.globals_default, b.globals_default);
  r.heap = join(a.heap, b.heap);
  r.text = join(a.text, b.text);
  r.globals_aprov = static_cast<mem::TaintBits>(a.globals_aprov |
                                                b.globals_aprov);
  r.heap_aprov = static_cast<mem::TaintBits>(a.heap_aprov | b.heap_aprov);
  r.text_aprov = static_cast<mem::TaintBits>(a.text_aprov | b.text_aprov);
  // Stack: absent = kStackDefault, which is the top of the cell lattice, so
  // only cells present on both sides can survive the join.
  for (const auto& [off, va] : a.stack) {
    auto it = b.stack.find(off);
    if (it == b.stack.end()) continue;
    const AbsVal j = join(va, it->second);
    if (j != kStackDefault) r.stack.emplace(off, j);
  }
  // Globals: absent = the side's own default; canonicalize against the
  // joined default.
  const AbsVal def = r.global_default_val();
  auto consider = [&](uint32_t addr) {
    if (r.globals.count(addr)) return;
    const AbsVal j = join(a.global_cell(addr), b.global_cell(addr));
    if (j != def) r.globals.emplace(addr, j);
  };
  for (const auto& [addr, v] : a.globals) consider(addr);
  for (const auto& [addr, v] : b.globals) consider(addr);
  return r;
}

// ---- propagation events (witness fabric) -----------------------------------

enum class Root : uint8_t {
  kNone = 0,
  kSyscallInput,  // SYS_READ / SYS_RECV landed bytes here
  kArgv,          // command-line bytes (tainted by the loader)
  kUninitStack,   // read of a stack cell the analysis never saw written
  kTaintSet,      // TAINTSET instruction
  // Address-provenance roots (leak witnesses).
  kStackAddrIntro,  // the boot $sp — root of stack address provenance
  kHeapAddrIntro,   // SYS_BRK result — root of heap address provenance
  kTextAddrIntro,   // call link / text-range constant
  kUnmodeledAddr,   // unmodeled memory that may hold addresses
};

constexpr uint64_t kKindReg = 1, kKindStack = 2, kKindGlobalCell = 3,
                   kKindGlobals = 4, kKindHeap = 5, kKindText = 6;
constexpr uint64_t make_loc(uint64_t kind, uint64_t id) {
  return (kind << 32) | id;
}
constexpr uint64_t loc_reg(int r) {
  return make_loc(kKindReg, static_cast<uint64_t>(r));
}
constexpr uint64_t kLocStack = make_loc(kKindStack, 0);
constexpr uint64_t kLocGlobals = make_loc(kKindGlobals, 0);
constexpr uint64_t kLocHeap = make_loc(kKindHeap, 0);
constexpr uint64_t kLocText = make_loc(kKindText, 0);
uint64_t loc_global(uint32_t addr) { return make_loc(kKindGlobalCell, addr); }

/// One taint-propagation fact observed at the fixpoint: the instruction at
/// `pc` moved possibly-tainted data into `dst` (from `src`, for edges), or
/// `dst` is a taint source (`root` != kNone).  Ordered so the event set —
/// and everything derived from it — is deterministic.
struct Event {
  uint32_t pc = 0;
  uint64_t dst = 0;
  uint64_t src = 0;
  Root root = Root::kNone;
  auto operator<=>(const Event&) const = default;
};
using EventSet = std::set<Event>;

std::string loc_name(uint64_t loc) {
  const uint64_t kind = loc >> 32;
  const uint32_t id = static_cast<uint32_t>(loc);
  char buf[32];
  switch (kind) {
    case kKindReg:
      if (id == RegState::kHi) return "reg:$hi";
      if (id == RegState::kLo) return "reg:$lo";
      return "reg:" +
             std::string(isa::reg_name(static_cast<uint8_t>(id)));
    case kKindStack: return "stack";
    case kKindGlobalCell:
      std::snprintf(buf, sizeof buf, "global:0x%08x", id);
      return buf;
    case kKindGlobals: return "globals";
    case kKindHeap: return "heap";
    case kKindText: return "text";
  }
  return "?";
}

/// Union of the address-provenance planes the abstract globals/heap image
/// admits — what an output buffer somewhere in the data region may expose.
mem::TaintBits globals_region_aprov(const State& s) {
  mem::TaintBits p = static_cast<mem::TaintBits>(s.globals_aprov |
                                                 s.heap_aprov);
  for (const auto& [a, v] : s.globals) p |= v.aprov;
  return static_cast<mem::TaintBits>(p & mem::kAddrMask);
}

// ---- per-function interprocedural records -----------------------------------

/// Flow-insensitive may-write summary of one function's effect on its
/// caller's stack: every store at a non-negative frame offset (= above the
/// entry $sp, i.e. into the caller), plus a flag for stores through
/// imprecise stack pointers.
struct FnSummary {
  std::map<int32_t, AbsVal> caller_writes;  // callee-frame coords, off >= 0
  bool unknown_write = false;
  Taint unknown_taint = Taint::kUntainted;
  mem::TaintBits unknown_aprov = 0;  // plane-widened, like region summaries
};

struct FnInfo {
  bool has_exit = false;
  State exit;  // at `jr $ra`, callee coords, stack map cleared
  FnSummary summary;
};

struct CallSite {
  bool seen = false;
  State state;  // joined caller state at the call (post link-reg write)
  bool d_known = false;
  int32_t d = 0;  // caller frame offset of $sp at the call
  int caller_fn = -1;
};

// Safety valve: the transfer is monotone over a finite lattice, but a bound
// on total block executions guards the fixpoint against any surprise; on
// exhaustion every reachable site degrades to "may be tainted" (sound).
constexpr size_t kMaxBlockRuns = 2'000'000;

class VsaEngine {
 public:
  VsaEngine(const Cfg& cfg, const cpu::TaintPolicy& policy)
      : cfg_(cfg), policy_(policy), heights_(compute_stack_heights(cfg)) {
    const auto& insts = cfg.instructions();
    site_of_.assign(insts.size(), -1);
    for (size_t i = 0; i < insts.size(); ++i) {
      const Instruction& inst = insts[i];
      if (!inst.is_mem() && !inst.is_jump_reg()) continue;
      DerefSite site;
      site.pc = cfg.text_begin() + 4 * static_cast<uint32_t>(i);
      site.inst = inst;
      site.addr_reg = inst.rs;
      site.is_jump = inst.is_jump_reg();
      site_of_[i] = static_cast<int>(sites_.size());
      sites_.push_back(site);
    }
    // Every syscall instruction is a potential kernel-output site: whether
    // it is a SYS_WRITE/SYS_SEND depends on the (abstract) $v0 at the site.
    leak_site_of_.assign(insts.size(), -1);
    for (size_t i = 0; i < insts.size(); ++i) {
      if (insts[i].op != Op::kSyscall) continue;
      LeakSite ls;
      ls.pc = cfg.text_begin() + 4 * static_cast<uint32_t>(i);
      leak_site_of_[i] = static_cast<int>(leak_sites_.size());
      leak_sites_.push_back(ls);
    }
    leak_srcs_.resize(leak_sites_.size());
    const size_t nblocks = cfg.blocks().size();
    in_state_.resize(nblocks);
    has_in_.assign(nblocks, 0);
    queued_.assign(nblocks, 0);
    fns_.resize(cfg.functions().size());
  }

  void run();
  VsaAnalysis finish(const VsaOptions& options);

 private:
  // driver
  void flow_to(int b, const State& s);
  void queue_compose(uint32_t call_pc, int fidx);
  void process_block(int b);
  void after_block(const BasicBlock& bb, State& s);
  void handle_call(uint32_t call_pc, int caller_fn, int fidx, const State& s);
  State make_entry(const CallSite& cs) const;
  void compose(uint32_t call_pc, int fidx);
  void capture_exit(int fidx, const State& s);
  State degrade_for_foreign(const State& s) const;
  static State smash_unknown_call();
  State block_in(int b) const;  // in-state + stack-height degrade preamble

  // transfer (`fn` = function whose frame coords the state is in)
  void record_site(uint32_t pc, const Instruction& inst, const State& s);
  void transfer(uint32_t pc, const Instruction& inst, State& s,
                EventSet* sink, bool& dead, int fn);
  void do_load(uint32_t pc, const Instruction& inst, State& s, EventSet* sink);
  void do_store(uint32_t pc, const Instruction& inst, State& s,
                EventSet* sink, int fn);
  void do_syscall(uint32_t pc, State& s, EventSet* sink, bool& dead, int fn);
  void record_leak_site(uint32_t pc, const State& s);
  void record_leak_site_all(uint32_t pc);
  void summary_write(int fn, int32_t off, AbsVal v);
  void summary_unknown_write(int fn, Taint t, mem::TaintBits aprov);
  void summary_changed(int fidx);

  // leaf inlining
  const std::vector<int>* inline_plan(int fidx);
  std::optional<std::vector<int>> compute_inline_plan(int fidx) const;
  std::optional<State> run_inline(int fidx, int caller_fn,
                                  const State& at_call, EventSet* sink);

  // fact collection + witnesses
  void collect_pass(const VsaOptions& options);
  void build_witnesses(VsaAnalysis& res) const;
  void build_leak_witnesses(VsaAnalysis& res) const;
  WitnessStep render_step(const Event& e) const;

  const Cfg& cfg_;
  const cpu::TaintPolicy& policy_;
  StackHeights heights_;

  std::vector<DerefSite> sites_;
  std::vector<int> site_of_;

  std::vector<LeakSite> leak_sites_;
  std::vector<int> leak_site_of_;
  // Per leak site: memory locations whose address planes made it dirty
  // (witness BFS targets).
  std::vector<std::set<uint64_t>> leak_srcs_;

  std::vector<State> in_state_;
  std::vector<uint8_t> has_in_;

  // FIFO block worklist, drained before the compose queue.  The order
  // matters only at the block-run budget edge, where it decides whether a
  // run exhausts.
  std::vector<uint8_t> queued_;
  std::deque<int> worklist_;

  std::vector<FnInfo> fns_;  // per function: exit state + caller-writes

  std::map<uint32_t, CallSite> call_sites_;        // call pc -> site record
  std::map<int, std::set<uint32_t>> call_pairs_;   // fidx -> calling pcs
  std::map<int, std::optional<std::vector<int>>> inline_plans_;

  std::deque<std::pair<uint32_t, int>> compose_q_;
  std::set<std::pair<uint32_t, int>> compose_queued_;

  EventSet events_;
  EventSet aprov_events_;  // address-provenance flows (leak witnesses)
  size_t block_runs_ = 0;
  bool exhausted_ = false;

  // Site/leak facts are recorded only during collect_pass (replay from the
  // converged states): the transfer is monotone, so the facts a site joins
  // over every iteration visit equal the facts its final in-state yields.
  // This is what makes visit counts irrelevant to the collected verdicts.
  bool collecting_ = false;
};

// ---- transfer --------------------------------------------------------------

void VsaEngine::record_site(uint32_t pc, const Instruction& inst,
                            const State& s) {
  if (!collecting_) return;
  const int si = site_of_[cfg_.index_of(pc)];
  if (si < 0) return;
  DerefSite& site = sites_[static_cast<size_t>(si)];
  site.reachable = true;
  site.may_taint = join(site.may_taint, s.reg(inst.rs).taint);
}

void VsaEngine::do_load(uint32_t pc, const Instruction& inst, State& s,
                        EventSet* sink) {
  const AbsVal base = s.reg(inst.rs);
  const ValueSet addr = vs_add(base.vs, ValueSet::constant(inst.imm));
  const bool word = inst.op == Op::kLw;
  AbsVal result = AbsVal::untainted_any();
  std::vector<uint64_t> srcs;   // tainted contributing locations
  std::vector<Root> roots;      // source roots contributing directly
  std::vector<uint64_t> asrcs;  // address-plane contributing locations
  std::vector<Root> aroots;     // address-plane roots

  auto add = [&](AbsVal v, uint64_t loc) {
    result = join(result, v);
    if (may_be_tainted(v.taint)) srcs.push_back(loc);
    if ((v.aprov & mem::kAddrMask) != 0) asrcs.push_back(loc);
  };
  auto add_root = [&](Root r) {
    result = join(result, AbsVal::maybe_any());
    roots.push_back(r);
    aroots.push_back(r == Root::kUninitStack ? Root::kUninitStack
                                             : Root::kUnmodeledAddr);
  };
  // A sub-word load widens the loaded byte's planes over the whole result
  // (the dynamic lb/lh shape); byte positions inside the cell are lost.
  auto narrow = [&](mem::TaintBits ap) {
    return mem::widen_planes(static_cast<mem::TaintBits>(ap & mem::kAddrMask));
  };

  auto load_stack_cell = [&](int32_t off) {
    const int32_t w = off & ~3;
    auto it = s.stack.find(w);
    if (it == s.stack.end()) {
      add_root(Root::kUninitStack);
      srcs.push_back(kLocStack);
      asrcs.push_back(kLocStack);
    } else if (word && (off & 3) == 0) {
      add(it->second, kLocStack);
    } else {
      add({it->second.taint, ValueSet::any(), narrow(it->second.aprov)},
          kLocStack);
    }
  };
  auto load_stack_region = [&]() {
    add_root(Root::kUninitStack);
    srcs.push_back(kLocStack);
    asrcs.push_back(kLocStack);
  };
  auto load_globals_region = [&]() {
    Taint t = join(s.globals_default, s.heap);
    for (const auto& [a, v] : s.globals) t = join(t, v.taint);
    add({t, ValueSet::any(), globals_region_aprov(s)}, kLocGlobals);
    if (may_be_tainted(s.heap)) srcs.push_back(kLocHeap);
    if (s.heap_aprov != 0) asrcs.push_back(kLocHeap);
  };
  auto load_global_cell = [&](uint32_t a) {
    const uint32_t w = a & ~3u;
    auto it = s.globals.find(w);
    if (it != s.globals.end()) {
      if (word && (a & 3u) == 0) add(it->second, loc_global(w));
      else add({it->second.taint, ValueSet::any(), narrow(it->second.aprov)},
               loc_global(w));
      if (may_be_tainted(s.globals_default)) srcs.push_back(kLocGlobals);
    } else {
      add({join(s.globals_default, s.heap), ValueSet::any(),
           static_cast<mem::TaintBits>(s.globals_aprov | s.heap_aprov)},
          kLocGlobals);
      if (may_be_tainted(s.heap)) srcs.push_back(kLocHeap);
      if (s.heap_aprov != 0) asrcs.push_back(kLocHeap);
    }
  };

  switch (addr.kind) {
    case VsKind::kConst: {
      const uint32_t a = static_cast<uint32_t>(addr.value);
      switch (region_of_addr(a)) {
        case Region::kData: load_global_cell(a); break;
        case Region::kStack: load_stack_region(); break;  // absolute stack
        case Region::kText:
          add({s.text, ValueSet::any(), s.text_aprov}, kLocText);
          break;
        case Region::kArgv: add_root(Root::kArgv); break;
        case Region::kOther: result = join(result, AbsVal::maybe_any()); break;
      }
      break;
    }
    case VsKind::kStackRel: load_stack_cell(addr.value); break;
    case VsKind::kStackRegion: load_stack_region(); break;
    case VsKind::kDataRegion: load_globals_region(); break;
    case VsKind::kAny:
      load_stack_region();
      load_globals_region();
      add({s.text, ValueSet::any(), s.text_aprov}, kLocText);
      add_root(Root::kArgv);
      break;
  }

  // Loading through a possibly-tainted pointer yields an arbitrary value;
  // the provenance edge from the pointer keeps the witness chain connected.
  if (may_be_tainted(base.taint)) {
    result = join(result, AbsVal::maybe_any());
    if (sink) {
      sink->insert({pc, loc_reg(inst.rt), loc_reg(inst.rs), Root::kNone});
      aprov_events_.insert({pc, loc_reg(inst.rt), 0, Root::kUnmodeledAddr});
    }
  }

  s.set_reg(inst.rt, result);

  if (sink && may_be_tainted(result.taint)) {
    for (uint64_t loc : srcs) {
      sink->insert({pc, loc_reg(inst.rt), loc, Root::kNone});
    }
    for (Root r : roots) sink->insert({pc, loc_reg(inst.rt), 0, r});
  }
  if (sink && (result.aprov & mem::kAddrMask) != 0) {
    for (uint64_t loc : asrcs) {
      aprov_events_.insert({pc, loc_reg(inst.rt), loc, Root::kNone});
    }
    for (Root r : aroots) aprov_events_.insert({pc, loc_reg(inst.rt), 0, r});
  }
}

void VsaEngine::do_store(uint32_t pc, const Instruction& inst, State& s,
                         EventSet* sink, int fn) {
  const AbsVal base = s.reg(inst.rs);
  const AbsVal val = s.reg(inst.rt);
  const ValueSet addr = vs_add(base.vs, ValueSet::constant(inst.imm));
  const bool word = inst.op == Op::kSw;
  const int size = inst.op == Op::kSw ? 4 : inst.op == Op::kSh ? 2 : 1;
  const bool tainted = may_be_tainted(val.taint);
  // Planes the stored bytes may carry, widened over the target cell (exact
  // byte positions survive only the aligned-word strong update below).
  const mem::TaintBits pa = mem::widen_planes(static_cast<mem::TaintBits>(
      val.aprov & (((1u << size) - 1) * 0x1111u) & mem::kAddrMask));
  auto emit = [&](uint64_t loc) {
    if (sink && tainted) {
      sink->insert({pc, loc, loc_reg(inst.rt), Root::kNone});
    }
    if (sink && pa != 0) {
      aprov_events_.insert({pc, loc, loc_reg(inst.rt), Root::kNone});
    }
  };

  auto store_stack_cell = [&](int32_t off) {
    const int32_t w = off & ~3;
    if (word && (off & 3) == 0) {
      // Strong update: a StackRel cell is exactly one concrete word per
      // execution of this frame.
      s.set_stack(w, val);
      if (w >= 0) summary_write(fn, w, val);
    } else {
      for (int32_t c = w; c < off + size; c += 4) {
        s.set_stack(c, join(s.stack_cell(c),
                            {val.taint, ValueSet::any(), pa}));
        if (c >= 0) summary_write(fn, c, {val.taint, ValueSet::any(), pa});
      }
    }
    emit(kLocStack);
  };
  auto store_stack_region = [&]() {
    for (auto it = s.stack.begin(); it != s.stack.end();) {
      const AbsVal nv = join(it->second, {val.taint, ValueSet::any(), pa});
      if (nv == kStackDefault) it = s.stack.erase(it);
      else { it->second = nv; ++it; }
    }
    summary_unknown_write(fn, val.taint, pa);
    emit(kLocStack);
  };
  auto store_global_cell = [&](uint32_t a) {
    const uint32_t w = a & ~3u;
    AbsVal v2 = val;
    // A frame-relative value set is meaningless once it leaves the frame's
    // coordinate system (another function may read this global).
    v2.vs = unanchor_vs(v2.vs);
    if (word && (a & 3u) == 0) s.set_global(w, v2);
    else s.set_global(w, join(s.global_cell(w),
                              {val.taint, ValueSet::any(), pa}));
    emit(loc_global(w));
    emit(kLocGlobals);
  };
  auto store_globals_region = [&]() {
    s.globals_default = join(s.globals_default, val.taint);
    s.heap = join(s.heap, val.taint);
    s.globals_aprov = static_cast<mem::TaintBits>(s.globals_aprov | pa);
    s.heap_aprov = static_cast<mem::TaintBits>(s.heap_aprov | pa);
    const AbsVal def = s.global_default_val();
    for (auto it = s.globals.begin(); it != s.globals.end();) {
      const AbsVal nv = join(it->second, {val.taint, ValueSet::any(), pa});
      if (nv == def) it = s.globals.erase(it);
      else { it->second = nv; ++it; }
    }
    emit(kLocGlobals);
    emit(kLocHeap);
  };
  auto store_text = [&]() {
    s.text = join(s.text, val.taint);
    s.text_aprov = static_cast<mem::TaintBits>(s.text_aprov | pa);
    emit(kLocText);
  };

  ValueSet a2 = addr;
  if (may_be_tainted(base.taint)) a2 = ValueSet::any();  // wild store
  switch (a2.kind) {
    case VsKind::kConst: {
      const uint32_t a = static_cast<uint32_t>(a2.value);
      switch (region_of_addr(a)) {
        case Region::kData: store_global_cell(a); break;
        case Region::kStack: store_stack_region(); break;  // absolute addr:
        case Region::kText: store_text(); break;           // frame unknown
        default: break;  // argv / low memory: nothing modeled lives there
      }
      break;
    }
    case VsKind::kStackRel: store_stack_cell(a2.value); break;
    case VsKind::kStackRegion: store_stack_region(); break;
    case VsKind::kDataRegion: store_globals_region(); break;
    case VsKind::kAny:
      store_stack_region();
      store_globals_region();
      store_text();
      break;
  }
}

void VsaEngine::do_syscall(uint32_t pc, State& s, EventSet* sink, bool& dead,
                           int fn) {
  const AbsVal v0 = s.reg(isa::kV0);
  auto root_at = [&](uint64_t loc) {
    if (sink) sink->insert({pc, loc, 0, Root::kSyscallInput});
  };
  // Input bytes are data-tainted but provenance-free (the kernel overwrote
  // whatever pointer was parked there); the join keeps any prior planes,
  // which is sound — only a strong update could clear them.
  auto taint_stack_range = [&](int32_t c, uint32_t n) {
    for (int32_t off = c & ~3; off < c + static_cast<int32_t>(n); off += 4) {
      s.set_stack(off, join(s.stack_cell(off), AbsVal::tainted_input()));
    }
    root_at(kLocStack);
  };
  auto taint_global_range = [&](uint32_t a, uint32_t n) {
    for (uint32_t w = a & ~3u; w < a + n; w += 4) {
      s.set_global(w, join(s.global_cell(w), AbsVal::tainted_input()));
      root_at(loc_global(w));
    }
    root_at(kLocGlobals);
  };
  auto taint_stack_all = [&]() {
    s.stack.clear();  // absent = possibly tainted
    summary_unknown_write(fn, Taint::kMaybeTainted, 0);
    root_at(kLocStack);
  };
  auto taint_globals_all = [&]() {
    s.globals_default = join(s.globals_default, Taint::kMaybeTainted);
    s.heap = join(s.heap, Taint::kMaybeTainted);
    s.globals.clear();  // every cell joins to the new (tainted) default
    root_at(kLocGlobals);
    root_at(kLocHeap);
  };
  auto taint_text = [&]() {
    s.text = join(s.text, Taint::kMaybeTainted);
    root_at(kLocText);
  };

  if (!v0.vs.is_const()) {
    // Unknown syscall number: could be any input syscall with any buffer —
    // and could be an output syscall leaking any address, or a SYS_BRK
    // whose result carries heap provenance.
    record_leak_site_all(pc);
    taint_stack_all();
    taint_globals_all();
    taint_text();
    s.set_reg(isa::kV0,
              {Taint::kUntainted, ValueSet::any(), mem::kHeapAddrMask});
    if (sink) {
      aprov_events_.insert({pc, loc_reg(isa::kV0), 0, Root::kHeapAddrIntro});
    }
    return;
  }
  const uint32_t no = static_cast<uint32_t>(v0.vs.value);
  if (no == os::kSysExit) {
    dead = true;  // never returns; nothing downstream executes
    return;
  }
  if (no == os::kSysBrk) {
    // The returned break is the root of heap address provenance.
    s.set_reg(isa::kV0, {Taint::kUntainted, ValueSet::data_region(),
                         mem::kHeapAddrMask});
    if (sink) {
      aprov_events_.insert({pc, loc_reg(isa::kV0), 0, Root::kHeapAddrIntro});
    }
    return;
  }
  if (no == os::kSysWrite || no == os::kSysSend) {
    // Kernel-output site: classify what the buffer may expose (the static
    // mirror of Cpu::kernel_output_leak).
    record_leak_site(pc, s);
    s.set_reg(isa::kV0, AbsVal::untainted_any());
    return;
  }
  if (no == os::kSysRead || no == os::kSysRecv) {
    const AbsVal buf = s.reg(isa::kA1);
    const AbsVal len = s.reg(isa::kA2);
    uint32_t n = 0;
    bool n_known = false;
    if (len.vs.is_const() &&
        static_cast<uint32_t>(len.vs.value) <= 4096) {
      n = static_cast<uint32_t>(len.vs.value);
      n_known = true;
    }
    ValueSet b = buf.vs;
    if (may_be_tainted(buf.taint)) b = ValueSet::any();
    switch (b.kind) {
      case VsKind::kStackRel:
        if (n_known) taint_stack_range(b.value, n);
        else taint_stack_all();
        break;
      case VsKind::kConst: {
        const uint32_t a = static_cast<uint32_t>(b.value);
        switch (region_of_addr(a)) {
          case Region::kData:
            if (n_known) taint_global_range(a, n);
            else taint_globals_all();
            break;
          case Region::kStack: taint_stack_all(); break;
          case Region::kText: taint_text(); break;
          default: break;  // argv / low memory: not modeled
        }
        break;
      }
      case VsKind::kStackRegion: taint_stack_all(); break;
      case VsKind::kDataRegion: taint_globals_all(); break;
      case VsKind::kAny:
        taint_stack_all();
        taint_globals_all();
        taint_text();
        break;
    }
    s.set_reg(isa::kV0, AbsVal::untainted_any());
    return;
  }
  // Every other syscall returns an untainted result and writes no guest
  // memory (mirrors SimOs).
  s.set_reg(isa::kV0, AbsVal::untainted_any());
}

void VsaEngine::record_leak_site(uint32_t pc, const State& s) {
  if (!collecting_) return;
  const int li = leak_site_of_[cfg_.index_of(pc)];
  if (li < 0) return;
  LeakSite& site = leak_sites_[static_cast<size_t>(li)];
  std::set<uint64_t>& locs = leak_srcs_[static_cast<size_t>(li)];
  site.reachable = true;

  mem::TaintBits planes = 0;
  auto addp = [&](mem::TaintBits p, uint64_t loc) {
    p &= mem::kAddrMask;
    planes |= p;
    if (p != 0) locs.insert(loc);
  };
  auto scan_stack_byte = [&](int32_t a) {
    auto it = s.stack.find(a & ~3);
    const mem::TaintBits cell =
        it == s.stack.end() ? mem::kAddrMask : it->second.aprov;
    addp(static_cast<mem::TaintBits>(
             cell & mem::planes_to_word(mem::kByteAddrMask, a & 3)),
         kLocStack);
  };
  auto scan_global_byte = [&](uint32_t a) {
    auto it = s.globals.find(a & ~3u);
    if (it == s.globals.end()) {
      addp(static_cast<mem::TaintBits>(s.globals_aprov | s.heap_aprov),
           kLocGlobals);
      if (s.heap_aprov != 0) locs.insert(kLocHeap);
    } else {
      addp(static_cast<mem::TaintBits>(
               it->second.aprov &
               mem::planes_to_word(mem::kByteAddrMask,
                                   static_cast<int>(a & 3u))),
           loc_global(a & ~3u));
    }
  };
  auto all_stack = [&] { addp(mem::kAddrMask, kLocStack); };
  auto all_globals = [&] {
    addp(globals_region_aprov(s), kLocGlobals);
    if (s.heap_aprov != 0) locs.insert(kLocHeap);
  };
  auto all_text = [&] { addp(s.text_aprov, kLocText); };
  auto everything = [&] {
    all_stack();
    all_globals();
    all_text();
  };

  const AbsVal buf = s.reg(isa::kA1);
  const AbsVal len = s.reg(isa::kA2);
  uint32_t n = 0;
  bool n_known = false;
  if (len.vs.is_const() && static_cast<uint32_t>(len.vs.value) <= 4096) {
    n = static_cast<uint32_t>(len.vs.value);
    n_known = true;
  }
  ValueSet b = buf.vs;
  if (may_be_tainted(buf.taint)) b = ValueSet::any();  // wild buffer pointer
  switch (b.kind) {
    case VsKind::kStackRel:
      if (n_known) {
        for (uint32_t j = 0; j < n; ++j) {
          scan_stack_byte(b.value + static_cast<int32_t>(j));
        }
      } else {
        all_stack();
      }
      break;
    case VsKind::kConst: {
      const uint32_t a = static_cast<uint32_t>(b.value);
      switch (region_of_addr(a)) {
        case Region::kData:
          if (n_known) {
            for (uint32_t j = 0; j < n; ++j) scan_global_byte(a + j);
          } else {
            all_globals();
          }
          break;
        case Region::kStack: all_stack(); break;
        case Region::kText: all_text(); break;
        // Argv / low memory: stores there are not modeled, so assume the
        // worst rather than claim cleanliness the model cannot back.
        default: everything(); break;
      }
      break;
    }
    case VsKind::kStackRegion: all_stack(); break;
    case VsKind::kDataRegion: all_globals(); break;
    case VsKind::kAny: everything(); break;
  }
  site.may_planes |= planes;
}

void VsaEngine::record_leak_site_all(uint32_t pc) {
  if (!collecting_) return;
  const int li = leak_site_of_[cfg_.index_of(pc)];
  if (li < 0) return;
  LeakSite& site = leak_sites_[static_cast<size_t>(li)];
  site.reachable = true;
  site.may_planes = mem::kAddrMask;
  leak_srcs_[static_cast<size_t>(li)].insert(
      {kLocStack, kLocGlobals, kLocHeap, kLocText});
}

void VsaEngine::transfer(uint32_t pc, const Instruction& inst, State& s,
                         EventSet* sink, bool& dead, int fn) {
  const AbsVal rs = s.reg(inst.rs);
  const AbsVal rt = s.reg(inst.rt);
  std::array<AbsVal, RegState::kCount> pre;
  if (sink) pre = s.regs;
  // Address-plane or-merge of both operands (the dynamic default rule);
  // byte positions are preserved, as in the dynamic per-byte or.
  const auto ap2 = [&]() {
    return static_cast<mem::TaintBits>((rs.aprov | rt.aprov) & mem::kAddrMask);
  };

  switch (inst.op) {
    case Op::kSll: case Op::kSrl: case Op::kSra: {
      ValueSet v = ValueSet::any();
      if (rt.vs.is_const()) {
        const uint32_t x = static_cast<uint32_t>(rt.vs.value);
        const uint32_t sh = inst.shamt & 31u;
        const uint32_t y = inst.op == Op::kSll ? x << sh
                           : inst.op == Op::kSrl ? x >> sh
                           : static_cast<uint32_t>(
                                 static_cast<int32_t>(x) >> sh);
        v = ValueSet::constant(static_cast<int32_t>(y));
      }
      // A constant shift moves bytes: widen any plane over the result.
      s.set_reg(inst.rd, {rt.taint, v, mem::widen_planes(rt.aprov)});
      break;
    }
    case Op::kSllv: case Op::kSrlv: case Op::kSrav:
      s.set_reg(inst.rd, {join(rt.taint, rs.taint), ValueSet::any(),
                          mem::widen_planes(ap2())});
      break;

    case Op::kAdd: case Op::kAddu:
      s.set_reg(inst.rd,
                {join(rs.taint, rt.taint), vs_add(rs.vs, rt.vs), ap2()});
      break;
    case Op::kSub: case Op::kSubu: {
      // Pointer difference: a plane present on BOTH operands cancels
      // dynamically (ptr - ptr is a length, not an address).  The static
      // mirror cancels the stack plane when both operands are sp-derived —
      // a must-claim modulo the in-region assumption (see sp_derived).
      mem::TaintBits ap = ap2();
      if (sp_derived(rs.vs) && sp_derived(rt.vs)) {
        ap &= static_cast<mem::TaintBits>(~mem::kStackAddrMask);
      }
      s.set_reg(inst.rd,
                {join(rs.taint, rt.taint), vs_sub(rs.vs, rt.vs), ap});
      break;
    }

    case Op::kOr: case Op::kNor: {
      ValueSet v = ValueSet::any();
      if (rs.vs.is_const() && rt.vs.is_const()) {
        uint32_t y = static_cast<uint32_t>(rs.vs.value) |
                     static_cast<uint32_t>(rt.vs.value);
        if (inst.op == Op::kNor) y = ~y;
        v = ValueSet::constant(static_cast<int32_t>(y));
      } else if (inst.op == Op::kOr && inst.rt == isa::kZero) {
        v = rs.vs;  // `move rd, rs` idiom
      } else if (inst.op == Op::kOr && inst.rs == isa::kZero) {
        v = rt.vs;
      }
      s.set_reg(inst.rd, {join(rs.taint, rt.taint), v, ap2()});
      break;
    }
    case Op::kAnd: {
      const bool with_zero = inst.rs == isa::kZero || inst.rt == isa::kZero;
      ValueSet v = ValueSet::any();
      if (with_zero) v = ValueSet::constant(0);
      else if (rs.vs.is_const() && rt.vs.is_const()) {
        v = ValueSet::constant(static_cast<int32_t>(
            static_cast<uint32_t>(rs.vs.value) &
            static_cast<uint32_t>(rt.vs.value)));
      }
      const Taint t = (policy_.and_zero_untaints && with_zero)
                          ? Taint::kUntainted
                          : join(rs.taint, rt.taint);
      const mem::TaintBits ap =
          (policy_.and_zero_untaints && with_zero) ? 0 : ap2();
      s.set_reg(inst.rd, {t, v, ap});
      break;
    }
    case Op::kXor: {
      ValueSet v = ValueSet::any();
      if (inst.rs == inst.rt) v = ValueSet::constant(0);
      else if (rs.vs.is_const() && rt.vs.is_const()) {
        v = ValueSet::constant(static_cast<int32_t>(
            static_cast<uint32_t>(rs.vs.value) ^
            static_cast<uint32_t>(rt.vs.value)));
      }
      const Taint t = (policy_.xor_self_untaints && inst.rs == inst.rt)
                          ? Taint::kUntainted
                          : join(rs.taint, rt.taint);
      const mem::TaintBits ap =
          (policy_.xor_self_untaints && inst.rs == inst.rt) ? 0 : ap2();
      s.set_reg(inst.rd, {t, v, ap});
      break;
    }

    // Compare family: the untaint rule clears taint but never the value set
    // (validating a pointer does not change where it points) nor the
    // address planes (provenance is sticky through compares); the 0/1
    // result itself carries no address bytes.
    case Op::kSlt: case Op::kSltu:
      if (policy_.compare_untaints) {
        s.set_reg(inst.rs, {Taint::kUntainted, rs.vs, rs.aprov});
        s.set_reg(inst.rt, {Taint::kUntainted, rt.vs, rt.aprov});
        s.set_reg(inst.rd, {Taint::kUntainted, ValueSet::any(), 0});
      } else {
        s.set_reg(inst.rd, {join(rs.taint, rt.taint), ValueSet::any(), 0});
      }
      break;
    case Op::kSlti: case Op::kSltiu:
      if (policy_.compare_untaints) {
        s.set_reg(inst.rs, {Taint::kUntainted, rs.vs, rs.aprov});
        s.set_reg(inst.rt, {Taint::kUntainted, ValueSet::any(), 0});
      } else {
        s.set_reg(inst.rt, {rs.taint, ValueSet::any(), 0});
      }
      break;

    case Op::kMult: case Op::kMultu: case Op::kDiv: case Op::kDivu: {
      // The dynamic rule or-merges the full plane vector into HI and LO
      // (this is what lets a divu-formatted pointer keep its provenance).
      const AbsVal v{join(rs.taint, rt.taint), ValueSet::any(),
                     mem::widen_planes(ap2())};
      s.set_reg(RegState::kHi, v);
      s.set_reg(RegState::kLo, v);
      break;
    }
    case Op::kMfhi: s.set_reg(inst.rd, s.reg(RegState::kHi)); break;
    case Op::kMflo: s.set_reg(inst.rd, s.reg(RegState::kLo)); break;
    case Op::kMthi: s.set_reg(RegState::kHi, rs); break;
    case Op::kMtlo: s.set_reg(RegState::kLo, rs); break;

    case Op::kTaintSet:
      // TAINTSET taints the data plane; address planes ride through.
      s.set_reg(inst.rd, {Taint::kMaybeTainted, rs.vs, rs.aprov});
      if (sink) sink->insert({pc, loc_reg(inst.rd), 0, Root::kTaintSet});
      break;
    case Op::kTaintClr:
      // TAINTCLR clears the whole plane vector (mirrors the dynamic rule).
      s.set_reg(inst.rd, {Taint::kUntainted, rs.vs, 0});
      break;

    case Op::kAddi: case Op::kAddiu:
      s.set_reg(inst.rt, {rs.taint,
                          vs_add(rs.vs, ValueSet::constant(inst.imm)),
                          rs.aprov});
      break;
    case Op::kOri: case Op::kXori: {
      ValueSet v = ValueSet::any();
      if (rs.vs.is_const()) {
        const uint32_t imm16 = static_cast<uint32_t>(inst.imm) & 0xffffu;
        const uint32_t x = static_cast<uint32_t>(rs.vs.value);
        v = ValueSet::constant(static_cast<int32_t>(
            inst.op == Op::kOri ? x | imm16 : x ^ imm16));
      }
      s.set_reg(inst.rt, {rs.taint, v, rs.aprov});
      break;
    }
    case Op::kAndi: {
      const uint32_t imm16 = static_cast<uint32_t>(inst.imm) & 0xffffu;
      ValueSet v = ValueSet::any();
      if (imm16 == 0) v = ValueSet::constant(0);
      else if (rs.vs.is_const()) {
        v = ValueSet::constant(static_cast<int32_t>(
            static_cast<uint32_t>(rs.vs.value) & imm16));
      }
      const Taint t = (policy_.and_zero_untaints && imm16 == 0)
                          ? Taint::kUntainted : rs.taint;
      const mem::TaintBits ap =
          (policy_.and_zero_untaints && imm16 == 0) ? 0 : rs.aprov;
      s.set_reg(inst.rt, {t, v, ap});
      break;
    }
    case Op::kLui: {
      // A text-range constant (`la label` of code, function pointers,
      // return targets) is a text address: seed text provenance, exactly
      // as the dynamic engines do.
      const uint32_t lv = (static_cast<uint32_t>(inst.imm) & 0xffffu) << 16;
      const uint32_t tb = cfg_.text_begin();
      const uint32_t te =
          tb + 4 * static_cast<uint32_t>(cfg_.instructions().size());
      const mem::TaintBits lt =
          lv >= tb && lv < te ? mem::kTextAddrMask : mem::kUntainted;
      s.set_reg(inst.rt, {Taint::kUntainted,
                          ValueSet::constant(static_cast<int32_t>(lv)), lt});
      if (sink && lt != 0) {
        aprov_events_.insert({pc, loc_reg(inst.rt), 0, Root::kTextAddrIntro});
      }
      break;
    }

    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLbu: case Op::kLhu:
      do_load(pc, inst, s, sink);
      break;
    case Op::kSb: case Op::kSh: case Op::kSw:
      do_store(pc, inst, s, sink, fn);
      break;

    case Op::kBeq: case Op::kBne:
      if (policy_.compare_untaints) {
        s.set_reg(inst.rs, {Taint::kUntainted, rs.vs, rs.aprov});
        s.set_reg(inst.rt, {Taint::kUntainted, rt.vs, rt.aprov});
      }
      break;
    case Op::kBlez: case Op::kBgtz: case Op::kBltz: case Op::kBgez:
      if (policy_.compare_untaints) {
        s.set_reg(inst.rs, {Taint::kUntainted, rs.vs, rs.aprov});
      }
      break;
    case Op::kBltzal: case Op::kBgezal:
      if (policy_.compare_untaints) {
        s.set_reg(inst.rs, {Taint::kUntainted, rs.vs, rs.aprov});
      }
      // The link register holds a return address: text provenance.
      s.set_reg(isa::kRa, {Taint::kUntainted,
                           ValueSet::constant(static_cast<int32_t>(pc + 4)),
                           mem::kTextAddrMask});
      if (sink) {
        aprov_events_.insert({pc, loc_reg(isa::kRa), 0, Root::kTextAddrIntro});
      }
      break;

    case Op::kJ: break;
    case Op::kJal:
      s.set_reg(isa::kRa, {Taint::kUntainted,
                           ValueSet::constant(static_cast<int32_t>(pc + 4)),
                           mem::kTextAddrMask});
      if (sink) {
        aprov_events_.insert({pc, loc_reg(isa::kRa), 0, Root::kTextAddrIntro});
      }
      break;
    case Op::kJr: break;
    case Op::kJalr:
      s.set_reg(inst.rd, {Taint::kUntainted,
                          ValueSet::constant(static_cast<int32_t>(pc + 4)),
                          mem::kTextAddrMask});
      if (sink) {
        aprov_events_.insert({pc, loc_reg(inst.rd), 0, Root::kTextAddrIntro});
      }
      break;

    case Op::kSyscall:
      do_syscall(pc, s, sink, dead, fn);
      break;
    case Op::kBreak:
    case Op::kInvalid:
      break;
  }

  // Generic register-to-register provenance edges for the witness fabric
  // (loads/stores/syscalls/TAINTSET emit their own above).  The address
  // planes get a parallel edge set feeding the leak witnesses.
  if (sink && !inst.is_mem() && inst.op != Op::kSyscall &&
      inst.op != Op::kTaintSet) {
    const Effects e = effects_of(inst);
    for (int w : e.writes) {
      if (w < 0) continue;
      const AbsVal& post = s.regs[static_cast<size_t>(w)];
      for (int r : e.reads) {
        if (r < 0) continue;
        const AbsVal& prev = pre[static_cast<size_t>(r)];
        if (may_be_tainted(post.taint) && may_be_tainted(prev.taint)) {
          sink->insert({pc, loc_reg(w), loc_reg(r), Root::kNone});
        }
        if ((post.aprov & mem::kAddrMask) != 0 &&
            (prev.aprov & mem::kAddrMask) != 0) {
          aprov_events_.insert({pc, loc_reg(w), loc_reg(r), Root::kNone});
        }
      }
    }
  }
}

// ---- function summaries ----------------------------------------------------

void VsaEngine::summary_write(int fn, int32_t off, AbsVal v) {
  if (fn < 0 || off < 0) return;
  FnSummary& sum = fns_[static_cast<size_t>(fn)].summary;
  auto it = sum.caller_writes.find(off);
  const AbsVal nv = it == sum.caller_writes.end() ? v : join(it->second, v);
  if (it == sum.caller_writes.end() || nv != it->second) {
    sum.caller_writes[off] = nv;
    summary_changed(fn);
  }
}

void VsaEngine::summary_unknown_write(int fn, Taint t, mem::TaintBits aprov) {
  if (fn < 0) return;
  FnSummary& sum = fns_[static_cast<size_t>(fn)].summary;
  const Taint nt = join(sum.unknown_taint, t);
  const mem::TaintBits na =
      static_cast<mem::TaintBits>(sum.unknown_aprov | aprov);
  if (!sum.unknown_write || nt != sum.unknown_taint ||
      na != sum.unknown_aprov) {
    sum.unknown_write = true;
    sum.unknown_taint = nt;
    sum.unknown_aprov = na;
    summary_changed(fn);
  }
}

void VsaEngine::summary_changed(int fidx) {
  auto it = call_pairs_.find(fidx);
  if (it == call_pairs_.end()) return;
  for (uint32_t call_pc : it->second) queue_compose(call_pc, fidx);
}

// ---- interprocedural driver ------------------------------------------------

void VsaEngine::flow_to(int b, const State& s) {
  if (b < 0) return;
  const auto ub = static_cast<size_t>(b);
  if (has_in_[ub] == 0) {
    in_state_[ub] = s;
    has_in_[ub] = 1;
  } else {
    State j = join_states(in_state_[ub], s);
    if (j == in_state_[ub]) return;
    in_state_[ub] = std::move(j);
  }
  if (queued_[ub] == 0) {
    queued_[ub] = 1;
    worklist_.push_back(b);
  }
}

void VsaEngine::queue_compose(uint32_t call_pc, int fidx) {
  if (compose_queued_.insert({call_pc, fidx}).second) {
    compose_q_.push_back({call_pc, fidx});
  }
}

State VsaEngine::degrade_for_foreign(const State& s) const {
  State r = s;
  r.stack.clear();
  for (AbsVal& v : r.regs) v.vs = unanchor_vs(v.vs);
  r.regs[0] = AbsVal::untainted_const(0);
  return r;
}

// The no-information state that survives a call whose callee the CFG could
// not resolve: every register, memory region and cell may hold anything,
// possibly tainted.
State VsaEngine::smash_unknown_call() {
  State r;
  for (AbsVal& v : r.regs) v = AbsVal::maybe_any();
  r.regs[0] = AbsVal::untainted_const(0);
  r.globals_default = Taint::kMaybeTainted;
  r.heap = Taint::kMaybeTainted;
  r.text = Taint::kMaybeTainted;
  r.globals_aprov = mem::kAddrMask;
  r.heap_aprov = mem::kAddrMask;
  r.text_aprov = mem::kAddrMask;
  return r;  // stack empty: absent = kStackDefault = maybe-any
}

State VsaEngine::make_entry(const CallSite& cs) const {
  State e;
  for (int i = 0; i < RegState::kCount; ++i) {
    AbsVal v = cs.state.regs[static_cast<size_t>(i)];
    v.vs = cs.d_known ? rebase_vs(v.vs, -cs.d) : unanchor_vs(v.vs);
    e.regs[static_cast<size_t>(i)] = v;
  }
  e.regs[0] = AbsVal::untainted_const(0);
  // By definition of the callee frame coordinates, the entry $sp is offset
  // zero; the convention is verified (not assumed) because the exit $sp is
  // whatever the analysis computes and is rebased back at compose time.
  e.set_reg(isa::kSp, {cs.state.reg(isa::kSp).taint, ValueSet::stack_rel(0),
                       cs.state.reg(isa::kSp).aprov});
  e.globals = cs.state.globals;
  e.globals_default = cs.state.globals_default;
  e.heap = cs.state.heap;
  e.text = cs.state.text;
  e.globals_aprov = cs.state.globals_aprov;
  e.heap_aprov = cs.state.heap_aprov;
  e.text_aprov = cs.state.text_aprov;
  return e;
}

void VsaEngine::handle_call(uint32_t call_pc, int caller_fn, int fidx,
                            const State& s) {
  CallSite& cs = call_sites_[call_pc];
  std::optional<int32_t> d;
  if (s.reg(isa::kSp).vs.is_stack_rel()) d = s.reg(isa::kSp).vs.value;
  if (!cs.seen) {
    cs.seen = true;
    cs.state = s;
    cs.caller_fn = caller_fn;
    cs.d_known = d.has_value();
    cs.d = d.value_or(0);
  } else {
    cs.state = join_states(cs.state, s);
    if (cs.d_known && (!d.has_value() || *d != cs.d)) cs.d_known = false;
  }
  call_pairs_[fidx].insert(call_pc);
  const int eb = cfg_.block_at(cfg_.functions()[static_cast<size_t>(fidx)]
                                   .entry);
  if (eb >= 0) flow_to(eb, make_entry(cs));
  queue_compose(call_pc, fidx);
}

void VsaEngine::capture_exit(int fidx, const State& s) {
  State e = s;
  e.stack.clear();  // caller-frame effects travel via the summary instead
  FnInfo& fn = fns_[static_cast<size_t>(fidx)];
  if (!fn.has_exit) {
    fn.exit = std::move(e);
    fn.has_exit = true;
  } else {
    State j = join_states(fn.exit, e);
    if (j == fn.exit) return;
    fn.exit = std::move(j);
  }
  summary_changed(fidx);  // recompose every caller
}

void VsaEngine::compose(uint32_t call_pc, int fidx) {
  auto csit = call_sites_.find(call_pc);
  if (csit == call_sites_.end()) return;
  const CallSite& cs = csit->second;
  // A copy: absorbing the callee's effects below may grow the caller's
  // summary, which is this very record for a recursive call.
  const FnInfo fn = fns_[static_cast<size_t>(fidx)];
  if (!fn.has_exit) return;  // callee (so far) never returns

  State r;
  for (int i = 0; i < RegState::kCount; ++i) {
    AbsVal v = fn.exit.regs[static_cast<size_t>(i)];
    v.vs = cs.d_known ? rebase_vs(v.vs, cs.d) : unanchor_vs(v.vs);
    r.regs[static_cast<size_t>(i)] = v;
  }
  r.regs[0] = AbsVal::untainted_const(0);
  r.globals = fn.exit.globals;
  r.globals_default = fn.exit.globals_default;
  r.heap = fn.exit.heap;
  r.text = fn.exit.text;
  r.globals_aprov = fn.exit.globals_aprov;
  r.heap_aprov = fn.exit.heap_aprov;
  r.text_aprov = fn.exit.text_aprov;

  if (cs.d_known) {
    for (const auto& [c, v] : cs.state.stack) {
      if (c < cs.d) continue;  // below the callee's entry $sp: dead on return
      AbsVal nv = v;
      if (fn.summary.unknown_write) {
        nv = join(nv, {fn.summary.unknown_taint, ValueSet::any(),
                       fn.summary.unknown_aprov});
      }
      if (nv != kStackDefault) r.stack.emplace(c, nv);
    }
    for (const auto& [cp, wv] : fn.summary.caller_writes) {
      const int32_t c = cp + cs.d;
      auto it = r.stack.find(c);
      if (it == r.stack.end()) continue;  // absent: already possibly tainted
      const AbsVal wv2{wv.taint, rebase_vs(wv.vs, cs.d), wv.aprov};
      const AbsVal nv = join(it->second, wv2);
      if (nv == kStackDefault) r.stack.erase(it);
      else it->second = nv;
    }
  }
  // else: frame offset unknown — every caller cell is dropped (= default).

  // Absorb the callee's caller-frame effects transitively into the caller's
  // own summary (a store into the caller's caller must survive two returns).
  if (cs.caller_fn >= 0) {
    if (cs.d_known) {
      for (const auto& [cp, wv] : fn.summary.caller_writes) {
        const int32_t c = cp + cs.d;
        if (c >= 0) {
          summary_write(cs.caller_fn, c,
                        {wv.taint, rebase_vs(wv.vs, cs.d), wv.aprov});
        }
      }
      if (fn.summary.unknown_write) {
        summary_unknown_write(cs.caller_fn, fn.summary.unknown_taint,
                              fn.summary.unknown_aprov);
      }
    } else if (fn.summary.unknown_write || !fn.summary.caller_writes.empty()) {
      Taint t = fn.summary.unknown_taint;
      mem::TaintBits ap = fn.summary.unknown_aprov;
      for (const auto& [cp, wv] : fn.summary.caller_writes) {
        t = join(t, wv.taint);
        ap = static_cast<mem::TaintBits>(ap | mem::widen_planes(wv.aprov));
      }
      summary_unknown_write(cs.caller_fn, t, ap);
    }
  }

  flow_to(cfg_.block_at(call_pc + 4), r);
}

// ---- leaf inlining ---------------------------------------------------------

std::optional<std::vector<int>> VsaEngine::compute_inline_plan(
    int fidx) const {
  const Function& f = cfg_.functions()[static_cast<size_t>(fidx)];
  const int eb = cfg_.block_at(f.entry);
  if (eb < 0) return std::nullopt;
  const auto& blocks = cfg_.blocks();
  std::set<int> seen{eb};
  std::deque<int> q{eb};
  size_t insts = 0;
  while (!q.empty()) {
    const int b = q.front();
    q.pop_front();
    const BasicBlock& bb = blocks[static_cast<size_t>(b)];
    if (bb.function != fidx) return std::nullopt;
    if (!bb.call_succs.empty() || bb.indirect_jump) return std::nullopt;
    insts += bb.size();
    for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
      const Op op = cfg_.inst_at(pc).op;
      if (op == Op::kJal || op == Op::kJalr || op == Op::kBltzal ||
          op == Op::kBgezal) {
        return std::nullopt;
      }
    }
    if (seen.size() > 16 || insts > 64) return std::nullopt;
    if (bb.returns) continue;
    for (int succ : bb.succs) {
      if (succ < 0) return std::nullopt;
      if (seen.insert(succ).second) q.push_back(succ);
    }
  }
  return std::vector<int>(seen.begin(), seen.end());
}

const std::vector<int>* VsaEngine::inline_plan(int fidx) {
  // The memoized plan vector is stable once inserted (node-based map), so
  // the returned pointer stays valid while later plans are added.
  auto it = inline_plans_.find(fidx);
  if (it == inline_plans_.end()) {
    it = inline_plans_.emplace(fidx, compute_inline_plan(fidx)).first;
  }
  return it->second ? &*it->second : nullptr;
}

std::optional<State> VsaEngine::run_inline(int fidx, int caller_fn,
                                           const State& at_call,
                                           EventSet* sink) {
  // Sub-fixpoint in *caller* coordinates: the callee's stack accesses name
  // the caller's precise frame cells (this is what lets a SYS_READ inside
  // `read()` taint exactly the buffer the caller passed).  The transfer
  // keeps `caller_fn`, so caller-frame summary attribution is also correct.
  const int eb = cfg_.block_at(cfg_.functions()[static_cast<size_t>(fidx)]
                                   .entry);
  if (eb < 0) return std::nullopt;
  std::map<int, State> in;
  std::map<int, bool> queued;
  std::deque<int> wl;
  in.emplace(eb, at_call);
  queued[eb] = true;
  wl.push_back(eb);
  std::optional<State> exit;
  auto flow_local = [&](int b, const State& s) {
    auto it = in.find(b);
    bool changed;
    if (it == in.end()) {
      in.emplace(b, s);
      changed = true;
    } else {
      State j = join_states(it->second, s);
      changed = !(j == it->second);
      it->second = std::move(j);
    }
    if (changed && !queued[b]) {
      queued[b] = true;
      wl.push_back(b);
    }
  };
  while (!wl.empty()) {
    if (++block_runs_ > kMaxBlockRuns) {
      exhausted_ = true;
      return std::nullopt;
    }
    const int b = wl.front();
    wl.pop_front();
    queued[b] = false;
    const BasicBlock& bb = cfg_.blocks()[static_cast<size_t>(b)];
    State s = in.at(b);
    bool dead = false;
    for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
      const Instruction& inst = cfg_.inst_at(pc);
      record_site(pc, inst, s);
      transfer(pc, inst, s, nullptr, dead, caller_fn);
      if (dead) break;
    }
    if (dead) continue;
    if (bb.returns) {
      if (exit.has_value()) exit = join_states(*exit, s);
      else exit = std::move(s);
      continue;
    }
    for (int succ : bb.succs) flow_local(succ, s);
  }
  if (sink != nullptr) {
    // Replay every visited block once from its fixpoint in-state to emit
    // the propagation events (std::map order: deterministic).
    for (const auto& [b, st] : in) {
      const BasicBlock& bb = cfg_.blocks()[static_cast<size_t>(b)];
      State s = st;
      bool dead = false;
      for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
        transfer(pc, cfg_.inst_at(pc), s, sink, dead, caller_fn);
        if (dead) break;
      }
    }
  }
  return exit;
}

// ---- block processing ------------------------------------------------------

State VsaEngine::block_in(int b) const {
  const BasicBlock& bb = cfg_.blocks()[static_cast<size_t>(b)];
  State s = in_state_[static_cast<size_t>(b)];

  // Degrade-only cross-check against the shared stack-height facts: if the
  // lint dataflow proved a different constant $sp delta at this block than
  // the value-set carries, trust neither.
  if (const std::optional<int32_t> d2 = heights_.at(bb.begin);
      d2.has_value() && s.reg(isa::kSp).vs.is_stack_rel() &&
      s.reg(isa::kSp).vs.value != *d2) {
    AbsVal sp = s.reg(isa::kSp);
    sp.vs = ValueSet::stack_region();
    s.set_reg(isa::kSp, sp);
  }
  return s;
}

void VsaEngine::process_block(int b) {
  const BasicBlock& bb = cfg_.blocks()[static_cast<size_t>(b)];
  State s = block_in(b);
  bool dead = false;
  for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
    const Instruction& inst = cfg_.inst_at(pc);
    record_site(pc, inst, s);
    transfer(pc, inst, s, nullptr, dead, bb.function);
    if (dead) break;
  }
  if (dead || exhausted_) return;
  after_block(bb, s);
}

void VsaEngine::after_block(const BasicBlock& bb, State& s) {
  const Instruction& last = cfg_.inst_at(bb.end - 4);
  const uint32_t call_pc = bb.end - 4;

  if (last.op == Op::kJal) {
    const int fidx =
        bb.call_succs.empty()
            ? -1
            : cfg_.blocks()[static_cast<size_t>(bb.call_succs[0])].function;
    if (fidx >= 0 && inline_plan(fidx) != nullptr) {
      std::optional<State> exit = run_inline(fidx, bb.function, s, nullptr);
      if (exit.has_value()) flow_to(cfg_.block_at(bb.end), *exit);
    } else if (fidx >= 0) {
      handle_call(call_pc, bb.function, fidx, s);
    } else {
      // Callee unresolvable (target outside the recovered functions).
      // Killing the path here would let downstream sites look dead, so
      // flow a fully-smashed state to the continuation instead: the
      // unknown callee may have written anything anywhere.
      const int cont = cfg_.block_at(bb.end);
      if (cont >= 0) flow_to(cont, smash_unknown_call());
    }
    return;
  }
  if (last.op == Op::kJalr) {
    for (int cb : bb.call_succs) {
      const int fidx = cfg_.blocks()[static_cast<size_t>(cb)].function;
      if (fidx >= 0) handle_call(call_pc, bb.function, fidx, s);
    }
    return;
  }
  if (bb.returns) {
    if (bb.function >= 0) {
      capture_exit(bb.function, s);
    } else {
      // A `jr $ra` outside any recovered function: we cannot pair it with a
      // call, so conservatively flow a smashed state to every graph-wired
      // return site rather than letting downstream code look dead.
      for (int succ : bb.succs) {
        if (succ >= 0) flow_to(succ, smash_unknown_call());
      }
    }
    return;  // in-function return-site succs are handled by compose()
  }
  for (int succ : bb.succs) {
    if (succ < 0) continue;
    if (cfg_.blocks()[static_cast<size_t>(succ)].function == bb.function) {
      flow_to(succ, s);
    } else {
      // Ordinary edge into another function (fallthrough, shared tails,
      // jump tables): the frame coordinate system no longer applies.
      flow_to(succ, degrade_for_foreign(s));
    }
  }
  for (int cb : bb.call_succs) {  // bltzal/bgezal conditional calls
    const int fidx = cfg_.blocks()[static_cast<size_t>(cb)].function;
    if (fidx >= 0) handle_call(call_pc, bb.function, fidx, s);
  }
}

void VsaEngine::run() {
  const int entry = cfg_.block_at(cfg_.program().entry);
  if (entry < 0) return;
  State boot;
  // The initial $sp is the root of stack address provenance (mirrors the
  // dynamic loader seed).
  boot.set_reg(isa::kSp, {Taint::kUntainted, ValueSet::stack_rel(0),
                          mem::kStackAddrMask});
  flow_to(entry, boot);

  while (!worklist_.empty() || !compose_q_.empty()) {
    if (exhausted_) break;
    if (!worklist_.empty()) {
      const int b = worklist_.front();
      worklist_.pop_front();
      queued_[static_cast<size_t>(b)] = 0;
      if (++block_runs_ > kMaxBlockRuns) {
        exhausted_ = true;
        break;
      }
      process_block(b);
    } else {
      const auto [call_pc, fidx] = compose_q_.front();
      compose_q_.pop_front();
      compose_queued_.erase({call_pc, fidx});
      compose(call_pc, fidx);
    }
  }
}

// ---- fact collection + witness generation ----------------------------------

// Replays every reached block once from its converged in-state to collect
// the per-site facts (verdicts, leak planes, witness-BFS targets) and, when
// requested, the propagation events.  Two separate sweeps:
//
//   1. The fact sweep applies the same stack-height degrade preamble
//      process_block applied during iteration, so the replayed states are
//      exactly the states the historical per-visit recording saw (the
//      transfer is monotone, so the final visit's facts are the join of
//      every visit's — recording once here is identical to recording every
//      visit there).
//   2. The event sweep reproduces the historical witness pass, which did
//      NOT apply the preamble; keeping it separate keeps witness text
//      byte-identical on the (pathological) blocks where the lint heights
//      and the value-set disagree about $sp.
void VsaEngine::collect_pass(const VsaOptions& options) {
  collecting_ = true;
  for (size_t b = 0; b < has_in_.size(); ++b) {
    if (has_in_[b] == 0) continue;
    const BasicBlock& bb = cfg_.blocks()[b];
    State s = block_in(static_cast<int>(b));
    bool dead = false;
    for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
      const Instruction& inst = cfg_.inst_at(pc);
      record_site(pc, inst, s);
      transfer(pc, inst, s, nullptr, dead, bb.function);
      if (dead) break;
    }
    if (dead) continue;
    const Instruction& last = cfg_.inst_at(bb.end - 4);
    if (last.op == Op::kJal && !bb.call_succs.empty()) {
      const int fidx =
          cfg_.blocks()[static_cast<size_t>(bb.call_succs[0])].function;
      if (fidx >= 0 && inline_plan(fidx) != nullptr) {
        run_inline(fidx, bb.function, s, nullptr);
      }
    }
  }
  collecting_ = false;

  if (!options.witnesses) return;
  // The boot $sp seed has no program point; anchor its root at the entry.
  aprov_events_.insert(
      {cfg_.program().entry, loc_reg(isa::kSp), 0, Root::kStackAddrIntro});
  for (size_t b = 0; b < has_in_.size(); ++b) {
    if (has_in_[b] == 0) continue;
    const BasicBlock& bb = cfg_.blocks()[b];
    State s = in_state_[b];
    bool dead = false;
    for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
      transfer(pc, cfg_.inst_at(pc), s, &events_, dead, bb.function);
      if (dead) break;
    }
    if (dead) continue;
    const Instruction& last = cfg_.inst_at(bb.end - 4);
    if (last.op == Op::kJal && !bb.call_succs.empty()) {
      const int fidx =
          cfg_.blocks()[static_cast<size_t>(bb.call_succs[0])].function;
      if (fidx >= 0 && inline_plan(fidx) != nullptr) {
        run_inline(fidx, bb.function, s, &events_);
      }
    }
  }
}

WitnessStep VsaEngine::render_step(const Event& e) const {
  WitnessStep st;
  st.pc = e.pc;
  st.loc = loc_name(e.dst);
  const std::string disasm =
      cfg_.in_text(e.pc) ? isa::disassemble(cfg_.inst_at(e.pc), e.pc) : "";
  switch (e.root) {
    case Root::kNone: st.event = disasm; break;
    case Root::kSyscallInput:
      st.event = "tainted input (SYS_READ/SYS_RECV): " + disasm;
      break;
    case Root::kArgv:
      st.event = "command-line argument bytes: " + disasm;
      break;
    case Root::kUninitStack:
      st.event = "unmodeled/uninitialized stack read: " + disasm;
      break;
    case Root::kTaintSet:
      st.event = "taint source: " + disasm;
      break;
    case Root::kStackAddrIntro:
      st.event = "stack address introduced (initial $sp)";
      break;
    case Root::kHeapAddrIntro:
      st.event = "heap address introduced (SYS_BRK): " + disasm;
      break;
    case Root::kTextAddrIntro:
      st.event = "text address introduced: " + disasm;
      break;
    case Root::kUnmodeledAddr:
      st.event = "unmodeled memory may hold addresses: " + disasm;
      break;
  }
  return st;
}

void VsaEngine::build_witnesses(VsaAnalysis& res) const {
  // Shortest may-taint paths over the event graph: multi-source BFS from
  // the root events.  Everything iterates in std::set/std::map order, so
  // the chosen witness is byte-identical across runs.
  std::map<uint64_t, std::vector<const Event*>> adj;
  std::map<uint64_t, const Event*> pred;
  std::deque<uint64_t> q;
  for (const Event& e : events_) {
    if (e.root == Root::kNone) adj[e.src].push_back(&e);
  }
  const auto drain = [&] {
    while (!q.empty()) {
      const uint64_t n = q.front();
      q.pop_front();
      auto it = adj.find(n);
      if (it == adj.end()) continue;
      for (const Event* e : it->second) {
        if (pred.emplace(e->dst, e).second) q.push_back(e->dst);
      }
    }
  };
  // Two seeding waves: genuine taint sources (syscall input, argv, TAINTSET)
  // first, so they explain a location before the weaker "unmodeled stack
  // read" fallback does — an absent cell a SYS_READ tainted is otherwise
  // indistinguishable from one the analysis never saw written.
  for (const Event& e : events_) {
    if (e.root != Root::kNone && e.root != Root::kUninitStack) {
      if (pred.emplace(e.dst, &e).second) q.push_back(e.dst);
    }
  }
  drain();
  for (const Event& e : events_) {
    if (e.root == Root::kUninitStack) {
      if (pred.emplace(e.dst, &e).second) q.push_back(e.dst);
    }
  }
  drain();

  for (const DerefSite& site : sites_) {
    if (!site.reachable || !may_be_tainted(site.may_taint)) continue;
    Witness w;
    w.site_pc = site.pc;
    const uint64_t target = loc_reg(site.addr_reg);
    if (pred.count(target)) {
      std::vector<WitnessStep> rev;
      uint64_t n = target;
      while (true) {
        const Event* e = pred.at(n);
        rev.push_back(render_step(*e));
        if (e->root != Root::kNone) break;
        n = e->src;
      }
      std::reverse(rev.begin(), rev.end());
      w.steps = std::move(rev);
      w.complete = true;
    }
    w.steps.push_back(
        {site.pc, "dereference: " + isa::disassemble(site.inst, site.pc),
         "reg:" + std::string(isa::reg_name(site.addr_reg))});
    res.witnesses.push_back(std::move(w));
  }
}

void VsaEngine::build_leak_witnesses(VsaAnalysis& res) const {
  // Same shortest-path construction as build_witnesses, over the
  // address-provenance event graph, targeting the memory locations whose
  // planes dirtied each output buffer.
  std::map<uint64_t, std::vector<const Event*>> adj;
  std::map<uint64_t, const Event*> pred;
  std::deque<uint64_t> q;
  for (const Event& e : aprov_events_) {
    if (e.root == Root::kNone) adj[e.src].push_back(&e);
  }
  const auto drain = [&] {
    while (!q.empty()) {
      const uint64_t n = q.front();
      q.pop_front();
      auto it = adj.find(n);
      if (it == adj.end()) continue;
      for (const Event* e : it->second) {
        if (pred.emplace(e->dst, e).second) q.push_back(e->dst);
      }
    }
  };
  // Genuine address introductions first; the unmodeled-memory fallbacks
  // second (same two-wave reasoning as the data-taint witnesses).
  for (const Event& e : aprov_events_) {
    if (e.root == Root::kStackAddrIntro || e.root == Root::kHeapAddrIntro ||
        e.root == Root::kTextAddrIntro) {
      if (pred.emplace(e.dst, &e).second) q.push_back(e.dst);
    }
  }
  drain();
  for (const Event& e : aprov_events_) {
    if (e.root != Root::kNone) {
      if (pred.emplace(e.dst, &e).second) q.push_back(e.dst);
    }
  }
  drain();

  for (size_t i = 0; i < leak_sites_.size(); ++i) {
    const LeakSite& site = leak_sites_[i];
    if (!site.reachable || site.may_planes == 0) continue;
    Witness w;
    w.site_pc = site.pc;
    for (uint64_t target : leak_srcs_[i]) {
      if (!pred.count(target)) continue;
      std::vector<WitnessStep> rev;
      uint64_t n = target;
      while (true) {
        const Event* e = pred.at(n);
        rev.push_back(render_step(*e));
        if (e->root != Root::kNone) break;
        n = e->src;
      }
      std::reverse(rev.begin(), rev.end());
      w.steps = std::move(rev);
      w.complete = true;
      break;
    }
    w.steps.push_back({site.pc,
                       "output: " +
                           isa::disassemble(cfg_.inst_at(site.pc), site.pc) +
                           " (SYS_WRITE/SYS_SEND buffer)",
                       "buffer"});
    res.leak_witnesses.push_back(std::move(w));
  }
}

VsaAnalysis VsaEngine::finish(const VsaOptions& options) {
  VsaAnalysis res;
  if (!exhausted_) collect_pass(options);
  // Snapshot once: the collect replay itself burns block-run budget (leaf
  // inlining) and can trip exhaustion at the budget edge; the whole result
  // must then degrade coherently rather than half-and-half.
  if (exhausted_) {
    // Budget exhausted: degrade every reachable site to "may be tainted"
    // (no elision, every site gets an incomplete witness) — sound.  The
    // leak sites degrade the same way: any reachable output may leak.
    const std::vector<bool> reach = cfg_.reachable_blocks();
    for (DerefSite& s : sites_) {
      const int b = cfg_.block_at(s.pc);
      if (b >= 0 && reach[static_cast<size_t>(b)]) {
        s.reachable = true;
        s.may_taint = Taint::kTop;
      }
    }
    for (LeakSite& s : leak_sites_) {
      const int b = cfg_.block_at(s.pc);
      if (b >= 0 && reach[static_cast<size_t>(b)]) {
        s.reachable = true;
        s.may_planes = mem::kAddrMask;
      }
    }
    events_.clear();
    aprov_events_.clear();
  }
  res.exhausted = exhausted_;
  res.sites = sites_;
  res.elision.assign(cfg_.instructions().size(), 0);
  for (const DerefSite& site : res.sites) {
    if (!site.reachable) {
      // The abstract execution never reaches this site: dead code under the
      // recovered-CFG caveat (code past an exit syscall, constant-false
      // branches, uncalled functions).  A site that cannot execute
      // trivially satisfies the elision contract — but only when the
      // fixpoint actually completed; an exhausted run proves nothing about
      // the blocks it never got to.
      if (!exhausted_) res.elision[cfg_.index_of(site.pc)] = 1;
      continue;
    }
    if (may_be_tainted(site.may_taint)) {
      ++res.possible_sites;
    } else {
      ++res.proven_clean;
      res.elision[cfg_.index_of(site.pc)] = 1;
    }
  }
  // Leak-site classification: a site is elided when its buffer is provably
  // plane-free on every reaching state, or when the completed fixpoint
  // proves the syscall dead.
  res.leak_sites = leak_sites_;
  res.output_sites = leak_sites_.size();
  res.leak_elision.assign(cfg_.instructions().size(), 0);
  for (LeakSite& site : res.leak_sites) {
    for (const auto& [begin, end] : options.may_publish) {
      if (site.pc >= begin && site.pc < end) site.annotated = true;
    }
    if (!site.reachable) {
      if (!exhausted_) {
        res.leak_elision[cfg_.index_of(site.pc)] = 1;
        ++res.leak_clean;
      }
      continue;
    }
    // Annotated sites are explained, not clean: the program declared it
    // publishes pointers here on purpose, so they leave the "possible"
    // pile without joining the proof bitmap (the dynamic waiver is the
    // Machine layer's set_publish_ranges, not an elision).
    if (site.annotated) {
      ++res.leak_annotated;
      continue;
    }
    if (site.may_planes != 0) {
      ++res.leak_possible;
    } else {
      ++res.leak_clean;
      res.leak_elision[cfg_.index_of(site.pc)] = 1;
    }
  }
  if (options.witnesses) {
    build_witnesses(res);
    build_leak_witnesses(res);
    // Annotated sites are explained by declaration; their flow traces
    // would only count as "unexplained" noise.
    if (!options.may_publish.empty()) {
      std::erase_if(res.leak_witnesses, [&](const Witness& w) {
        const LeakSite* site = res.leak_site_at(w.site_pc);
        return site != nullptr && site->annotated;
      });
    }
  }
  return res;
}

}  // namespace

// ---- public API ------------------------------------------------------------

namespace {
std::string plane_classes(mem::TaintBits p) {
  std::string s;
  auto addc = [&](mem::TaintBits m, const char* name) {
    if ((p & m) == 0) return;
    if (!s.empty()) s += ',';
    s += name;
  };
  addc(mem::kStackAddrMask, "stack-addr");
  addc(mem::kHeapAddrMask, "heap-addr");
  addc(mem::kTextAddrMask, "text-addr");
  return s;
}
}  // namespace

bool VsaAnalysis::predicts_alert(uint32_t pc) const {
  const DerefSite* s = site_at(pc);
  return s != nullptr && may_be_tainted(s->may_taint);
}

const DerefSite* VsaAnalysis::site_at(uint32_t pc) const {
  auto it = std::lower_bound(
      sites.begin(), sites.end(), pc,
      [](const DerefSite& s, uint32_t p) { return s.pc < p; });
  if (it == sites.end() || it->pc != pc) return nullptr;
  return &*it;
}

const Witness* VsaAnalysis::witness_at(uint32_t pc) const {
  auto it = std::lower_bound(
      witnesses.begin(), witnesses.end(), pc,
      [](const Witness& w, uint32_t p) { return w.site_pc < p; });
  if (it == witnesses.end() || it->site_pc != pc) return nullptr;
  return &*it;
}

bool VsaAnalysis::predicts_leak(uint32_t pc) const {
  const LeakSite* s = leak_site_at(pc);
  return s != nullptr && s->reachable && s->may_planes != 0;
}

const LeakSite* VsaAnalysis::leak_site_at(uint32_t pc) const {
  auto it = std::lower_bound(
      leak_sites.begin(), leak_sites.end(), pc,
      [](const LeakSite& s, uint32_t p) { return s.pc < p; });
  if (it == leak_sites.end() || it->pc != pc) return nullptr;
  return &*it;
}

const Witness* VsaAnalysis::leak_witness_at(uint32_t pc) const {
  auto it = std::lower_bound(
      leak_witnesses.begin(), leak_witnesses.end(), pc,
      [](const Witness& w, uint32_t p) { return w.site_pc < p; });
  if (it == leak_witnesses.end() || it->site_pc != pc) return nullptr;
  return &*it;
}

std::string VsaAnalysis::leak_report(const Cfg& cfg) const {
  std::string out;
  char line[256];
  for (const LeakSite& s : leak_sites) {
    if (!s.reachable || (s.may_planes == 0 && !s.annotated)) continue;
    const int f = cfg.function_at(s.pc);
    if (s.annotated) {
      std::snprintf(line, sizeof line,
                    "%x: syscall (output)  annotated may-publish%s  [in %s]\n",
                    s.pc,
                    s.may_planes ? (" (" + plane_classes(s.may_planes) + ")")
                                       .c_str()
                                 : "",
                    f >= 0
                        ? cfg.functions()[static_cast<size_t>(f)].name.c_str()
                        : "?");
    } else {
      std::snprintf(line, sizeof line,
                    "%x: syscall (output)  may leak %-30s  [in %s]\n", s.pc,
                    plane_classes(s.may_planes).c_str(),
                    f >= 0
                        ? cfg.functions()[static_cast<size_t>(f)].name.c_str()
                        : "?");
    }
    out += line;
  }
  return out;
}

std::string VsaAnalysis::report(const Cfg& cfg) const {
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

VsaAnalysis analyze_vsa(const Cfg& cfg, const cpu::TaintPolicy& policy,
                        const VsaOptions& options) {
  VsaEngine engine(cfg, policy);
  engine.run();
  return engine.finish(options);
}

Gen2Elision gen2_elision(const Cfg& cfg, const cpu::TaintPolicy& policy,
                         const VsaAnalysis& vsa) {
  Gen2Elision r;
  r.elision = vsa.exhausted ? analyze_taint(cfg, policy).elision : vsa.elision;
  // Count every dereference site whose check the table actually skips —
  // clean sites plus sites the prover shows dead.
  r.sites = vsa.sites.size();
  for (const DerefSite& site : vsa.sites) {
    if (r.elision[cfg.index_of(site.pc)]) ++r.gen2_clean;
  }
  r.leak_elision = vsa.leak_elision;
  r.output_sites = vsa.output_sites;
  r.leak_clean = vsa.leak_clean;
  r.leak_annotated = vsa.leak_annotated;
  return r;
}

std::vector<std::pair<uint32_t, uint32_t>> resolve_publish_ranges(
    const asmgen::Program& program, const std::vector<std::string>& names,
    bool strict) {
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  const uint32_t text_end =
      isa::layout::kTextBase + 4 * static_cast<uint32_t>(program.text.size());
  for (const std::string& name : names) {
    bool found = false;
    for (size_t i = 0; i < program.function_labels.size(); ++i) {
      if (program.function_labels[i].second != name) continue;
      const uint32_t begin = program.function_labels[i].first;
      const uint32_t end = i + 1 < program.function_labels.size()
                               ? program.function_labels[i + 1].first
                               : text_end;
      ranges.emplace_back(begin, end);
      found = true;
      break;
    }
    if (!found && strict) {
      throw std::out_of_range("unknown may_publish function: " + name);
    }
  }
  return ranges;
}

}  // namespace ptaint::analysis

