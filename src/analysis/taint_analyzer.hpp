// Static pointer-taintedness analysis (the ahead-of-time mirror of the
// dynamic detector in src/cpu).
//
// An interprocedural, flow-sensitive, context-insensitive forward dataflow
// over the Cfg supergraph.  The abstract state is a RegState (lattice.hpp);
// the transfer function mirrors the Table 1 propagation rules and their
// four special cases exactly as the TaintPolicy configures them, with these
// memory-model abstractions:
//
//   * every load produces MaybeTainted — memory is summarized as possibly
//     tainted, since SYS_READ / SYS_RECV / argv bytes land there and flow
//     arbitrarily through stores (this is what keeps the analysis sound
//     without a points-to analysis);
//   * syscalls write only an untainted result into $v0 (mirrors SimOs);
//   * TAINTSET is a taint source; TAINTCLR and LUI produce Untainted.
//
// Outputs, per dereference site (every load, store, JR and JALR):
//   * `may_taint`  — the joined abstract taint of the address register over
//     every CFG path reaching the site.  Sites with Untainted are *proven
//     clean*: the dynamic detector can never fire there, so the interpreter
//     may elide the check (see docs/ANALYSIS.md for the soundness
//     argument and its recovered-CFG caveat).
//   * Sites that may be tainted form the static alert-site report
//     (`ptaint-lint`, the gen-1 column of `ptaint-prove`).
//
// The elision table Machine installs is the value-set prover's (vsa.hpp);
// this pass feeds it only as the cold, uncached fallback when the prover
// exhausts its budget (gen2_elision).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/lattice.hpp"
#include "cpu/taint_policy.hpp"

namespace ptaint::analysis {

/// One dereference site in the text segment.
struct DerefSite {
  uint32_t pc = 0;
  isa::Instruction inst;
  uint8_t addr_reg = 0;        // register dereferenced as pointer/target
  Taint may_taint = Taint::kUntainted;
  bool is_jump = false;        // JR/JALR (control transfer) vs load/store
  bool reachable = false;      // site lies on a CFG path from the entry
};

struct TaintAnalysis {
  std::vector<DerefSite> sites;  // ascending by PC

  /// Per-instruction elision bitmap over the text segment: byte i covers
  /// kTextBase + 4*i; 1 = the dereference check at that PC is proven
  /// unnecessary.  Non-dereference instructions are 0 (no check to elide).
  std::vector<uint8_t> elision;

  size_t possible_sites = 0;  // sites with may_be_tainted(may_taint)
  size_t proven_clean = 0;    // sites eligible for elision

  /// True when the dynamic alert at `pc` was statically predicted, i.e.
  /// `pc` is a dereference site with may_be_tainted().  The soundness
  /// cross-check of ptaint-campaign --static-check.
  bool predicts_alert(uint32_t pc) const;

  const DerefSite* site_at(uint32_t pc) const;

  /// Human-readable report of statically-possible tainted dereference
  /// sites, one line per site ("pc: disasm  [$reg]  in function").
  std::string report(const Cfg& cfg) const;
};

/// Runs the analysis.  `policy` selects which Table 1 special cases the
/// *dynamic* machine will apply — the static transfer function must mirror
/// them (an untaint rule the interpreter does not apply must not be assumed
/// statically, and vice versa).
TaintAnalysis analyze_taint(const Cfg& cfg, const cpu::TaintPolicy& policy);

/// Convenience: build the Cfg and analyze in one step.
TaintAnalysis analyze_taint(const asmgen::Program& program,
                            const cpu::TaintPolicy& policy);

}  // namespace ptaint::analysis
