// Memory-aware value-set taint prover (second-generation static analysis).
//
// The register-only analyzer (taint_analyzer.cpp) summarizes all of memory
// as possibly tainted, so any value that transits memory — a spilled $ra, a
// pointer parked in a frame slot, a global flag — comes back MaybeTainted
// and poisons every dereference it later feeds.  This pass removes that
// cliff by tracking an abstract memory alongside the registers:
//
//   * stack frames    — per-function cells keyed by the frame-relative word
//                       offset from the function-entry $sp; the offsets are
//                       the stack-height facts shared with the lint pass
//                       (stack_height.cpp).  A missing cell means "unknown":
//                       junk below $sp or unseen caller memory, summarized
//                       as possibly tainted.
//   * globals/labels  — a map of absolute word addresses inside the data
//                       segment, initially untainted (the loader clears the
//                       taint plane), degraded to a region summary when a
//                       tainted store goes through an imprecise pointer.
//   * heap            — one taint summary for the brk-grown area; SYS_BRK
//                       results carry the kDataRegion value set.
//
// Interprocedural scheme: per-function frame coordinates.  A `jal` rebases
// register value sets into the callee frame (StackRel c -> c - delta) and
// contributes {registers, globals, heap} to the callee's entry state; the
// caller's own frame cells are *not* visible to the callee (a missing cell
// already means possibly-tainted, so this is sound and avoids cross-caller
// collisions).  On return the callee's exit registers are rebased back and
// the caller's cells are reconciled against the callee's *caller-writes
// summary*: every store the callee may perform at non-negative frame
// offsets (i.e. into its caller), plus an unknown-stack-store flag for
// stores through imprecise stack pointers.  Small leaf functions (the
// read/recv/strcpy-style wrappers) are instead inlined as a sub-fixpoint in
// caller coordinates, which is what lets a SYS_READ inside `read()` taint
// the precise caller cells its buffer argument names.
//
// Soundness is relative to the same recovered-CFG caveat as the first
// generation analyzer plus the in-region assumption documented on ValueSet
// (lattice.hpp): computed addresses are assumed not to wander out of the
// region their base came from.  Both are revalidated empirically by the
// bidirectional `ptaint-campaign --static-check` leg.
//
// Outputs:
//   * per-site verdicts (same DerefSite shape as gen-1) and a VSA elision
//     bitmap — the table Machine installs (`gen2_elision()`), with the
//     register-only analyzer as the fallback should the fixpoint exhaust
//     its budget;
//   * on request, a *witness* per possibly-tainted site: a shortest
//     source-rooted may-taint path (syscall input / argv / taintset /
//     uninitialized stack -> memory cells -> registers -> dereference PC)
//     over the propagation events observed at the fixpoint.
//
// Leak-site prover (the inverse taint direction): alongside data taint the
// abstract values carry address-provenance planes (AbsVal::aprov), seeded
// where the dynamic engines seed them — the boot $sp (stack), SYS_BRK
// results (heap), call links and text-range constants (text) — and
// propagated by the same per-plane rules.  Every `syscall` instruction is a
// potential kernel-output site (SYS_WRITE / SYS_SEND); the prover scans the
// abstract buffer each reaching state names and classifies the site
// provably-clean (no byte of the buffer can carry an address plane) or
// possibly-leaking.  Clean sites feed a leak-check elision bitmap the
// dynamic detector consults at syscall time; possibly-leaking sites get a
// witness tracing an address introduction to the output buffer.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/lattice.hpp"
#include "analysis/taint_analyzer.hpp"
#include "cpu/taint_policy.hpp"

namespace ptaint::analysis {

/// One hop of a may-taint path.  `pc` is the instruction that propagated
/// the taint (0 for roots that have no single program point).
struct WitnessStep {
  uint32_t pc = 0;
  std::string event;  // e.g. "syscall read taints stack cells" or a disasm
  std::string loc;    // destination location, e.g. "reg:$3", "stack",
                      // "global:0x10000040", "heap"
};

struct Witness {
  uint32_t site_pc = 0;
  bool complete = false;           // a source-rooted path was found
  std::vector<WitnessStep> steps;  // source first, dereference last
};

/// One kernel-output site: a `syscall` instruction that may execute
/// SYS_WRITE / SYS_SEND and emit guest memory to the outside world.
struct LeakSite {
  uint32_t pc = 0;
  bool reachable = false;
  /// Union over every reaching abstract state of the address-provenance
  /// planes (mem/taint.hpp layout; data nibble unused) the output buffer
  /// may hold.  0 = provably clean: the dynamic leak check cannot fire.
  mem::TaintBits may_planes = 0;
  /// The site sits inside a VsaOptions::may_publish range: the program
  /// legitimately publishes pointers here, so the prover treats it as
  /// explained (it is neither "possible" nor "clean" — it is waived).
  bool annotated = false;
};

struct VsaAnalysis {
  std::vector<DerefSite> sites;  // ascending by PC, verdicts from the VSA
  std::vector<uint8_t> elision;  // VSA bitmap (see gen2_elision)
  size_t possible_sites = 0;
  size_t proven_clean = 0;
  /// The fixpoint ran out of block-run budget: every CFG-reachable site
  /// degraded to Top (every address plane, for leak sites) and nothing is
  /// elided, dead code included.
  bool exhausted = false;

  // Leak-site prover outputs (address-taint direction).
  std::vector<LeakSite> leak_sites;     // ascending by PC
  std::vector<uint8_t> leak_elision;    // 1 = leak check elided at that PC
  size_t output_sites = 0;   // syscall instructions (potential output sites)
  size_t leak_possible = 0;  // reachable sites that may leak an address
  size_t leak_clean = 0;     // sites whose dynamic leak check is elided
  size_t leak_annotated = 0; // sites waived by a may_publish annotation

  /// Witnesses for every reachable may-tainted site, ascending by site PC.
  /// Empty unless VsaOptions::witnesses was set.
  std::vector<Witness> witnesses;

  /// Witnesses for every possibly-leaking output site (address introduction
  /// -> output buffer), ascending by site PC.  Same opt-in.
  std::vector<Witness> leak_witnesses;

  bool predicts_alert(uint32_t pc) const;
  const DerefSite* site_at(uint32_t pc) const;
  const Witness* witness_at(uint32_t pc) const;
  std::string report(const Cfg& cfg) const;

  /// True when a dynamic address-leak alert at `pc` was statically
  /// predicted — the --static-check contract for the leak direction.
  bool predicts_leak(uint32_t pc) const;
  const LeakSite* leak_site_at(uint32_t pc) const;
  const Witness* leak_witness_at(uint32_t pc) const;
  std::string leak_report(const Cfg& cfg) const;
};

struct VsaOptions {
  bool witnesses = false;
  /// §5.3-style may-publish annotations for the leak direction: text PC
  /// ranges (end-exclusive) whose kernel-output sites are declared
  /// legitimate pointer publishers.  Mirrors the dynamic waiver installed
  /// via cpu::Cpu::set_publish_ranges — an annotated site never raises a
  /// dynamic leak alert, and the prover marks it explained instead of
  /// reporting it as a possible leak.  Annotated sites never join the
  /// leak-elision bitmap: that bitmap remains a *proof* of plane-freedom,
  /// the annotation is a waiver the Machine layer applies separately.
  std::vector<std::pair<uint32_t, uint32_t>> may_publish;
};

/// One from-scratch fixpoint over `cfg`, iterated serially from a FIFO
/// worklist.  Deterministic: the same program, policy and options always
/// yield byte-identical output.  Consumers that see the same program
/// repeatedly go through the summary cache (summary_cache.hpp), which
/// memoizes this result by exact program content.
VsaAnalysis analyze_vsa(const Cfg& cfg, const cpu::TaintPolicy& policy,
                        const VsaOptions& options = {});

/// The second-generation elision table, the one Machine installs: the
/// VSA's deref and leak bitmaps.  The VSA bitmap holds every site the
/// register-only analyzer proves clean (a test pins this on every registry
/// app and policy column) plus sites whose cleanliness transits memory and
/// sites it proves dead (paths killed at exit syscalls or constant-false
/// branches — only when the fixpoint completed without exhaustion).
struct Gen2Elision {
  std::vector<uint8_t> elision;
  size_t gen2_clean = 0;  // sites whose check the table skips
                          // (clean or proven dead)
  size_t sites = 0;       // all dereference sites in the program

  // Leak-check elision (gen-1 has no address-provenance notion).
  std::vector<uint8_t> leak_elision;
  size_t output_sites = 0;
  size_t leak_clean = 0;
  size_t leak_annotated = 0;  // waived by VsaOptions::may_publish
};

/// Builds the table from a finished VSA run.  An exhausted run
/// (`vsa.exhausted`) elides nothing, so its deref bitmap is replaced by a
/// cold, uncached register-only analysis under `policy` — the only place
/// gen-1 feeds elision.  Leak elision stays the VSA's (all zero then).
Gen2Elision gen2_elision(const Cfg& cfg, const cpu::TaintPolicy& policy,
                         const VsaAnalysis& vsa);

/// Resolves function-label names to [begin, end) text PC ranges: each
/// function spans from its label to the next function label (or text end).
/// With `strict`, an unknown name throws std::out_of_range (the
/// load-program contract, mirroring Machine::protect_symbol); otherwise
/// unknown names are skipped (the restore path, where the program may
/// legitimately differ).
std::vector<std::pair<uint32_t, uint32_t>> resolve_publish_ranges(
    const asmgen::Program& program, const std::vector<std::string>& names,
    bool strict);

}  // namespace ptaint::analysis
