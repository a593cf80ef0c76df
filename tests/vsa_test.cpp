// Tests for the memory-aware value-set taint prover (src/analysis/vsa.cpp):
// frame-cell precision the register-only analyzer lacks, syscall buffer
// modeling, witness traces, the gen-2 elision table's strict-superset
// contract, static/dynamic Table 1 rule parity per policy column, and
// byte-identical determinism across repeat runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/taint_analyzer.hpp"
#include "analysis/vsa.hpp"
#include "campaign/campaigns.hpp"
#include "core/attack.hpp"
#include "core/machine.hpp"
#include "cpu/taint_unit.hpp"
#include "guest/apps/apps.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

namespace ptaint::analysis {
namespace {

using isa::Op;

VsaAnalysis analyze_source(const std::string& text, cpu::TaintPolicy policy = {},
                           bool witnesses = false) {
  const asmgen::Program p = asmgen::assemble(text);
  VsaOptions o;
  o.witnesses = witnesses;
  return analyze_vsa(Cfg(p), policy, o);
}

/// First dereference site in `va` whose base register is `reg` (and, when
/// `op` is given, whose opcode matches); null when absent.
const DerefSite* site_with_base(const VsaAnalysis& va, int reg,
                                std::optional<Op> op = std::nullopt) {
  for (const DerefSite& s : va.sites) {
    if (s.addr_reg == reg && (!op || s.inst.op == *op)) return &s;
  }
  return nullptr;
}

// ---- frame-cell precision --------------------------------------------------

// A $ra spill/reload around a call: the register-only analyzer sees the
// reload as "load = MaybeTainted" and poisons the return; the prover tracks
// the precise frame cell and clears it.
constexpr const char* kSpillReload = R"(
  .text
  _start:
    jal work
    li $v0, 1
    li $a0, 0
    syscall
  work:
    addiu $sp, $sp, -8
    sw $ra, 4($sp)
    jal leaf
    lw $ra, 4($sp)
    addiu $sp, $sp, 8
    jr $ra
  leaf:
    jr $ra
)";

TEST(VsaProver, FrameSpillReloadProvesReturnClean) {
  const asmgen::Program p = asmgen::assemble(kSpillReload);
  const Cfg cfg(p);
  const TaintAnalysis g1 = analyze_taint(cfg, {});
  const VsaAnalysis g2 = analyze_vsa(cfg, {});
  // Find work's `jr $ra` (the one preceded by the reload).
  const uint32_t work_entry = [&] {
    for (const auto& f : cfg.functions()) {
      if (f.name == "work") return f.entry;
    }
    ADD_FAILURE() << "no function `work`";
    return 0u;
  }();
  const DerefSite* s1 = nullptr;
  const DerefSite* s2 = nullptr;
  for (size_t i = 0; i < g1.sites.size(); ++i) {
    const DerefSite& s = g1.sites[i];
    if (s.is_jump && cfg.function_at(s.pc) >= 0 &&
        cfg.functions()[static_cast<size_t>(cfg.function_at(s.pc))].entry ==
            work_entry) {
      s1 = &s;
      s2 = &g2.sites[i];
    }
  }
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_TRUE(may_be_tainted(s1->may_taint))
      << "gen-1 should degrade the reloaded $ra";
  EXPECT_FALSE(may_be_tainted(s2->may_taint))
      << "the prover should clear the precise frame cell";
}

TEST(VsaProver, SpillReloadSiteEntersGen2Table) {
  const asmgen::Program p = asmgen::assemble(kSpillReload);
  const Cfg cfg(p);
  const Gen2Elision gen2 = gen2_elision(cfg, {}, analyze_vsa(cfg, {}));
  EXPECT_GT(gen2.gen2_clean, analyze_taint(cfg, {}).proven_clean)
      << "memory-transiting cleanliness should add elisions";
}

// ---- syscall buffer modeling -----------------------------------------------

// SYS_READ with a precise frame buffer taints exactly the buffer cells: a
// word loaded from inside the buffer poisons its dereference, a frame cell
// outside the buffer stays provably clean.
constexpr const char* kReadBuffer = R"(
  .text
  _start:
    addiu $sp, $sp, -32
    sw $zero, 28($sp)
    li $v0, 3        # SYS_READ
    li $a0, 0
    addiu $a1, $sp, 8
    li $a2, 16       # buffer = [sp+8, sp+24)
    syscall
    lw $t1, 8($sp)   # inside the buffer
    lw $v0, 0($t1)
    lw $t2, 28($sp)  # outside the buffer
    lw $v0, 0($t2)
    li $v0, 1
    li $a0, 0
    syscall
)";

TEST(VsaProver, SyscallTaintsPreciseBufferCellsOnly) {
  const VsaAnalysis va = analyze_source(kReadBuffer);
  const DerefSite* in_buf = site_with_base(va, isa::kT1, Op::kLw);
  const DerefSite* out_buf = site_with_base(va, isa::kT2, Op::kLw);
  ASSERT_NE(in_buf, nullptr);
  ASSERT_NE(out_buf, nullptr);
  EXPECT_TRUE(may_be_tainted(in_buf->may_taint));
  EXPECT_FALSE(may_be_tainted(out_buf->may_taint));
}

TEST(VsaProver, WitnessTracesInputToDereference) {
  const VsaAnalysis va =
      analyze_source(kReadBuffer, {}, /*witnesses=*/true);
  const DerefSite* in_buf = site_with_base(va, isa::kT1, Op::kLw);
  ASSERT_NE(in_buf, nullptr);
  const Witness* w = va.witness_at(in_buf->pc);
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->complete) << "path must start at a taint source";
  ASSERT_GE(w->steps.size(), 2u);
  EXPECT_NE(w->steps.front().event.find("input"), std::string::npos)
      << "root should be the SYS_READ, got: " << w->steps.front().event;
  EXPECT_EQ(w->steps.back().pc, in_buf->pc);
  EXPECT_NE(w->steps.back().event.find("dereference"), std::string::npos);
}

// ---- gen-2 supersedes gen-1 ------------------------------------------------

// The shipped table is the VSA bitmap alone.  It loses nothing against a
// gen-1 | VSA union only while the VSA covers every gen-1 elision and never
// exhausts (exhaustion switches to the gen-1 fallback) — pinned on every
// registry app under every campaign policy column.
TEST(Gen2Elision, StrictlySupersedesRegisterOnlyTable) {
  std::vector<campaign::PolicyVariant> columns = campaign::ablation_variants();
  for (const campaign::PolicyVariant& c : campaign::coverage_columns()) {
    columns.push_back(c);
  }
  for (const guest::apps::AppEntry& app : guest::apps::registry()) {
    const asmgen::Program p =
        asmgen::assemble(guest::link_with_runtime(app.make()));
    const Cfg cfg(p);
    for (const campaign::PolicyVariant& column : columns) {
      const TaintAnalysis g1 = analyze_taint(cfg, column.policy);
      const VsaAnalysis g2 = analyze_vsa(cfg, column.policy);
      EXPECT_FALSE(g2.exhausted) << app.name << " / " << column.name;
      ASSERT_EQ(g1.elision.size(), g2.elision.size());
      size_t lost = 0;
      for (size_t i = 0; i < g1.elision.size(); ++i) {
        if (g1.elision[i] != 0 && g2.elision[i] == 0) ++lost;
      }
      EXPECT_EQ(lost, 0u) << "gen-1 elisions missing from the VSA table: "
                          << app.name << " / " << column.name;
    }
  }
}

// No corpus program reaches the VSA's block-run budget, so the degraded
// result is built by hand, exactly as VsaEngine::finish degrades on
// exhaustion: every CFG-reachable site Top (leak sites: every address
// plane) and nothing elided.  The table must then be gen-1's.
TEST(Gen2Elision, ExhaustedVsaFallsBackToRegisterOnlyTable) {
  const asmgen::Program p =
      asmgen::assemble(guest::link_with_runtime(guest::apps::null_httpd()));
  const Cfg cfg(p);
  const cpu::TaintPolicy policy;
  VsaAnalysis vsa = analyze_vsa(cfg, policy);
  vsa.exhausted = true;
  const std::vector<bool> reach = cfg.reachable_blocks();
  auto reachable = [&](uint32_t pc) {
    const int b = cfg.block_at(pc);
    return b >= 0 && reach[static_cast<size_t>(b)];
  };
  for (DerefSite& s : vsa.sites) {
    if (!reachable(s.pc)) continue;
    s.reachable = true;
    s.may_taint = Taint::kTop;
  }
  for (LeakSite& s : vsa.leak_sites) {
    if (!reachable(s.pc)) continue;
    s.reachable = true;
    s.may_planes = mem::kAddrMask;
  }
  std::fill(vsa.elision.begin(), vsa.elision.end(), 0);
  std::fill(vsa.leak_elision.begin(), vsa.leak_elision.end(), 0);
  vsa.leak_clean = 0;

  const TaintAnalysis g1 = analyze_taint(cfg, policy);
  ASSERT_GT(g1.proven_clean, 0u);
  const Gen2Elision table = gen2_elision(cfg, policy, vsa);
  EXPECT_EQ(table.elision, g1.elision);
  EXPECT_EQ(table.gen2_clean, g1.proven_clean);
  EXPECT_TRUE(std::all_of(table.leak_elision.begin(), table.leak_elision.end(),
                          [](uint8_t bit) { return bit == 0; }));
}

// ---- static/dynamic Table 1 parity -----------------------------------------

// Per policy column, the prover's verdict on each special-case rule must
// match what the dynamic TaintUnit computes for the same instruction on a
// fully tainted operand: statically-clean iff dynamically-untainted.

/// Static side: abstract taint of a $t1 dereference after `body` runs on a
/// tainted $t0 (loaded from a SYS_READ buffer).
Taint vsa_taint_after(const std::string& body, const cpu::TaintPolicy& policy) {
  const VsaAnalysis va = analyze_source(
      ".text\n_start:\n  addiu $sp, $sp, -16\n"
      "  li $v0, 3\n  li $a0, 0\n  addiu $a1, $sp, 0\n  li $a2, 8\n"
      "  syscall\n  lw $t0, 0($sp)\n" +
          body +
          "\n  lw $v0, 0($t1)\n  li $v0, 1\n  li $a0, 0\n  syscall\n",
      policy);
  const DerefSite* s = site_with_base(va, isa::kT1, Op::kLw);
  if (s == nullptr) {
    ADD_FAILURE() << "no $t1 dereference site";
    return Taint::kTop;
  }
  return s->may_taint;
}

/// Dynamic side: does the TaintUnit leave the result untainted?
bool unit_clears(const cpu::TaintPolicy& policy, Op op, uint8_t rs, uint8_t rt,
                 mem::TaintedWord a, mem::TaintedWord b) {
  cpu::TaintUnit unit(policy);
  cpu::TaintOpInputs in;
  in.inst.op = op;
  in.inst.rs = rs;
  in.inst.rt = rt;
  in.inst.rd = 10;
  in.a = a;
  in.b = b;
  return unit.propagate(in).result_taint == mem::kUntainted;
}

TEST(PolicyParity, CompareRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    // Dynamic: slt on a tainted operand requests operand untainting.
    cpu::TaintUnit unit(v.policy);
    cpu::TaintOpInputs in;
    in.inst.op = Op::kSlt;
    in.inst.rs = 8;
    in.inst.rt = 11;
    in.inst.rd = 10;
    in.a = {100, mem::kAllTainted};
    in.b = {200};
    const bool dyn_clean = unit.propagate(in).untaint_sources;
    const Taint st =
        vsa_taint_after("  slt $t2, $t0, $t3\n  move $t1, $t0", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

TEST(PolicyParity, AndZeroRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    const bool dyn_clean =
        unit_clears(v.policy, Op::kAnd, 8, 0, {0x61626364, mem::kAllTainted},
                    {0, mem::kUntainted});
    const Taint st = vsa_taint_after("  and $t1, $t0, $zero", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

TEST(PolicyParity, XorSelfRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    const bool dyn_clean =
        unit_clears(v.policy, Op::kXor, 8, 8, {0x61616161, mem::kAllTainted},
                    {0x61616161, mem::kAllTainted});
    const Taint st = vsa_taint_after("  xor $t1, $t0, $t0", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

TEST(PolicyParity, ShiftRuleMatchesTaintUnitPerColumn) {
  for (const auto& v : campaign::ablation_variants()) {
    // A tainted shift amount taints the result under every column (the
    // shift_smear ablation only changes byte-level smearing, not this).
    const bool dyn_clean =
        unit_clears(v.policy, Op::kSllv, 8, 11, {4, mem::kAllTainted},
                    {0x61, mem::kUntainted});
    const Taint st = vsa_taint_after("  sllv $t1, $t3, $t0", v.policy);
    EXPECT_EQ(!may_be_tainted(st), dyn_clean) << "policy " << v.name;
  }
}

// ---- determinism -----------------------------------------------------------

TEST(Determinism, RepeatRunsAreByteIdentical) {
  const asmgen::Program p =
      asmgen::assemble(guest::link_with_runtime(guest::apps::ghttpd()));
  const Cfg cfg(p);
  VsaOptions o;
  o.witnesses = true;
  const VsaAnalysis a = analyze_vsa(cfg, {}, o);
  const VsaAnalysis b = analyze_vsa(cfg, {}, o);
  EXPECT_EQ(a.report(cfg), b.report(cfg));
  EXPECT_EQ(a.elision, b.elision);
  ASSERT_EQ(a.witnesses.size(), b.witnesses.size());
  for (size_t i = 0; i < a.witnesses.size(); ++i) {
    EXPECT_EQ(a.witnesses[i].site_pc, b.witnesses[i].site_pc);
    EXPECT_EQ(a.witnesses[i].complete, b.witnesses[i].complete);
    ASSERT_EQ(a.witnesses[i].steps.size(), b.witnesses[i].steps.size());
    for (size_t j = 0; j < a.witnesses[i].steps.size(); ++j) {
      EXPECT_EQ(a.witnesses[i].steps[j].pc, b.witnesses[i].steps[j].pc);
      EXPECT_EQ(a.witnesses[i].steps[j].event, b.witnesses[i].steps[j].event);
      EXPECT_EQ(a.witnesses[i].steps[j].loc, b.witnesses[i].steps[j].loc);
    }
  }
  const Gen2Elision g1 = gen2_elision(cfg, {}, analyze_vsa(cfg, {}));
  const Gen2Elision g2 = gen2_elision(cfg, {}, analyze_vsa(cfg, {}));
  EXPECT_EQ(g1.elision, g2.elision);
}

// ---- golden paper sites as prover witnesses --------------------------------

/// Runs the scenario's attack with gen-2 elision installed on `engine`,
/// checks the dynamic alert matches the paper's site, and requires the
/// prover to hold a complete witness trace for exactly that PC.
void expect_golden_witness(core::AttackId id, cpu::Engine engine,
                           const std::string& function,
                           const std::string& disasm_contains) {
  auto scenario = core::make_scenario(id);
  const cpu::TaintPolicy policy;  // paper defaults (pointer taintedness)
  auto machine = scenario->prepare_attack(policy, engine);
  machine->enable_static_elision();  // the gen-2 table
  core::RunReport report = machine->run();
  const core::ScenarioResult r =
      scenario->classify_attack(*machine, std::move(report));
  ASSERT_EQ(r.outcome, core::Outcome::kDetected) << r.detail;
  ASSERT_TRUE(r.report.alert.has_value());
  EXPECT_EQ(r.report.alert_function, function);
  EXPECT_NE(r.report.alert->disasm.find(disasm_contains), std::string::npos)
      << r.report.alert->disasm;

  const Cfg cfg(machine->program());
  VsaOptions o;
  o.witnesses = true;
  const VsaAnalysis va = analyze_vsa(cfg, policy, o);
  const Witness* w = va.witness_at(r.report.alert->pc);
  ASSERT_NE(w, nullptr) << "no prover witness for the paper alert site";
  EXPECT_TRUE(w->complete);
  ASSERT_GE(w->steps.size(), 2u);
  EXPECT_NE(w->steps.back().event.find("dereference"), std::string::npos);
}

constexpr cpu::Engine kStep = cpu::Engine::kStep;
constexpr cpu::Engine kSuperblock = cpu::Engine::kSuperblock;

TEST(GoldenWitness, Exp1StackJrRaBothEngines) {
  expect_golden_witness(core::AttackId::kExp1Stack, kStep, "exp1", "jr $31");
  expect_golden_witness(core::AttackId::kExp1Stack, kSuperblock, "exp1",
                        "jr $31");
}

TEST(GoldenWitness, Exp2HeapFreeBothEngines) {
  expect_golden_witness(core::AttackId::kExp2Heap, kStep, "free", "($");
  expect_golden_witness(core::AttackId::kExp2Heap, kSuperblock, "free",
                        "($");
}

TEST(GoldenWitness, Exp3FormatVfprintfBothEngines) {
  expect_golden_witness(core::AttackId::kExp3Format, kStep, "vfprintf",
                        "sw $21,0($3)");
  expect_golden_witness(core::AttackId::kExp3Format, kSuperblock, "vfprintf",
                        "sw $21,0($3)");
}

// ---- may-publish annotations (leak direction, §5.3 escape hatch) -----------

TEST(MayPublishProver, AnnotatedSitesAreExplainedNotPossible) {
  const asmgen::Program p = asmgen::assemble(
      guest::link_with_runtime(guest::apps::leak_telemetry()));
  const Cfg cfg(p);
  cpu::TaintPolicy policy;
  policy.leak_detection = true;

  VsaOptions plain;
  plain.witnesses = true;
  const VsaAnalysis before = analyze_vsa(cfg, policy, plain);
  ASSERT_GT(before.leak_possible, 0u)
      << "the telemetry app's send must be a possible leak site";
  EXPECT_EQ(before.leak_annotated, 0u);

  VsaOptions annotated = plain;
  annotated.may_publish = resolve_publish_ranges(p, {"send"}, true);
  const VsaAnalysis after = analyze_vsa(cfg, policy, annotated);
  EXPECT_GT(after.leak_annotated, 0u);
  EXPECT_LT(after.leak_possible, before.leak_possible)
      << "annotated sites leave the possible-leak bucket";
  // The waiver is not a proof: annotated sites never join the leak-check
  // elision bitmap (identical bitmaps with and without the annotation).
  EXPECT_EQ(after.leak_elision, before.leak_elision);
  EXPECT_EQ(after.leak_clean, before.leak_clean);
  // Annotated sites carry no witness (nothing to explain to the user).
  for (const Witness& w : after.leak_witnesses) {
    const LeakSite* site = after.leak_site_at(w.site_pc);
    ASSERT_NE(site, nullptr);
    EXPECT_FALSE(site->annotated);
  }
}

TEST(MayPublishProver, Gen2ElisionCarriesAnnotationCounts) {
  const asmgen::Program p = asmgen::assemble(
      guest::link_with_runtime(guest::apps::leak_telemetry()));
  const Cfg cfg(p);
  cpu::TaintPolicy policy;
  policy.leak_detection = true;
  VsaOptions options;
  options.may_publish = resolve_publish_ranges(p, {"send"}, true);
  const Gen2Elision gen2 =
      gen2_elision(cfg, policy, analyze_vsa(cfg, policy, options));
  EXPECT_GT(gen2.leak_annotated, 0u);
}

TEST(MayPublishProver, ResolveRangesMirrorsProtectSymbolContract) {
  const asmgen::Program p = asmgen::assemble(
      guest::link_with_runtime(guest::apps::leak_telemetry()));
  const auto ranges = resolve_publish_ranges(p, {"send"}, true);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_LT(ranges[0].first, ranges[0].second);
  EXPECT_THROW(resolve_publish_ranges(p, {"no_such_fn"}, true),
               std::out_of_range);
  // Non-strict (the restore path) skips unknown names instead.
  EXPECT_TRUE(resolve_publish_ranges(p, {"no_such_fn"}, false).empty());
}

}  // namespace
}  // namespace ptaint::analysis
