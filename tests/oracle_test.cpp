// Differential oracle on generated programs.
//
// The superblock engine and the jit must match the step interpreter
// bit-for-bit, and a restored machine must match a freshly booted one —
// also when the machine last ran a *different* program, whose code image
// it keeps (cpu::CodeImage), or ran under another policy.  The curated
// corpora pin both on a few dozen hand-written guests; here a seeded
// generator (program_gen.hpp) supplies loops, calls, spills, tainted
// input, compare-untaint bounds checks, output, jumps through data and
// stores into text, and every run is sliced at random budgets so slice
// boundaries fall inside blocks.  After every slice the full observable
// state — registers with taint and address planes, counters, output,
// alert, and FNV hashes over the data and stack words with their planes —
// must agree.
//
// The programs derive from gtest's random seed: a plain run (tier-1)
// uses a fixed seed, and `--gtest_shuffle --gtest_repeat=N` draws a new
// program set per repetition.  A failure names the seed; rerun it with
// `--gtest_filter=GeneratedOracle.* --gtest_shuffle --gtest_random_seed=S`.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "program_gen.hpp"

namespace ptaint::core {
namespace {

constexpr cpu::Engine kAllEngines[] = {
    cpu::Engine::kStep, cpu::Engine::kSuperblock, cpu::Engine::kJit};

/// Programs per check: enough variety for a tier-1 gate, small enough to
/// stay a few seconds even under the sanitizers.
constexpr uint32_t kPrograms = 64;
constexpr uint32_t kPairs = 16;
constexpr uint32_t kFixedSeed = 20050628;
constexpr size_t kMaxSlices = 4000;

int gtest_seed() { return ::testing::UnitTest::GetInstance()->random_seed(); }

uint32_t base_seed() {
  const int s = gtest_seed();
  return s != 0 ? static_cast<uint32_t>(s) * 7919u : kFixedSeed;
}

/// A generated program plus the machine settings it runs under.  Odd seeds
/// install the static elision bitmap; every third seed turns on the
/// address-leak detector, so SYS_WRITE of a spilled pointer is a verdict.
struct Case {
  uint32_t seed = 0;
  testgen::GeneratedProgram program;
  bool elide = false;
  bool leak = false;
};

Case make_case(uint32_t seed) {
  Case c;
  c.seed = seed;
  c.program = testgen::ProgramGenerator(seed).generate();
  c.elide = seed % 2 == 1;
  c.leak = seed % 3 == 0;
  return c;
}

MachineConfig config_for(const Case& c, cpu::Engine engine,
                         cpu::TaintPolicy policy = {}) {
  MachineConfig cfg;
  cfg.engine = engine;
  cfg.static_elision = c.elide;
  cfg.policy = policy;
  cfg.policy.leak_detection = c.leak;
  cfg.max_instructions = 5'000'000;
  return cfg;
}

/// Loads `c` through the program memo (so two boots share one program
/// object, as served snapshots of one app do) with its input installed.
void boot(Machine& m, const Case& c) {
  m.load_sources({{"gen" + std::to_string(c.seed), c.program.source}});
  m.os().set_stdin(c.program.input);
}

uint64_t fnv(uint64_t h, uint64_t v) {
  h ^= v;
  return h * 1099511628211ull;
}

/// FNV-1a over value and taint (data bits and address planes) of every
/// word in [lo, hi).
uint64_t region_hash(Machine& m, uint32_t lo, uint32_t hi) {
  uint64_t h = 1469598103934665603ull;
  for (uint32_t a = lo; a < hi; a += 4) {
    const mem::TaintedWord w = m.memory().load_word(a);
    h = fnv(h, (static_cast<uint64_t>(a) << 32) | w.value);
    h = fnv(h, w.taint);
  }
  return h;
}

std::string fingerprint(Machine& m) {
  const RunReport r = m.report();
  std::ostringstream ss;
  ss << "stop=" << static_cast<int>(r.stop) << " exit=" << r.exit_status
     << " alert=" << (r.alert ? r.alert_line() : "-") << " fault=" << r.fault
     << " out=[" << r.stdout_text << "]";
  const cpu::CpuStats& c = r.cpu_stats;
  ss << " inst=" << c.instructions << " alu=" << c.alu_ops
     << " ld=" << c.loads << " st=" << c.stores << " br=" << c.branches
     << " taken=" << c.taken_branches << " j=" << c.jumps
     << " sys=" << c.syscalls << " tld=" << c.tainted_loads
     << " tst=" << c.tainted_stores << " cu=" << c.compare_untaints;
  const cpu::TaintUnit::Stats& t = r.taint_stats;
  ss << " ev=" << t.evaluations << " tev=" << t.tainted_evaluations
     << " tcu=" << t.compare_untaints << " and0=" << t.and_zero_untaints
     << " xor=" << t.xor_self_untaints << " tmem=" << r.tainted_memory_bytes;
  ss << std::hex << " pc=" << m.cpu().pc();
  const mem::RegisterFile& regs = m.cpu().regs();
  for (int i = 0; i < 32; ++i) {
    const mem::TaintedWord w = regs.get(static_cast<uint8_t>(i));
    ss << " " << w.value << "/" << w.taint;
  }
  ss << " hi=" << regs.hi().value << "/" << regs.hi().taint
     << " lo=" << regs.lo().value << "/" << regs.lo().taint;
  ss << " data=" << region_hash(m, isa::layout::kDataBase,
                                isa::layout::kDataBase + 0x800)
     << " stack=" << region_hash(m, isa::layout::kStackTop - 0x200,
                                 isa::layout::kStackTop + 0x80);
  return ss.str();
}

/// Runs `m` to a stop in seeded random slices and fingerprints the state
/// after each.  Mostly short slices, so boundaries land inside blocks, and
/// the occasional long one, so hot blocks reach the jit's compile
/// threshold.  A slice that ends with the machine still running must have
/// retired exactly its budget.
std::vector<std::string> drive(Machine& m, uint32_t slice_seed) {
  std::mt19937 rng(slice_seed);
  std::vector<std::string> prints;
  while (prints.size() < kMaxSlices) {
    const uint64_t k = rng() % 8 == 0 ? 1 + rng() % 4000 : 1 + rng() % 64;
    const uint64_t before = m.cpu().stats().instructions;
    const cpu::StopReason stop = m.run_for(k);
    std::string print = fingerprint(m);
    const uint64_t retired = m.cpu().stats().instructions - before;
    if (stop == cpu::StopReason::kRunning && retired != k) {
      print += " BUDGET " + std::to_string(retired) + "/" + std::to_string(k);
    }
    prints.push_back(std::move(print));
    if (stop != cpu::StopReason::kRunning) break;
  }
  return prints;
}

/// Empty when the two slice traces agree, else the first difference.
std::string divergence(const std::vector<std::string>& want,
                       const std::vector<std::string>& got) {
  for (size_t i = 0; i < want.size() && i < got.size(); ++i) {
    if (want[i] != got[i]) {
      return "slice " + std::to_string(i) + "\n  want " + want[i] +
             "\n  got  " + got[i];
    }
  }
  if (want.size() != got.size()) {
    return "slice count " + std::to_string(want.size()) + " vs " +
           std::to_string(got.size());
  }
  return "";
}

std::vector<std::string> fresh_run(const Case& c, cpu::Engine engine,
                                   uint32_t slice_seed,
                                   cpu::TaintPolicy policy = {}) {
  Machine m(config_for(c, engine, policy));
  boot(m, c);
  return drive(m, slice_seed);
}

MachineSnapshot boot_snapshot(const Case& c, cpu::Engine engine) {
  Machine m(config_for(c, engine));
  boot(m, c);
  return m.snapshot();
}

/// Every engine, sliced at random budgets, leaves exactly the state the
/// step interpreter leaves after every slice.
void check_engines_agree(const Case& c) {
  SCOPED_TRACE("seed " + std::to_string(c.seed));
  const std::vector<std::string> want =
      fresh_run(c, cpu::Engine::kStep, c.seed);
  ASSERT_FALSE(want.empty());
  for (const cpu::Engine engine : kAllEngines) {
    if (engine == cpu::Engine::kStep) continue;
    EXPECT_EQ("", divergence(want, fresh_run(c, engine, c.seed)))
        << cpu::to_string(engine) << "\n" << c.program.source;
  }
}

/// One pooled machine runs A, then B, then A again, then a second boot of
/// A (same program object, other page objects), then a mid-run snapshot of
/// A, changing policy at every restore (paper, no compare-untaint,
/// per-word taint, ...): every run must match a fresh machine booted under
/// the same policy.  A policy change reuses the pooled machine's
/// proof-free code images, but neither an elided image proven under
/// another policy nor jit host code, which bakes in the Table 1 rules.
void check_restore_after_other_program(const Case& a, const Case& b,
                                       cpu::Engine engine) {
  SCOPED_TRACE("seeds " + std::to_string(a.seed) + "/" +
               std::to_string(b.seed) + " on " + cpu::to_string(engine));
  const cpu::TaintPolicy paper = config_for(a, engine).policy;
  cpu::TaintPolicy no_compare_untaint = paper;
  no_compare_untaint.compare_untaints = false;
  cpu::TaintPolicy per_word = paper;
  per_word.per_word_taint = true;
  const std::vector<std::string> want_a = fresh_run(a, engine, a.seed);
  const std::vector<std::string> want_b =
      fresh_run(b, engine, b.seed, no_compare_untaint);
  const std::vector<std::string> want_a_per_word =
      fresh_run(a, engine, a.seed, per_word);
  const std::vector<std::string> want_a_no_compare_untaint =
      fresh_run(a, engine, a.seed, no_compare_untaint);
  const std::vector<std::string> want_b_per_word =
      fresh_run(b, engine, b.seed, per_word);
  const MachineSnapshot snap_a = boot_snapshot(a, engine);
  const MachineSnapshot snap_b = boot_snapshot(b, engine);
  const MachineSnapshot snap_a2 = boot_snapshot(a, engine);

  // A mid-run snapshot (its text may already be patched) and what the
  // original machine does from there.
  Machine original(config_for(a, engine));
  boot(original, a);
  original.run_for(50 + a.seed % 700);
  const MachineSnapshot snap_mid = original.snapshot();
  const std::vector<std::string> want_mid = drive(original, a.seed + 1);

  Machine pooled(config_for(a, engine));
  struct Step {
    const MachineSnapshot* snap;
    const cpu::TaintPolicy* policy;
    const std::vector<std::string>* want;
    uint32_t slice_seed;
    const char* what;
  };
  const Step steps[] = {
      {&snap_a, &paper, &want_a, a.seed, "A"},
      {&snap_b, &no_compare_untaint, &want_b, b.seed, "A->B"},
      {&snap_a, &per_word, &want_a_per_word, a.seed, "A->B->A"},
      {&snap_a, &paper, &want_a, a.seed, "A again (delta)"},
      {&snap_a2, &no_compare_untaint, &want_a_no_compare_untaint, a.seed,
       "second boot of A"},
      {&snap_mid, &paper, &want_mid, a.seed + 1, "mid-run A"},
      {&snap_b, &per_word, &want_b_per_word, b.seed, "back to B"},
  };
  for (const Step& s : steps) {
    pooled.restore(*s.snap, RestoreSettings{*s.policy, a.elide});
    EXPECT_EQ("", divergence(*s.want, drive(pooled, s.slice_seed)))
        << s.what;
  }
}

TEST(GeneratedOracle, EnginesAgreeUnderExactSlicing) {
  SCOPED_TRACE("gtest random seed " + std::to_string(gtest_seed()));
  const uint32_t base = base_seed();
  for (uint32_t i = 0; i < kPrograms; ++i) {
    check_engines_agree(make_case(base + i));
  }
}

TEST(GeneratedOracle, RestoreAfterAnotherProgramMatchesFreshBoot) {
  SCOPED_TRACE("gtest random seed " + std::to_string(gtest_seed()));
  const uint32_t base = base_seed() + 1'000'000;
  for (uint32_t i = 0; i < kPairs; ++i) {
    // One elision setting and leak direction per pair, so B runs under
    // A's; the policy changes at every restore.
    const Case a = make_case(base + 2 * i);
    Case b = make_case(base + 2 * i + 1);
    b.elide = a.elide;
    b.leak = a.leak;
    for (const cpu::Engine engine : kAllEngines) {
      check_restore_after_other_program(a, b, engine);
    }
  }
}

// Regression pinned from the generator: a guest dividing INT32_MIN by -1
// used to kill the host process with SIGFPE on every engine.
TEST(GeneratedOracle, SignedDivideOverflowWrapsOnEveryEngine) {
  const char* source = R"(
      .text
  _start:
      li $8, 0x80000000
      li $9, -1
      div $8, $9
      mflo $10
      mfhi $11
      li $12, 7
      div $8, $12
      mflo $13
      mfhi $14
      li $2, 1
      move $4, $14
      syscall
)";
  for (const cpu::Engine engine : kAllEngines) {
    MachineConfig cfg;
    cfg.engine = engine;
    Machine m(cfg);
    m.load_source(source);
    const RunReport r = m.run();
    EXPECT_EQ(r.stop, cpu::StopReason::kExit) << cpu::to_string(engine);
    EXPECT_EQ(m.cpu().regs().get(10).value, 0x80000000u);
    EXPECT_EQ(m.cpu().regs().get(11).value, 0u);
    EXPECT_EQ(static_cast<int32_t>(m.cpu().regs().get(13).value),
              INT32_MIN / 7);
    EXPECT_EQ(r.exit_status, INT32_MIN % 7);
  }
}

// Regression pinned from the generator: the elision proofs are about the
// program as assembled, so a store into text must void all of them — not
// only the patched PC's.  Here the patch turns a zeroing add into a load
// of tainted input, and the next dereference, proven clean on the original
// text, must still alert when elision is on.
TEST(GeneratedOracle, SelfModifyingCodeVoidsEveryElisionProof) {
  isa::Instruction load;
  load.op = isa::Op::kLw;
  load.rt = isa::kT0;
  load.rs = isa::kS0;
  const std::string source = R"(
      .data
  buf:
      .space 16
      .text
  _start:
      li $v0, 3
      li $a0, 0
      la $a1, buf
      li $a2, 4
      syscall
      la $s0, buf
      la $t4, site
      li $t5, )" + std::to_string(isa::encode(load)) + R"(
      sw $t5, 0($t4)
  site:
      addu $t0, $zero, $zero
      andi $t0, $t0, 12
      addu $t2, $s0, $t0
      lw $t3, 0($t2)
      li $v0, 1
      li $a0, 0
      syscall
)";
  for (const cpu::Engine engine : kAllEngines) {
    for (const bool elide : {false, true}) {
      MachineConfig cfg;
      cfg.engine = engine;
      cfg.static_elision = elide;
      Machine m(cfg);
      m.load_source(source);
      m.os().set_stdin(std::string("\x04\0\0\0", 4));
      const RunReport r = m.run();
      ASSERT_TRUE(r.detected()) << cpu::to_string(engine) << " elide=" << elide;
      EXPECT_EQ(r.alert->kind, cpu::AlertKind::kTaintedLoadAddress);
    }
  }
}

}  // namespace
}  // namespace ptaint::core
