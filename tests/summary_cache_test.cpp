// Tests for the process-wide analysis summary cache
// (src/analysis/summary_cache.cpp): exact content hits, per-function
// chained-hash determinism and locality, the incremental warm path's
// byte-identity contract against from-scratch cold runs (randomized over
// mutation sites, with and without witnesses), policy keying, LRU
// eviction, the memoization bypass, and concurrent lookups
// collapsing onto one analysis.  The suite names match the CI thread
// sanitizer filter (SummaryCache*).
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "asmgen/assembler.hpp"
#include "core/settings.hpp"
#include "core/spec_workloads.hpp"
#include "guest/runtime.hpp"
#include "isa/isa.hpp"

namespace ptaint::analysis {
namespace {

using isa::Op;

asmgen::Program spec_program(size_t index = 0) {
  auto workloads = core::make_spec_workloads(1);
  auto& w = workloads.at(index);
  return asmgen::assemble(guest::link_with_runtime(std::move(w.app)));
}

// ---- identity comparison ---------------------------------------------------

bool same_witnesses(const std::vector<Witness>& a,
                    const std::vector<Witness>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].site_pc != b[i].site_pc || a[i].complete != b[i].complete ||
        a[i].steps.size() != b[i].steps.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].steps.size(); ++j) {
      if (a[i].steps[j].pc != b[i].steps[j].pc ||
          a[i].steps[j].event != b[i].steps[j].event ||
          a[i].steps[j].loc != b[i].steps[j].loc) {
        return false;
      }
    }
  }
  return true;
}

bool same_leak_sites(const std::vector<LeakSite>& a,
                     const std::vector<LeakSite>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pc != b[i].pc || a[i].reachable != b[i].reachable ||
        a[i].may_planes != b[i].may_planes ||
        a[i].annotated != b[i].annotated) {
      return false;
    }
  }
  return true;
}

/// Full identity between two result sets: every surface a consumer reads.
::testing::AssertionResult identical(const Cfg& cfg, const CachedAnalysis& x,
                                     const CachedAnalysis& y) {
  if (x.gen2.elision != y.gen2.elision) {
    return ::testing::AssertionFailure() << "gen2 elision bitmap differs";
  }
  if (x.gen2.leak_elision != y.gen2.leak_elision) {
    return ::testing::AssertionFailure() << "leak elision bitmap differs";
  }
  if (x.g2.report(cfg) != y.g2.report(cfg)) {
    return ::testing::AssertionFailure() << "gen2 site report differs";
  }
  if (x.g2.leak_report(cfg) != y.g2.leak_report(cfg)) {
    return ::testing::AssertionFailure() << "leak report differs";
  }
  if (!same_witnesses(x.g2.witnesses, y.g2.witnesses)) {
    return ::testing::AssertionFailure() << "witnesses differ";
  }
  if (!same_witnesses(x.g2.leak_witnesses, y.g2.leak_witnesses)) {
    return ::testing::AssertionFailure() << "leak witnesses differ";
  }
  if (!same_leak_sites(x.g2.leak_sites, y.g2.leak_sites)) {
    return ::testing::AssertionFailure() << "leak sites differ";
  }
  if (x.block_leaders != y.block_leaders) {
    return ::testing::AssertionFailure() << "block leaders differ";
  }
  return ::testing::AssertionSuccess();
}

// ---- mutation sites --------------------------------------------------------

/// Register-only ALU instruction: defines one register, reads only
/// registers.  Mirrors the bench's invisible-swap predicate.
bool alu_reg_only(const isa::Instruction& in, uint8_t& def,
                  std::vector<uint8_t>& uses) {
  uses.clear();
  switch (in.op) {
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
      def = in.rd;
      uses = {in.rt};
      return true;
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kAdd:
    case Op::kAddu:
    case Op::kSub:
    case Op::kSubu:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
      def = in.rd;
      uses = {in.rs, in.rt};
      return true;
    case Op::kAddi:
    case Op::kAddiu:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
      def = in.rt;
      uses = {in.rs};
      return true;
    case Op::kLui:
      def = in.rt;
      return true;
    default:
      return false;
  }
}

/// All abstractly-invisible swap sites: adjacent commuting register-only
/// ALU pairs inside one block (text index of the first instruction).
std::vector<size_t> swap_sites(const Cfg& cfg) {
  std::vector<size_t> out;
  for (const BasicBlock& bb : cfg.blocks()) {
    if (bb.function < 0) continue;  // orphan text dirties every function
    for (uint32_t pc = bb.begin; pc + 8 <= bb.end; pc += 4) {
      const size_t i = cfg.index_of(pc);
      const isa::Instruction& a = cfg.instructions()[i];
      const isa::Instruction& b = cfg.instructions()[i + 1];
      uint8_t def_a = 0, def_b = 0;
      std::vector<uint8_t> uses_a, uses_b;
      if (!alu_reg_only(a, def_a, uses_a)) continue;
      if (!alu_reg_only(b, def_b, uses_b)) continue;
      if (def_a == 0 || def_b == 0 || def_a == def_b) continue;
      auto reads = [](const std::vector<uint8_t>& uses, uint8_t r) {
        return std::find(uses.begin(), uses.end(), r) != uses.end();
      };
      if (reads(uses_b, def_a) || reads(uses_a, def_b)) continue;
      if (cfg.program().text[i] == cfg.program().text[i + 1]) continue;
      out.push_back(i);
    }
  }
  return out;
}

/// Semantically *visible* mutation candidates: immediates of ALU-immediate
/// instructions that do not touch $sp (perturbing one genuinely changes
/// the program, so these exercise the warm path's verify-or-fall-back
/// contract rather than the pure splice).
std::vector<size_t> imm_sites(const Cfg& cfg) {
  std::vector<size_t> out;
  for (size_t i = 0; i < cfg.instructions().size(); ++i) {
    const isa::Instruction& in = cfg.instructions()[i];
    switch (in.op) {
      case Op::kAddiu:
      case Op::kOri:
      case Op::kXori:
        if (in.rt != isa::kSp && in.rs != isa::kSp) out.push_back(i);
        break;
      default:
        break;
    }
  }
  return out;
}

// ---- exact hits and keying -------------------------------------------------

/// The CI bypass leg (PTAINT_ANALYSIS_CACHE=0) re-runs the whole suite
/// with memoization off.  Tests asserting *memoization* semantics skip
/// there; the identity-contract tests keep running — verifying answers
/// don't change with the cache off is exactly that leg's job.
#define PTAINT_REQUIRE_CACHE_ON()                                     \
  if (!core::settings().analysis_cache) {                             \
    GTEST_SKIP() << "memoization disabled via PTAINT_ANALYSIS_CACHE"; \
  }

TEST(SummaryCacheTest, ExactContentHitReturnsTheSameResultObject) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program program = spec_program();
  SummaryCache cache;
  const auto a = cache.analyze(program, {});
  const auto b = cache.analyze(program, {});
  EXPECT_EQ(a.get(), b.get());  // same shared object, no re-analysis
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.cold_misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(SummaryCacheTest, PolicyColumnIsPartOfTheKey) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program program = spec_program();
  SummaryCache cache;
  cpu::TaintPolicy pointer_taint;
  cpu::TaintPolicy control_only;
  control_only.mode = cpu::DetectionMode::kControlDataOnly;
  const auto a = cache.analyze(program, pointer_taint);
  const auto b = cache.analyze(program, control_only);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().hits, 0u);  // no cross-policy hit
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SummaryCacheTest, EvictionAtCapacityDropsTheColdestEntry) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program a = spec_program(0);
  const asmgen::Program b = spec_program(1);
  SummaryCache cache;
  cache.set_capacity(1);
  (void)cache.analyze(a, {});
  (void)cache.analyze(b, {});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  // `a` was evicted: looking it up again is not a hit.
  (void)cache.analyze(a, {});
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(SummaryCacheTest, DisabledViaConfigStillComputesCorrectly) {
  const asmgen::Program program = spec_program();
  SummaryCache reference;
  const auto want = reference.analyze(program, {});

  SummaryCache cache;
  cache.set_enabled(false);
  EXPECT_FALSE(cache.enabled());
  const auto x = cache.analyze(program, {});
  const auto y = cache.analyze(program, {});

  EXPECT_NE(x.get(), y.get());  // nothing memoized
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().cold_misses, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
  const Cfg cfg(program);
  EXPECT_TRUE(identical(cfg, *want, *x));
  EXPECT_TRUE(identical(cfg, *want, *y));
}

// ---- function-hash determinism and locality --------------------------------

TEST(SummaryCacheTest, FunctionHashesAreDeterministicAcrossRunsAndJobs) {
  const asmgen::Program program = spec_program();
  SummaryCache serial;
  serial.set_jobs(1);
  SummaryCache parallel;
  parallel.set_jobs(4);
  const auto a = serial.analyze(program, {});
  const auto b = parallel.analyze(program, {});
  ASSERT_FALSE(a->fn_hashes.empty());
  EXPECT_EQ(a->fn_hashes, b->fn_hashes);
  // Re-assembling the identical source yields the identical hash vector.
  const auto c = SummaryCache().analyze(spec_program(), {});
  EXPECT_EQ(a->fn_hashes, c->fn_hashes);
  // Golden structural facts: one entry per recovered function, ascending.
  const Cfg cfg(program);
  ASSERT_EQ(a->fn_hashes.size(), cfg.functions().size());
  for (size_t i = 0; i < a->fn_hashes.size(); ++i) {
    EXPECT_EQ(a->fn_hashes[i].first, cfg.functions()[i].entry);
    if (i > 0) {
      EXPECT_LT(a->fn_hashes[i - 1].first, a->fn_hashes[i].first);
    }
  }
}

// A mutation in a leaf dirties exactly the leaf plus its transitive
// callers; unrelated functions keep their chained hash.
TEST(SummaryCacheTest, MutationDirtiesOnlyTheTransitiveCallerClosure) {
  constexpr const char* kSource = R"(
  .text
  _start:
    jal mid
    jal other
    li $v0, 1
    li $a0, 0
    syscall
  mid:
    addiu $sp, $sp, -8
    sw $ra, 4($sp)
    jal leaf
    lw $ra, 4($sp)
    addiu $sp, $sp, 8
    jr $ra
  leaf:
    li $t0, 1
    li $t1, 2
    jr $ra
  other:
    li $t2, 3
    jr $ra
)";
  asmgen::Program base = asmgen::assemble(kSource);
  const Cfg cfg(base);

  // Swap leaf's two independent loads: content changes, semantics do not.
  asmgen::Program mutated = base;
  uint32_t leaf_entry = 0;
  for (const Function& f : cfg.functions()) {
    if (f.name == "leaf") leaf_entry = f.entry;
  }
  ASSERT_NE(leaf_entry, 0u);
  const size_t i = cfg.index_of(leaf_entry);
  ASSERT_NE(mutated.text[i], mutated.text[i + 1]);
  std::swap(mutated.text[i], mutated.text[i + 1]);

  SummaryCache cache;
  const auto a = cache.analyze(base, {});
  const auto b = cache.analyze(mutated, {});
  ASSERT_EQ(a->fn_hashes.size(), b->fn_hashes.size());
  for (const Function& f : cfg.functions()) {
    const auto find = [&](const auto& v) {
      return std::lower_bound(v.begin(), v.end(),
                              std::pair<uint32_t, uint64_t>{f.entry, 0})
          ->second;
    };
    const bool in_closure =
        f.name == "leaf" || f.name == "mid" || f.name == "_start";
    if (in_closure) {
      EXPECT_NE(find(a->fn_hashes), find(b->fn_hashes)) << f.name;
    } else {
      EXPECT_EQ(find(a->fn_hashes), find(b->fn_hashes)) << f.name;
    }
  }
  // And (when memoizing) the warm attempt counted exactly that closure.
  if (cache.enabled()) {
    EXPECT_EQ(cache.stats().invalidated_fns, 3u);
  }
}

// ---- the incremental identity contract -------------------------------------

// Property test: mutate one function at a random site and compare the
// incremental warm re-analysis against a from-scratch cold run of the
// mutated program.  Two mutation kinds: abstractly-invisible swaps (warm
// path splices clean functions) and visible immediate perturbations (warm
// path must verify or fall back).  Both halves run with witnesses off
// (Machine-shaped, spliced collection) and on (witness traces are always
// fully recomputed).  Whatever path the cache takes, the result must be
// byte-identical to cold.
TEST(SummaryCacheTest, RandomMutationWarmEqualsColdProperty) {
  const asmgen::Program base = spec_program();
  const Cfg base_cfg(base);
  const std::vector<size_t> swaps = swap_sites(base_cfg);
  const std::vector<size_t> imms = imm_sites(base_cfg);
  ASSERT_FALSE(swaps.empty());
  ASSERT_FALSE(imms.empty());

  std::mt19937 rng(0x9e3779b9);  // fixed seed: reproducible failures
  uint64_t warm_hits = 0;
  for (int iter = 0; iter < 10; ++iter) {
    asmgen::Program mutated = base;
    if (iter % 2 == 0) {
      const size_t i = swaps[rng() % swaps.size()];
      std::swap(mutated.text[i], mutated.text[i + 1]);
    } else {
      const size_t i = imms[rng() % imms.size()];
      mutated.text[i] ^= 1u << (rng() % 8);  // perturb the immediate
    }
    VsaOptions opts;
    opts.witnesses = (iter % 4) < 2;

    SummaryCache warm_cache;
    (void)warm_cache.analyze(base, {}, opts);  // seed the warm base
    const auto warm = warm_cache.analyze(mutated, {}, opts);
    warm_hits += warm_cache.stats().warm_hits;

    SummaryCache cold_cache;
    const auto cold = cold_cache.analyze(mutated, {}, opts);

    const Cfg cfg(mutated);
    EXPECT_TRUE(identical(cfg, *cold, *warm))
        << "iter " << iter << (opts.witnesses ? " (witnesses)" : "");
  }
  // The invisible swaps must actually exercise the warm path (visible
  // mutations may fall back; that is their point).  With memoization
  // disabled every run is cold — the identity loop above is the test.
  if (core::settings().analysis_cache) {
    EXPECT_GE(warm_hits, 5u);
  }
}

// ---- concurrency -----------------------------------------------------------

TEST(SummaryCacheConcurrency, SameKeyLookupsCollapseOntoOneAnalysis) {
  PTAINT_REQUIRE_CACHE_ON();
  const asmgen::Program program = spec_program();
  SummaryCache cache;
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const CachedAnalysis>> results(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back(
          [&, t] { results[t] = cache.analyze(program, {}); });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[0].get(), results[t].get());
  }
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(s.cold_misses, 1u);  // one analysis served every waiter
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(SummaryCacheConcurrency, HammerMixedKeysStaysCoherent) {
  const asmgen::Program a = spec_program(0);
  const asmgen::Program b = spec_program(1);
  asmgen::Program a_mut = a;
  {
    const std::vector<size_t> sites = swap_sites(Cfg(a));
    ASSERT_FALSE(sites.empty());
    std::swap(a_mut.text[sites[0]], a_mut.text[sites[0] + 1]);
  }
  SummaryCache reference;
  const auto want_a = reference.analyze(a, {});
  const auto want_b = reference.analyze(b, {});
  const auto want_am = SummaryCache().analyze(a_mut, {});

  SummaryCache cache;
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  std::vector<int> failures(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int r = 0; r < kRounds; ++r) {
          const int pick = (t + r) % 3;
          const asmgen::Program& p = pick == 0 ? a : pick == 1 ? b : a_mut;
          const CachedAnalysis& want =
              pick == 0 ? *want_a : pick == 1 ? *want_b : *want_am;
          const auto got = cache.analyze(p, {});
          if (!identical(Cfg(p), want, *got)) ++failures[t];
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << "thread " << t;
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads * kRounds));
  EXPECT_EQ(s.hits + s.cold_misses + s.warm_hits + s.warm_fallbacks,
            s.lookups);
  if (cache.enabled()) {
    EXPECT_EQ(s.entries, 3u);
  }
}

}  // namespace
}  // namespace ptaint::analysis
