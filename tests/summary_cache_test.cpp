// Tests for the process-wide analysis summary cache
// (src/analysis/summary_cache.cpp), an exact-content memo: exact hits, the
// key contract (a text mutation misses and matches a direct analyze_vsa +
// gen2_elision, with and without witnesses; a data-only mutation hits),
// policy keying, LRU eviction, and concurrent lookups collapsing onto one
// analysis.  The suite names match the CI thread sanitizer filter
// (SummaryCache*).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "analysis/vsa.hpp"
#include "asmgen/assembler.hpp"
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

/// What a consumer without the cache computes: Cfg recovery, one
/// analyze_vsa, gen2_elision and the block leaders.
CachedAnalysis direct(const asmgen::Program& program,
                      const cpu::TaintPolicy& policy,
                      const VsaOptions& options) {
  const Cfg cfg(program);
  CachedAnalysis r;
  r.g2 = analyze_vsa(cfg, policy, options);
  r.gen2 = gen2_elision(cfg, policy, r.g2);
  r.block_leaders.assign(program.text.size(), 0);
  for (const BasicBlock& bb : cfg.blocks()) {
    r.block_leaders[cfg.index_of(bb.begin)] = 1;
  }
  return r;
}

// ---- mutation sites --------------------------------------------------------

/// Register-only ALU instruction: defines one register, reads only
/// registers.
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
/// the program, unlike an invisible swap).
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

TEST(SummaryCacheTest, ExactContentHitReturnsTheSameResultObject) {
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
  // kCapacity + 1 distinct programs: tiny ones, differing in one constant.
  std::vector<asmgen::Program> programs;
  for (size_t i = 0; i <= SummaryCache::kCapacity; ++i) {
    programs.push_back(asmgen::assemble(
        "  .text\n_start:\n  li $t0, " + std::to_string(i) +
        "\n  li $v0, 1\n  li $a0, 0\n  syscall\n"));
  }
  SummaryCache cache;
  for (size_t i = 0; i < SummaryCache::kCapacity; ++i) {
    (void)cache.analyze(programs[i], {});
  }
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, SummaryCache::kCapacity);
  // Touch programs[0] so programs[1] becomes the coldest entry.
  (void)cache.analyze(programs[0], {});
  EXPECT_EQ(cache.stats().hits, 1u);
  (void)cache.analyze(programs[SummaryCache::kCapacity], {});
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, SummaryCache::kCapacity);
  (void)cache.analyze(programs[0], {});
  EXPECT_EQ(cache.stats().hits, 2u);  // the touched entry survived
  (void)cache.analyze(programs[1], {});
  EXPECT_EQ(cache.stats().hits, 2u);  // the coldest one was evicted
}

// ---- the key contract ------------------------------------------------------

// Property test over fixed-seed mutations of a SPEC surrogate.  A *text*
// mutation (an invisible swap or a perturbed immediate) changes the key:
// it is a miss, and its result equals a direct analysis of the mutated
// program, with and without witnesses.  A *data-only* mutation keeps the
// key: it is an exact hit returning the very object the base lookup
// returned, which is why campaign payload variants share one entry.
TEST(SummaryCacheTest, TextMutationMissesAndDataMutationHitsProperty) {
  const asmgen::Program base = spec_program();
  const Cfg base_cfg(base);
  const std::vector<size_t> swaps = swap_sites(base_cfg);
  const std::vector<size_t> imms = imm_sites(base_cfg);
  ASSERT_FALSE(swaps.empty());
  ASSERT_FALSE(imms.empty());
  ASSERT_FALSE(base.data.empty());

  std::mt19937 rng(0x9e3779b9);  // fixed seed: reproducible failures
  for (int iter = 0; iter < 8; ++iter) {
    VsaOptions opts;
    opts.witnesses = (iter % 4) < 2;
    SummaryCache cache;
    const auto base_result = cache.analyze(base, {}, opts);

    asmgen::Program text_mut = base;
    if (iter % 2 == 0) {
      const size_t i = swaps[rng() % swaps.size()];
      std::swap(text_mut.text[i], text_mut.text[i + 1]);
    } else {
      const size_t i = imms[rng() % imms.size()];
      text_mut.text[i] ^= 1u << (rng() % 8);  // perturb the immediate
    }
    const auto got = cache.analyze(text_mut, {}, opts);
    EXPECT_NE(got.get(), base_result.get()) << "iter " << iter;
    EXPECT_EQ(cache.stats().hits, 0u) << "iter " << iter;
    EXPECT_EQ(cache.stats().cold_misses, 2u) << "iter " << iter;
    EXPECT_TRUE(identical(Cfg(text_mut), direct(text_mut, {}, opts), *got))
        << "iter " << iter << (opts.witnesses ? " (witnesses)" : "");

    asmgen::Program data_mut = base;
    data_mut.data[rng() % data_mut.data.size()] ^=
        static_cast<uint8_t>(1u << (rng() % 8));
    const auto hit = cache.analyze(data_mut, {}, opts);
    EXPECT_EQ(hit.get(), base_result.get()) << "iter " << iter;
    EXPECT_EQ(cache.stats().hits, 1u) << "iter " << iter;
  }
}

// ---- concurrency -----------------------------------------------------------

TEST(SummaryCacheConcurrency, SameKeyLookupsCollapseOntoOneAnalysis) {
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
  EXPECT_EQ(s.hits + s.cold_misses, s.lookups);
  EXPECT_EQ(s.entries, 3u);
}

}  // namespace
}  // namespace ptaint::analysis
