// Tests for the assembled-program memo and shared programs
// (src/asmgen/program_memo.cpp): identical sources publish one object equal
// to a fresh assembly, any source or unit-name change misses, assembly
// errors are never cached, LRU eviction at kCapacity, concurrent misses
// collapsing onto one assembly, and the digest a shared program carries
// into the summary cache.  The suite name matches the CI thread sanitizer
// filter (ProgramMemo*).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/summary_cache.hpp"
#include "asmgen/program_memo.hpp"
#include "core/machine.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

namespace ptaint::asmgen {
namespace {

std::vector<Source> app_sources(const char* app = "wu-ftpd") {
  return guest::link_with_runtime(guest::apps::find_app(app)->make());
}

/// A tiny distinct program per `i`.
std::vector<Source> tiny(int i) {
  return {{"tiny", ".text\n_start:\n    li $a0, " + std::to_string(i) +
                       "\n    li $v0, 1\n    syscall\n"}};
}

void expect_same_program(const Program& a, const Program& b) {
  EXPECT_EQ(a.text, b.text);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.entry, b.entry);
  EXPECT_EQ(a.data_end, b.data_end);
  EXPECT_EQ(a.symbols, b.symbols);
  ASSERT_EQ(a.text_locs.size(), b.text_locs.size());
  auto x = a.text_locs.begin();
  for (auto y = b.text_locs.begin(); y != b.text_locs.end(); ++x, ++y) {
    EXPECT_EQ(x->first, y->first);
    EXPECT_EQ(x->second.file, y->second.file);
    EXPECT_EQ(x->second.line, y->second.line);
    EXPECT_EQ(x->second.col, y->second.col);
  }
  EXPECT_EQ(a.text_labels, b.text_labels);
  EXPECT_EQ(a.function_labels, b.function_labels);
}

TEST(ProgramMemoTest, IdenticalSourcesShareOneObjectEqualToAFreshAssembly) {
  ProgramMemo memo;
  const std::vector<Source> sources = app_sources();
  const auto first = memo.assemble(sources);
  const auto second = memo.assemble(app_sources());  // equal, not the same
  EXPECT_EQ(first.get(), second.get());
  const ProgramMemoStats s = memo.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.assemblies, 1u);
  EXPECT_EQ(s.entries, 1u);

  const Program fresh = assemble(sources);
  expect_same_program(*first, fresh);
  EXPECT_EQ(code_digest(first), code_digest(fresh));
}

TEST(ProgramMemoTest, AnyByteOrUnitNameChangeMisses) {
  ProgramMemo memo;
  const std::vector<Source> base = app_sources();
  const auto original = memo.assemble(base);
  uint64_t assemblies = memo.stats().assemblies;
  for (size_t unit = 0; unit < base.size(); ++unit) {
    std::vector<Source> edited = base;
    ASSERT_FALSE(edited[unit].text.empty());
    ASSERT_EQ(edited[unit].text.back(), '\n') << base[unit].name;
    edited[unit].text.back() = ' ';  // one byte, still assembles
    EXPECT_NE(memo.assemble(edited).get(), original.get()) << base[unit].name;
    EXPECT_EQ(memo.stats().assemblies, ++assemblies) << base[unit].name;

    std::vector<Source> renamed = base;
    renamed[unit].name += "~";
    EXPECT_NE(memo.assemble(renamed).get(), original.get()) << base[unit].name;
    EXPECT_EQ(memo.stats().assemblies, ++assemblies) << base[unit].name;
  }
  EXPECT_EQ(memo.assemble(base).get(), original.get());
}

TEST(ProgramMemoTest, AssemblyErrorThrowsEveryCallAndLeavesNoEntry) {
  ProgramMemo memo;
  const std::vector<Source> bad = {{"bad", ".text\n    frobnicate $1\n"}};
  EXPECT_THROW(memo.assemble(bad), AssemblyError);
  EXPECT_THROW(memo.assemble(bad), AssemblyError);
  const ProgramMemoStats s = memo.stats();
  EXPECT_EQ(s.assemblies, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST(ProgramMemoTest, EvictionAtCapacityDropsTheColdestEntry) {
  ProgramMemo memo;
  std::vector<std::shared_ptr<const Program>> held;
  for (int i = 0; i < static_cast<int>(ProgramMemo::kCapacity); ++i) {
    held.push_back(memo.assemble(tiny(i)));
  }
  EXPECT_EQ(memo.assemble(tiny(0)).get(), held[0].get());  // touch: now MRU
  memo.assemble(tiny(static_cast<int>(ProgramMemo::kCapacity)));
  ProgramMemoStats s = memo.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, ProgramMemo::kCapacity);
  const uint64_t assemblies = s.assemblies;
  EXPECT_EQ(memo.assemble(tiny(0)).get(), held[0].get());  // survived
  EXPECT_EQ(memo.stats().assemblies, assemblies);
  // tiny(1) was the coldest: assembled again, a new object.
  EXPECT_NE(memo.assemble(tiny(1)).get(), held[1].get());
  EXPECT_EQ(memo.stats().assemblies, assemblies + 1);
}

TEST(ProgramMemoTest, ConcurrentMissesOnOneKeyAssembleOnce) {
  ProgramMemo memo;
  const std::vector<Source> sources = app_sources("null-httpd");
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Program>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() { got[t] = memo.assemble(sources); });
  }
  for (auto& t : threads) t.join();
  for (const auto& p : got) EXPECT_EQ(p.get(), got.front().get());
  const ProgramMemoStats s = memo.stats();
  EXPECT_EQ(s.assemblies, 1u);
  EXPECT_EQ(s.lookups, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
}

TEST(ProgramMemoTest, MachinesAndSnapshotsShareTheMemosProgram) {
  core::Machine a;
  a.load_sources(app_sources("ghttpd"));
  core::Machine b;
  b.load_sources(app_sources("ghttpd"));
  EXPECT_EQ(&a.program(), &b.program());
  const core::MachineSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.program.get(), &a.program());

  // A restore that switches snapshots installs the snapshot's object.
  core::Machine other;
  other.load_sources(app_sources("globd"));
  const core::MachineSnapshot globd = other.snapshot();
  b.restore(globd);
  EXPECT_EQ(&b.program(), globd.program.get());
  b.restore(snap);
  EXPECT_EQ(&b.program(), snap.program.get());
}

TEST(ProgramMemoTest, SharedProgramCarriesItsDigestIntoTheSummaryCache) {
  const auto shared = share(assemble(app_sources("globd")));
  EXPECT_EQ(code_digest(shared), code_digest(*shared));

  analysis::SummaryCache cache;
  const auto by_value = cache.analyze(*shared, cpu::TaintPolicy{});
  const auto by_pointer = cache.analyze(shared, cpu::TaintPolicy{});
  EXPECT_EQ(by_value.get(), by_pointer.get());
  EXPECT_EQ(cache.stats().hits, 1u);

  // A mutated copy published again carries its own, different digest.
  Program edited = *shared;
  edited.text.front() ^= 1;
  const auto republished = share(std::move(edited));
  EXPECT_NE(code_digest(republished), code_digest(shared));
  EXPECT_EQ(code_digest(republished), code_digest(*republished));
}

}  // namespace
}  // namespace ptaint::asmgen
