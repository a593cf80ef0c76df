// Content-addressed page store and the store-backed snapshot cache
// (DESIGN.md §13): exact interning with full-content collision handling,
// PackBits RLE round-trips over every plane, the compressed and disk
// fetch tiers, restart rehydration from a prior process's directory, the
// dehydrate/hydrate snapshot codec, and the SnapshotCache re-platformed
// on top of it all.  The concurrency stress runs under the TSan leg
// (PageStore* is in its filter).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/snapshot_cache.hpp"
#include "core/attack.hpp"
#include "core/machine.hpp"
#include "core/snapshot_io.hpp"
#include "mem/page_store.hpp"

namespace ptaint {
namespace {

using core::MachineSnapshot;
using mem::PageStore;
using Page = mem::TaintedMemory::Page;

std::string make_temp_dir() {
  char tmpl[] = "/tmp/ptaint_page_store_test.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir ? dir : "";
}

bool same_planes(const Page& a, const Page& b) {
  return a.data == b.data && a.taint == b.taint && a.aprov == b.aprov &&
         a.tainted_bytes == b.tainted_bytes && a.addr_bytes == b.addr_bytes;
}

/// Recomputes the derived summaries so hand-built pages obey the Page
/// invariants (decompress_page rebuilds them the same way).
void fix_summaries(Page& p) {
  uint32_t tainted = 0;
  for (uint8_t b : p.taint) tainted += std::popcount(b);
  p.tainted_bytes = tainted;
  uint32_t addr = 0;
  for (uint8_t b : p.aprov) {
    addr += (b & 0x0F) ? 1 : 0;
    addr += (b & 0xF0) ? 1 : 0;
  }
  p.addr_bytes = addr;
}

/// Pseudo-random page content: long runs (the RLE fast path) mixed with
/// noise, sparse-but-arbitrary taint bits, and address-provenance nibbles
/// drawn from every value the plane layout allows (data bit clear).
std::shared_ptr<Page> random_page(std::mt19937& rng) {
  auto p = std::make_shared<Page>();
  size_t i = 0;
  while (i < p->data.size()) {
    const size_t len = std::min<size_t>(1 + rng() % 300, p->data.size() - i);
    if (rng() % 2) {
      std::fill_n(p->data.begin() + i, len, static_cast<uint8_t>(rng()));
    } else {
      for (size_t j = 0; j < len; ++j) {
        p->data[i + j] = static_cast<uint8_t>(rng());
      }
    }
    i += len;
  }
  for (auto& b : p->taint) {
    b = (rng() % 4 == 0) ? static_cast<uint8_t>(rng()) : 0;
  }
  for (auto& b : p->aprov) {
    b = (rng() % 4 == 0) ? static_cast<uint8_t>(rng() & 0xEE) : 0;
  }
  fix_summaries(*p);
  return p;
}

// ---- interning -------------------------------------------------------------

TEST(PageStore, InternDedupsIdenticalContentExactly) {
  PageStore store;
  auto a = std::make_shared<Page>();
  a->data[5] = 0xAB;
  a->taint[0] = 0x01;
  fix_summaries(*a);
  auto b = std::make_shared<Page>(*a);

  const auto [canon_a, key_a] = store.intern(a);
  const auto [canon_b, key_b] = store.intern(b);
  EXPECT_EQ(canon_a.get(), canon_b.get())
      << "identical content must share one canonical block";
  EXPECT_EQ(key_a, key_b);

  // One plane bit of difference is new content, not a dedup hit.
  auto c = std::make_shared<Page>(*a);
  c->aprov[0] = 0x02;  // stack-provenance nibble on byte 0
  fix_summaries(*c);
  const auto [canon_c, key_c] = store.intern(c);
  EXPECT_NE(canon_c.get(), canon_a.get());
  EXPECT_FALSE(key_c == key_a);

  const PageStore::Stats s = store.stats();
  EXPECT_EQ(s.canonical_pages, 2u);
  EXPECT_EQ(s.interned_refs, 3u);
  EXPECT_EQ(s.dedup_hits, 1u);
  EXPECT_EQ(s.hot_pages, 2u);
}

TEST(PageStore, UnknownKeysFailCleanly) {
  PageStore store;
  const PageStore::Key bogus{0x1234567890ABCDEFull, 0};
  EXPECT_EQ(store.fetch(bogus), nullptr);
  EXPECT_FALSE(store.contains(bogus));
}

// ---- RLE codec -------------------------------------------------------------

TEST(PageStore, RleRoundTripPreservesEveryPlaneBit) {
  // Deterministic corners first: all-zero, all-ones, every aprov nibble
  // value (the 3 provenance bits per nibble, data bit clear), a taint
  // bitmap with every byte 0xFF.
  std::vector<Page> corners(3);
  corners[1].data.fill(0xFF);
  corners[1].taint.fill(0xFF);
  corners[1].aprov.fill(0xEE);
  for (size_t i = 0; i < corners[2].aprov.size(); ++i) {
    corners[2].aprov[i] = static_cast<uint8_t>(((i % 8) * 2) |
                                               (((i / 8) % 8) * 2) << 4);
  }
  for (Page& p : corners) {
    fix_summaries(p);
    const std::vector<uint8_t> img = PageStore::compress_page(p);
    const auto q = PageStore::decompress_page(img.data(), img.size());
    ASSERT_NE(q, nullptr);
    EXPECT_TRUE(same_planes(p, *q));
  }

  std::mt19937 rng(0x5eed1);
  for (int round = 0; round < 40; ++round) {
    const auto p = random_page(rng);
    const std::vector<uint8_t> img = PageStore::compress_page(*p);
    const auto q = PageStore::decompress_page(img.data(), img.size());
    ASSERT_NE(q, nullptr) << "round " << round;
    EXPECT_TRUE(same_planes(*p, *q)) << "round " << round;
  }

  // A mostly-zero guest page must compress well (the tier's point).
  Page sparse;
  sparse.data[100] = 0x42;
  fix_summaries(sparse);
  EXPECT_LT(PageStore::compress_page(sparse).size(),
            PageStore::kPlaneBytes / 2);

  // Corrupt/truncated images fail instead of fabricating planes.
  const std::vector<uint8_t> img = PageStore::compress_page(sparse);
  EXPECT_EQ(PageStore::decompress_page(img.data(), img.size() / 2), nullptr);
  EXPECT_EQ(PageStore::decompress_page(nullptr, 0), nullptr);
}

// ---- tiers -----------------------------------------------------------------

TEST(PageStore, RandomizedRoundTripsAcrossAllTiers) {
  // Property test: dedup + compression + the disk tier must preserve every
  // data byte and every taint/provenance bit of every interned page.
  std::mt19937 rng(0x5eed2);
  std::vector<std::pair<PageStore::Key, Page>> interned;
  const auto intern_corpus = [&](PageStore& store) {
    interned.clear();
    std::mt19937 corpus_rng(0x5eed2);
    for (int i = 0; i < 24; ++i) {
      auto p = random_page(corpus_rng);
      const Page copy = *p;
      const auto [canon, key] = store.intern(std::move(p));
      interned.emplace_back(key, copy);
      if (i % 3 == 0) {  // re-intern a duplicate of the same content
        const auto [dup, dup_key] = store.intern(std::make_shared<Page>(copy));
        EXPECT_EQ(dup_key, key);
      }
    }
  };
  const auto fetch_all = [&](PageStore& store, const char* what) {
    for (const auto& [key, original] : interned) {
      const auto fetched = store.fetch(key);
      ASSERT_NE(fetched, nullptr) << what;
      EXPECT_TRUE(same_planes(original, *fetched)) << what;
    }
  };

  {
    // Memory-only store: hot tier, then the compressed-image tier. Without a
    // disk dir every eviction must go through RLE, so decompressions are
    // deterministic here.
    PageStore store;
    intern_corpus(store);
    fetch_all(store, "hot tier");
    store.drop_caches(/*compressed_images=*/false);
    fetch_all(store, "compressed tier");
    const PageStore::Stats s = store.stats();
    EXPECT_GT(s.decompressions, 0u);
    EXPECT_GT(s.dedup_hits, 0u);
  }

  {
    // Disk-backed store: flush the write-behind queue, drop both in-memory
    // tiers, and prove every page round-trips through its page file.
    const std::string dir = make_temp_dir();
    {
      PageStore::Config config;
      config.disk_dir = dir;
      PageStore store(std::move(config));
      intern_corpus(store);
      store.flush();
      EXPECT_GT(store.stats().disk_pages, 0u);
      store.drop_caches(/*compressed_images=*/false);
      store.drop_caches(/*compressed_images=*/true);
      fetch_all(store, "disk tier");
      const PageStore::Stats s = store.stats();
      EXPECT_GT(s.disk_reads, 0u);
      EXPECT_GT(s.dedup_hits, 0u);
    }
    std::filesystem::remove_all(dir);
  }
}

TEST(PageStore, BlocksSharedWithLiveSnapshotsAreNeverDropped) {
  PageStore store;
  auto p = std::make_shared<Page>();
  p->data[0] = 0x7F;
  fix_summaries(*p);
  const auto [canon, key] = store.intern(p);  // `canon` is a live outside ref
  store.drop_caches(/*compressed_images=*/false);
  // The store was not the only owner, so the block must still be hot and
  // fetch must return the very same object, not an inflated copy.
  EXPECT_EQ(store.fetch(key).get(), canon.get());
  EXPECT_EQ(store.stats().evictions, 0u);
}

TEST(PageStore, DiskTierSurvivesRestart) {
  const std::string dir = make_temp_dir();
  std::mt19937 rng(0x5eed3);
  std::vector<std::pair<PageStore::Key, Page>> interned;
  {
    PageStore::Config config;
    config.disk_dir = dir;
    PageStore store(std::move(config));
    for (int i = 0; i < 8; ++i) {
      auto p = random_page(rng);
      const Page copy = *p;
      const auto [canon, key] = store.intern(std::move(p));
      interned.emplace_back(key, copy);
    }
    store.flush();
  }  // "process exit"

  PageStore::Config config;
  config.disk_dir = dir;
  PageStore revived(std::move(config));
  EXPECT_EQ(revived.stats().disk_pages, interned.size())
      << "the startup scan must register every page file";
  EXPECT_EQ(revived.stats().hot_pages, 0u) << "nothing is loaded eagerly";
  for (const auto& [key, original] : interned) {
    EXPECT_TRUE(revived.contains(key)) << "keys are stable across restarts";
    const auto fetched = revived.fetch(key);
    ASSERT_NE(fetched, nullptr);
    EXPECT_TRUE(same_planes(original, *fetched));
  }
  EXPECT_EQ(revived.stats().disk_reads, interned.size());
  std::filesystem::remove_all(dir);
}

// ---- concurrency (runs under the TSan leg) ---------------------------------

TEST(PageStore, ConcurrentInternFetchEvictStress) {
  PageStore::Config config;
  config.hot_page_budget = 8;  // force eviction churn
  PageStore store(std::move(config));

  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  constexpr int kContents = 32;
  auto content = [](int c) {
    auto p = std::make_shared<Page>();
    p->data[0] = static_cast<uint8_t>(c);
    p->data[4000] = static_cast<uint8_t>(c * 7);
    p->taint[c % p->taint.size()] = 0x81;
    p->aprov[c % p->aprov.size()] = 0x22;
    fix_summaries(*p);
    return p;
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t);
      for (int i = 0; i < kIters; ++i) {
        const int c = static_cast<int>(rng() % kContents);
        const auto [canon, key] = store.intern(content(c));
        EXPECT_EQ(canon->data[0], static_cast<uint8_t>(c));
        if (rng() % 4 == 0) {
          const auto fetched = store.fetch(key);
          ASSERT_NE(fetched, nullptr);
          EXPECT_EQ(fetched->data[4000], static_cast<uint8_t>(c * 7));
        }
        if (rng() % 8 == 0) store.evict_cold();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const PageStore::Stats s = store.stats();
  EXPECT_EQ(s.interned_refs, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_LE(s.canonical_pages, static_cast<uint64_t>(kContents));
  for (int c = 0; c < kContents; ++c) {
    const auto [canon, key] = store.intern(content(c));
    EXPECT_TRUE(same_planes(*content(c), *canon));
  }
}

// ---- snapshot dehydrate/hydrate --------------------------------------------

std::string fingerprint(const core::RunReport& r) {
  std::ostringstream ss;
  ss << static_cast<int>(r.stop) << "|" << r.exit_status << "|"
     << (r.alert ? r.alert_line() : "-") << "|" << r.alert_function << "|"
     << r.cpu_stats.instructions << "|" << r.tainted_memory_bytes << "|"
     << r.stdout_text;
  return ss.str();
}

MachineSnapshot build_attack_snapshot(core::AttackId id) {
  return core::make_scenario(id)->prepare_attack({})->snapshot();
}

TEST(PageStore, SnapshotRoundTripRunsIdentically) {
  MachineSnapshot snap = build_attack_snapshot(core::AttackId::kExp1Stack);
  std::string reference;
  {
    core::Machine m;
    m.restore(snap);
    reference = fingerprint(m.run());
  }

  PageStore store;
  const auto stored = core::dehydrate_snapshot(snap, store);
  ASSERT_TRUE(stored.has_value());
  EXPECT_FALSE(stored->pages.empty());
  EXPECT_FALSE(stored->meta.empty());

  // The blob codec round-trips the key and every page reference.
  const std::vector<uint8_t> blob =
      core::encode_stored_snapshot("some/cache key", *stored);
  const auto decoded = core::decode_stored_snapshot(blob);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first, "some/cache key");
  EXPECT_EQ(decoded->second.pages, stored->pages);
  EXPECT_EQ(decoded->second.meta, stored->meta);
  std::vector<uint8_t> torn(blob.begin(), blob.begin() + blob.size() / 2);
  EXPECT_FALSE(core::decode_stored_snapshot(torn).has_value());

  // Hydrate (hot, then from compressed images) and replay.
  for (int tier = 0; tier < 2; ++tier) {
    if (tier == 1) {
      snap = MachineSnapshot{};  // the store must own the blocks to drop
      store.drop_caches(/*compressed_images=*/false);
    }
    const auto hydrated = core::hydrate_snapshot(*stored, store);
    ASSERT_TRUE(hydrated.has_value());
    core::Machine m;
    m.restore(*hydrated);
    EXPECT_EQ(fingerprint(m.run()), reference) << "tier " << tier;
  }
}

TEST(PageStore, PipelineSnapshotsAreNotDehydratable) {
  core::MachineConfig cfg;
  cfg.pipeline_model = true;
  core::Machine m(cfg);
  m.load_source(".text\n_start:\n  li $v0, 1\n  li $a0, 0\n  syscall\n");
  MachineSnapshot snap = m.snapshot();
  PageStore store;
  EXPECT_FALSE(core::dehydrate_snapshot(snap, store).has_value());
}

// ---- store-backed SnapshotCache --------------------------------------------

TEST(SnapshotCacheStore, RehydratesLruEvictedEntriesWithoutRebuilding) {
  campaign::StoreOptions options;
  options.enabled = true;
  options.hot_snapshots = 1;
  campaign::SnapshotCache cache(options);

  int builds_a = 0, builds_b = 0;
  const auto build_a = [&] {
    ++builds_a;
    return build_attack_snapshot(core::AttackId::kExp1Stack);
  };
  const auto build_b = [&] {
    ++builds_b;
    return build_attack_snapshot(core::AttackId::kExp2Heap);
  };

  std::string reference;
  {
    const auto snap = cache.get("a", build_a);
    core::Machine m;
    m.restore(*snap);
    reference = fingerprint(m.run());
  }
  cache.get("b", build_b);  // evicts "a" to its dehydrated form

  const auto again = cache.get("a", build_a);
  EXPECT_EQ(builds_a, 1) << "rehydration must not re-invoke the builder";
  EXPECT_EQ(builds_b, 1);
  {
    core::Machine m;
    m.restore(*again);
    EXPECT_EQ(fingerprint(m.run()), reference);
  }

  // A second key with an identical boot interns the same page contents:
  // the store's cross-key dedup, the reason it exists.
  const uint64_t canonical_before = cache.stats().store.canonical_pages;
  int builds_twin = 0;
  cache.get("a-twin", [&] {
    ++builds_twin;
    return build_attack_snapshot(core::AttackId::kExp1Stack);
  });
  EXPECT_EQ(builds_twin, 1);

  const campaign::SnapshotCache::Stats s = cache.stats();
  EXPECT_TRUE(s.store_enabled);
  EXPECT_EQ(s.builds, 3u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_GE(s.hits, 1u);
  EXPECT_GE(s.rehydrations, 1u);
  EXPECT_GE(s.dehydrations, 1u);
  EXPECT_EQ(s.stored_snapshots, 3u);
  EXPECT_GT(s.store.canonical_pages, 0u);
  EXPECT_EQ(s.store.canonical_pages, canonical_before)
      << "an identical boot must dedup into the existing canonical pages";
  EXPECT_GT(s.store.dedup_hits, 0u);
}

TEST(SnapshotCacheStore, DiskRestartServesWarmKeysWithoutRebuilding) {
  const std::string dir = make_temp_dir();
  campaign::StoreOptions options;
  options.enabled = true;
  options.disk_dir = dir;

  std::string reference;
  {
    campaign::SnapshotCache cache(options);
    const auto snap = cache.get("exp1", [] {
      return build_attack_snapshot(core::AttackId::kExp1Stack);
    });
    core::Machine m;
    m.restore(*snap);
    reference = fingerprint(m.run());
    cache.flush_disk();
  }  // "process exit" — one live cache per directory at a time

  {
    campaign::SnapshotCache cache(options);
    bool rebuilt = false;
    const auto snap = cache.get("exp1", [&] {
      rebuilt = true;
      return build_attack_snapshot(core::AttackId::kExp1Stack);
    });
    EXPECT_FALSE(rebuilt) << "a warm disk tier must not rebuild";
    const campaign::SnapshotCache::Stats s = cache.stats();
    EXPECT_EQ(s.builds, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.disk_rehydrations, 1u);
    EXPECT_GT(s.store.disk_pages, 0u);
    core::Machine m;
    m.restore(*snap);
    EXPECT_EQ(fingerprint(m.run()), reference);
  }
  std::filesystem::remove_all(dir);
}

TEST(SnapshotCacheStore, HitAndMissCountersFeedTheReportedRate) {
  campaign::StoreOptions options;
  options.enabled = true;
  campaign::SnapshotCache cache(options);
  const auto build = [] {
    return build_attack_snapshot(core::AttackId::kExp1Stack);
  };
  cache.get("k", build);
  cache.get("k", build);
  cache.get("k", build);
  const campaign::SnapshotCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  // hits / (hits + misses) is what --time and the serve status report.
  EXPECT_NEAR(static_cast<double>(s.hits) / (s.hits + s.misses), 2.0 / 3.0,
              1e-9);
}

}  // namespace
}  // namespace ptaint
