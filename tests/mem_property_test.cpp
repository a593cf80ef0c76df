// Property test: TaintedMemory against a trivial shadow model.  Random
// sequences of byte/half/word stores with random taint, interleaved with
// loads, bulk writes and taint sweeps, must agree with a std::map of
// (value, taint) per byte — validating paging, endianness and taint
// gather/scatter under adversarial access patterns.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "mem/tainted_memory.hpp"

namespace ptaint::mem {
namespace {

struct ShadowByte {
  uint8_t value = 0;
  bool taint = false;
};

class Shadow {
 public:
  void store(uint32_t addr, uint8_t value, bool taint) {
    bytes_[addr] = {value, taint};
  }
  ShadowByte load(uint32_t addr) const {
    auto it = bytes_.find(addr);
    return it == bytes_.end() ? ShadowByte{} : it->second;
  }
  void set_taint(uint32_t addr, uint32_t len, bool taint) {
    for (uint32_t i = 0; i < len; ++i) bytes_[addr + i].taint = taint;
  }
  uint64_t tainted_count() const {
    uint64_t n = 0;
    for (const auto& [a, b] : bytes_) n += b.taint ? 1 : 0;
    return n;
  }

 private:
  std::map<uint32_t, ShadowByte> bytes_;
};

class MemoryShadowProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MemoryShadowProperty, RandomOpsAgree) {
  std::mt19937 rng(GetParam());
  TaintedMemory mem;
  Shadow shadow;
  // A few hotspots crossing page boundaries plus scattered addresses.
  auto pick_addr = [&]() -> uint32_t {
    static constexpr uint32_t kBases[] = {
        0x0,        0x00000ff8, 0x10000000, 0x10000ffc,
        0x7fffbff0, 0x7fffffff - 16, 0x40000000};
    return kBases[rng() % std::size(kBases)] + rng() % 24;
  };

  for (int op = 0; op < 4000; ++op) {
    const uint32_t addr = pick_addr();
    switch (rng() % 6) {
      case 0: {  // byte store
        const uint8_t v = static_cast<uint8_t>(rng());
        const bool t = rng() % 2;
        mem.store_byte(addr, {v, t});
        shadow.store(addr, v, t);
        break;
      }
      case 1: {  // half store
        const uint32_t v = rng() & 0xffff;
        const TaintBits t = static_cast<TaintBits>(rng() & 0x3);
        mem.store_half(addr, TaintedWord{v, t});
        for (int i = 0; i < 2; ++i) {
          shadow.store(addr + i, static_cast<uint8_t>(v >> (8 * i)),
                       byte_tainted(t, i));
        }
        break;
      }
      case 2: {  // word store
        const uint32_t v = rng();
        const TaintBits t = static_cast<TaintBits>(rng() & 0xf);
        mem.store_word(addr, TaintedWord{v, t});
        for (int i = 0; i < 4; ++i) {
          shadow.store(addr + i, static_cast<uint8_t>(v >> (8 * i)),
                       byte_tainted(t, i));
        }
        break;
      }
      case 3: {  // bulk write
        const uint32_t len = rng() % 16;
        std::vector<uint8_t> data(len);
        for (auto& b : data) b = static_cast<uint8_t>(rng());
        const bool t = rng() % 2;
        mem.write_block(addr, data, t);
        for (uint32_t i = 0; i < len; ++i) shadow.store(addr + i, data[i], t);
        break;
      }
      case 4: {  // taint sweep (values untouched)
        const uint32_t len = rng() % 12;
        const bool t = rng() % 2;
        mem.set_taint(addr, len, t);
        shadow.set_taint(addr, len, t);
        break;
      }
      case 5: {  // verify a random word load against the shadow
        const TaintedWord w = mem.load_word(addr);
        uint32_t want_v = 0;
        TaintBits want_t = kUntainted;
        for (int i = 0; i < 4; ++i) {
          const ShadowByte sb = shadow.load(addr + i);
          want_v |= static_cast<uint32_t>(sb.value) << (8 * i);
          if (sb.taint) want_t |= static_cast<TaintBits>(1u << i);
        }
        ASSERT_EQ(w.value, want_v) << "word load @ " << std::hex << addr;
        ASSERT_EQ(w.taint, want_t) << "word taint @ " << std::hex << addr;
        break;
      }
    }
  }
  EXPECT_EQ(mem.tainted_byte_count(), shadow.tainted_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryShadowProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u, 20050628u));

// COW aliasing property: a family of copy-on-write forks of one base must
// stay observably identical to deep-copied twins driven through the exact
// same operation stream — including mid-stream re-forks and delta restores
// back to the base.  Catches any write that leaks through a shared page,
// any stale memoized page pointer, and any page-summary rollup drift.
class MemoryCowProperty : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MemoryCowProperty, ForksMatchDeepCopyTwins) {
  std::mt19937 rng(GetParam());
  auto pick_addr = [&]() -> uint32_t {
    static constexpr uint32_t kBases[] = {
        0x0,        0x00000ff8, 0x10000000, 0x10000ffc,
        0x7fffbff0, 0x7fffffff - 16, 0x40000000};
    return kBases[rng() % std::size(kBases)] + rng() % 24;
  };

  // Populate a base, then fork it both ways.
  TaintedMemory base;
  for (int i = 0; i < 256; ++i) {
    base.store_word(pick_addr(),
                    TaintedWord{static_cast<uint32_t>(rng()),
                                static_cast<TaintBits>(rng() & 0xf)});
  }
  TaintedMemory twin_base;
  twin_base.deep_copy_from(base);

  constexpr int kForks = 4;
  std::vector<TaintedMemory> forks(kForks), twins(kForks);
  for (int i = 0; i < kForks; ++i) {
    forks[i] = base;  // COW share
    twins[i].deep_copy_from(base);
  }

  auto expect_equal = [&](const TaintedMemory& a, const TaintedMemory& b,
                          const char* what) {
    ASSERT_EQ(a.tainted_byte_count(), b.tainted_byte_count()) << what;
    for (int probe = 0; probe < 16; ++probe) {
      const uint32_t addr = pick_addr();
      const TaintedWord wa = a.load_word(addr);
      const TaintedWord wb = b.load_word(addr);
      ASSERT_EQ(wa.value, wb.value) << what << " @ " << std::hex << addr;
      ASSERT_EQ(wa.taint, wb.taint) << what << " @ " << std::hex << addr;
      // Page-summary rollup: any_tainted_in consults the per-page counts.
      ASSERT_EQ(a.any_tainted_in(addr & ~0xfffu, 0x1000),
                b.any_tainted_in(addr & ~0xfffu, 0x1000))
          << what << " rollup @ " << std::hex << addr;
    }
  };

  for (int op = 0; op < 3000; ++op) {
    const int i = static_cast<int>(rng() % kForks);
    const uint32_t addr = pick_addr();
    switch (rng() % 6) {
      case 0: {  // byte store
        const uint8_t v = static_cast<uint8_t>(rng());
        const bool t = rng() % 2;
        forks[i].store_byte(addr, {v, t});
        twins[i].store_byte(addr, {v, t});
        break;
      }
      case 1: {  // word store
        const TaintedWord w{static_cast<uint32_t>(rng()),
                            static_cast<TaintBits>(rng() & 0xf)};
        forks[i].store_word(addr, w);
        twins[i].store_word(addr, w);
        break;
      }
      case 2: {  // taint sweep
        const uint32_t len = rng() % 12;
        const bool t = rng() % 2;
        forks[i].set_taint(addr, len, t);
        twins[i].set_taint(addr, len, t);
        break;
      }
      case 3: {  // load probe
        const TaintedWord wa = forks[i].load_word(addr);
        const TaintedWord wb = twins[i].load_word(addr);
        ASSERT_EQ(wa.value, wb.value) << "fork " << i;
        ASSERT_EQ(wa.taint, wb.taint) << "fork " << i;
        break;
      }
      case 4: {  // delta restore back to the base
        ASSERT_TRUE(forks[i].delta_restore(base))
            << "fork of base must take the delta path";
        twins[i].deep_copy_from(twin_base);
        break;
      }
      case 5: {  // re-fork from scratch
        forks[i] = base;
        twins[i].deep_copy_from(twin_base);
        break;
      }
    }
  }

  for (int i = 0; i < kForks; ++i) {
    expect_equal(forks[i], twins[i], "final fork state");
  }
  // The stream must not have corrupted the shared base itself.
  expect_equal(base, twin_base, "base after fork traffic");
  uint64_t shares = 0, cow_breaks = 0;
  for (const TaintedMemory& f : forks) {
    shares += f.cow_stats().shares;
    cow_breaks += f.cow_stats().cow_breaks;
  }
  EXPECT_GT(shares, 0u) << "forks must have shared, not copied";
  EXPECT_GT(cow_breaks, 0u) << "stores into shared pages must have cloned";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryCowProperty,
                         ::testing::Values(3u, 11u, 2025u));

}  // namespace
}  // namespace ptaint::mem
