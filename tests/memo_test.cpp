// Tests for util::Memo (src/util/memo.hpp), the compute-once-per-key memo
// behind the program memo, the summary cache and the snapshot cache's hot
// set: LRU order at capacity, capacity 0, single flight on one key,
// concurrent builds of distinct keys, throwing builds, and the counters.
// The suite name matches the CI thread sanitizer filter (Memo*).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/memo.hpp"

namespace ptaint::util {
namespace {

using IntMemo = Memo<int, int>;

std::shared_ptr<const int> value(int v) {
  return std::make_shared<const int>(v);
}

/// get() that counts how many times it had to build.
std::shared_ptr<const int> get(IntMemo& memo, int key, int& builds) {
  return memo.get(key, [&] {
    ++builds;
    return value(key * 10);
  });
}

/// Spins until `done()` holds.
template <class Pred>
void await(Pred done) {
  while (!done()) std::this_thread::yield();
}

TEST(MemoTest, LruOrderAtCapacityKeepsTheTouchedEntry) {
  IntMemo memo(2);
  int builds = 0;
  EXPECT_EQ(*get(memo, 1, builds), 10);
  EXPECT_EQ(*get(memo, 2, builds), 20);
  EXPECT_EQ(*get(memo, 1, builds), 10);  // touch 1: 2 is now the coldest
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(*get(memo, 3, builds), 30);  // evicts 2
  EXPECT_EQ(builds, 3);

  std::vector<int> order;
  memo.for_each([&](const int& key, const int&) { order.push_back(key); });
  EXPECT_EQ(order, (std::vector<int>{3, 1}));  // most recently used first

  get(memo, 1, builds);
  EXPECT_EQ(builds, 3) << "the touched entry survived";
  get(memo, 2, builds);
  EXPECT_EQ(builds, 4) << "the coldest entry was evicted";
}

TEST(MemoTest, CountersTrackLookupsHitsBuildsEvictionsAndEntries) {
  IntMemo memo(2);
  int builds = 0;
  for (int key : {1, 2, 1, 3, 3, 2}) get(memo, key, builds);
  const IntMemo::Stats s = memo.stats();
  EXPECT_EQ(s.lookups, 6u);
  EXPECT_EQ(s.hits, 2u);  // the second 1 and the second 3
  EXPECT_EQ(s.builds, 4u);
  EXPECT_EQ(s.evictions, 2u);  // 2 by 3, then 1 by the rebuilt 2
  EXPECT_EQ(s.entries, 2u);

  EXPECT_EQ(memo.clear(), 2u);
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(memo.stats().evictions, 2u) << "clear() is not an eviction";
}

TEST(MemoTest, CapacityZeroReturnsTheValueAndRetainsNothing) {
  IntMemo memo(0);
  int builds = 0;
  EXPECT_EQ(*get(memo, 7, builds), 70);
  EXPECT_EQ(*get(memo, 7, builds), 70);
  EXPECT_EQ(builds, 2);
  const IntMemo::Stats s = memo.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.evictions, 0u);
}

TEST(MemoTest, EightThreadsOnOneKeyBuildOnce) {
  constexpr int kThreads = 8;
  IntMemo memo(4);
  std::atomic<int> builds{0};
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      got[t] = memo.get(5, [&] {
        ++builds;
        // Hold the build until every thread has looked the key up, so all
        // of them meet this one flight.
        await([&] { return memo.stats().lookups == kThreads; });
        return value(50);
      });
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& v : got) EXPECT_EQ(v, got[0]) << "one shared object";
  const IntMemo::Stats s = memo.stats();
  EXPECT_EQ(s.builds, 1u);
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(s.entries, 1u);
}

TEST(MemoTest, CapacityZeroWaitersShareTheFlight) {
  constexpr int kThreads = 4;
  IntMemo memo(0);
  std::atomic<int> builds{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      EXPECT_EQ(*memo.get(5, [&] {
        ++builds;
        await([&] { return memo.stats().lookups == kThreads; });
        return value(50);
      }),
                50);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(memo.stats().entries, 0u);
}

TEST(MemoTest, BlockedBuildOfOneKeyDoesNotBlockAnother) {
  IntMemo memo(4);
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> a_building{false};
  std::thread a([&] {
    memo.get(1, [&] {
      a_building = true;
      released.wait();
      return value(10);
    });
  });
  await([&] { return a_building.load(); });

  auto b = std::async(std::launch::async, [&] {
    return *memo.get(2, [] { return value(20); });
  });
  const bool b_finished =
      b.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release.set_value();
  a.join();
  ASSERT_TRUE(b_finished) << "key 2 waited for key 1's build";
  EXPECT_EQ(b.get(), 20);
  EXPECT_EQ(memo.stats().entries, 2u);
}

TEST(MemoTest, ThrowingBuildLeavesNoEntryAndTheNextCallerBuilds) {
  IntMemo memo(4);
  EXPECT_THROW(memo.get(1, []() -> std::shared_ptr<const int> {
                 throw std::runtime_error("boom");
               }),
               std::runtime_error);
  EXPECT_EQ(memo.stats().entries, 0u);
  EXPECT_EQ(memo.stats().builds, 1u);
  int builds = 0;
  EXPECT_EQ(*get(memo, 1, builds), 10);
  EXPECT_EQ(builds, 1);
}

TEST(MemoTest, ThrowingBuildWakesAWaiterThatThenBuilds) {
  IntMemo memo(4);
  std::thread a([&] {
    EXPECT_THROW(memo.get(1,
                          [&]() -> std::shared_ptr<const int> {
                            // Fail only once the main thread waits on us.
                            await([&] { return memo.stats().lookups == 2; });
                            throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
  });
  await([&] { return memo.stats().builds == 1; });
  int builds = 0;
  EXPECT_EQ(*get(memo, 1, builds), 10);
  a.join();
  EXPECT_EQ(builds, 1) << "the waiter built after the failed flight";
  const IntMemo::Stats s = memo.stats();
  EXPECT_EQ(s.lookups, 2u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.builds, 2u);
  EXPECT_EQ(s.entries, 1u);
}

}  // namespace
}  // namespace ptaint::util
