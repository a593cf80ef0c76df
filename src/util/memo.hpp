// Compute-once-per-key memo: the one mechanism behind the assembled-program
// memo, the analysis summary cache and the snapshot cache's hydrated hot set.
//
//   * Bounded: at most `capacity` values are retained; publishing one more
//     evicts the least recently used (list + map: O(1) touch and eviction).
//     Capacity 0 retains nothing, but get() still returns the built value.
//   * Single flight: concurrent misses on one key wait for one build and
//     share its value (a hit); distinct keys build concurrently, unlocked.
//   * A build that throws publishes nothing: the exception reaches its
//     caller, the waiters wake, and the next of them builds afresh.
//
// Evicted values are released after the lock is dropped, so a heavy
// destructor never stalls another lookup.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace ptaint::util {

template <class Key, class Value>
class Memo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  static constexpr size_t kUnbounded = std::numeric_limits<size_t>::max();

  struct Stats {
    uint64_t lookups = 0;
    uint64_t hits = 0;       // served a retained value or a flight's value
    uint64_t builds = 0;     // builder calls, throwing ones included
    uint64_t evictions = 0;  // values dropped beyond capacity
    size_t entries = 0;      // values retained now
  };

  explicit Memo(size_t capacity) : capacity_(capacity) {}

  /// The value for `key`: the retained one, else the one an in-flight build
  /// of `key` publishes, else `build()`'s.  `build` returns a non-null Ptr
  /// and runs without the lock held.
  template <class Build>
  Ptr get(const Key& key, Build&& build) {
    std::vector<Ptr> evicted;  // destroyed after `lock` is released
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.lookups;
    for (;;) {
      if (auto it = index_.find(key); it != index_.end()) {
        ++stats_.hits;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->second;
      }
      auto in_flight = flights_.find(key);
      if (in_flight == flights_.end()) break;
      const std::shared_ptr<Flight> flight = in_flight->second;
      cv_.wait(lock, [&] { return flight->done; });
      if (flight->value) {
        ++stats_.hits;
        return flight->value;
      }
      // That build threw; look again, and build if nobody else has begun.
    }
    const auto flight = std::make_shared<Flight>();
    flights_.emplace(key, flight);
    ++stats_.builds;
    lock.unlock();

    Ptr value;
    try {
      value = build();
    } catch (...) {
      lock.lock();
      land(key, *flight, nullptr);
      throw;
    }

    lock.lock();
    land(key, *flight, value);
    if (capacity_ == 0) return value;
    lru_.emplace_front(key, value);
    index_.emplace(key, lru_.begin());
    while (lru_.size() > capacity_) {
      evicted.push_back(std::move(lru_.back().second));
      index_.erase(lru_.back().first);
      lru_.pop_back();
      ++stats_.evictions;
    }
    return value;
  }

  /// Drops every retained value and returns how many there were.  They are
  /// released (outside the lock) before it returns.
  size_t clear() {
    Lru dropped;  // destroyed after `lock` is released
    std::lock_guard<std::mutex> lock(mu_);
    dropped.swap(lru_);
    index_.clear();
    return dropped.size();
  }

  /// Calls `visit(key, value)` on every retained value, most recently used
  /// first, under the lock.
  template <class Visit>
  void for_each(Visit&& visit) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, value] : lru_) visit(key, *value);
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats out = stats_;
    out.entries = lru_.size();
    return out;
  }

 private:
  struct Flight {
    bool done = false;
    Ptr value;  // null when the build threw
  };
  using Lru = std::list<std::pair<Key, Ptr>>;  // most recently used first

  /// Requires mu_.  Ends `flight` with `value` and wakes its waiters.
  void land(const Key& key, Flight& flight, Ptr value) {
    flights_.erase(key);
    flight.done = true;
    flight.value = std::move(value);
    cv_.notify_all();
  }

  const size_t capacity_;
  mutable std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  Lru lru_;
  std::map<Key, typename Lru::iterator> index_;
  std::map<Key, std::shared_ptr<Flight>> flights_;
  Stats stats_;
};

}  // namespace ptaint::util
