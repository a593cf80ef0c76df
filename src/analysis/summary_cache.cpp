#include "analysis/summary_cache.hpp"

#include <chrono>
#include <condition_variable>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <utility>

#include "analysis/cfg.hpp"
#include "asmgen/program_memo.hpp"
#include "core/settings.hpp"

namespace ptaint::analysis {

namespace {

// ---- hashing ---------------------------------------------------------------

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;
// Bumped whenever the analyses or the record layout change meaning: a new
// build never mistakes an old process's numbers for its own (the cache is
// in-memory today, but hashes leak into logs and golden tests).
constexpr uint64_t kSchemaSalt = 5;

struct Fnv {
  uint64_t h = kFnvOffset;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= kFnvPrime;
    }
  }
};

uint64_t policy_hash(const cpu::TaintPolicy& policy,
                     const VsaOptions& options) {
  Fnv f;
  f.mix(kSchemaSalt);
  f.mix(static_cast<uint64_t>(policy.mode));
  uint64_t flags = 0;
  for (bool b : {policy.nx_protection, policy.compare_untaints,
                 policy.and_zero_untaints, policy.xor_self_untaints,
                 policy.shift_smear, policy.per_word_taint,
                 policy.leak_detection, options.witnesses}) {
    flags = (flags << 1) | (b ? 1u : 0u);
  }
  f.mix(flags);
  f.mix(options.may_publish.size());
  for (const auto& [begin, end] : options.may_publish) {
    f.mix(begin);
    f.mix(end);
  }
  return f.h;
}

// ---- block leaders ---------------------------------------------------------

std::vector<uint8_t> block_leaders_of(const Cfg& cfg,
                                      const asmgen::Program& program) {
  std::vector<uint8_t> leaders(program.text.size(), 0);
  for (const BasicBlock& block : cfg.blocks()) {
    const size_t i = (block.begin - cfg.text_begin()) / 4;
    if (i < leaders.size()) leaders[i] = 1;
  }
  return leaders;
}

// ---- cache proper ----------------------------------------------------------

struct Key {
  uint64_t content = 0;
  uint64_t policy = 0;
  bool operator<(const Key& o) const {
    return content != o.content ? content < o.content : policy < o.policy;
  }
  bool operator==(const Key& o) const {
    return content == o.content && policy == o.policy;
  }
};

}  // namespace

std::string CacheStats::json(bool include_timing) const {
  std::string s = "{";
  auto add = [&s](const char* name, uint64_t v) {
    if (s.size() > 1) s += ",";
    s += "\"";
    s += name;
    s += "\":";
    s += std::to_string(v);
  };
  add("lookups", lookups);
  add("hits", hits);
  add("cold_misses", cold_misses);
  add("evictions", evictions);
  if (include_timing) add("analysis_micros", analysis_micros);
  add("entries", entries);
  s += "}";
  return s;
}

struct SummaryCache::Impl {
  mutable std::mutex mu;
  std::condition_variable cv;
  // MRU-first key list; map holds list iterators for O(log n) touch.
  std::list<Key> lru;
  struct Entry {
    std::shared_ptr<const CachedAnalysis> result;
    std::list<Key>::iterator pos;
  };
  std::map<Key, Entry> entries;
  std::set<Key> in_flight;
  CacheStats stats;
  bool enabled = core::settings().analysis_cache;
};

SummaryCache::SummaryCache() : impl_(std::make_shared<Impl>()) {}

SummaryCache& SummaryCache::instance() {
  static SummaryCache cache;
  return cache;
}

bool SummaryCache::enabled() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->enabled;
}

void SummaryCache::set_enabled(bool on) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->enabled = on;
}

CacheStats SummaryCache::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  CacheStats s = impl_->stats;
  s.entries = impl_->entries.size();
  return s;
}

std::shared_ptr<const CachedAnalysis> SummaryCache::analyze(
    const asmgen::Program& program, const cpu::TaintPolicy& policy,
    const VsaOptions& options) {
  return lookup(program, asmgen::code_digest(program), policy, options);
}

std::shared_ptr<const CachedAnalysis> SummaryCache::analyze(
    const std::shared_ptr<const asmgen::Program>& program,
    const cpu::TaintPolicy& policy, const VsaOptions& options) {
  return lookup(*program, asmgen::code_digest(program), policy, options);
}

std::shared_ptr<const CachedAnalysis> SummaryCache::lookup(
    const asmgen::Program& program, uint64_t digest,
    const cpu::TaintPolicy& policy, const VsaOptions& options) {
  Impl& im = *impl_;
  const Key key{digest, policy_hash(policy, options)};

  std::unique_lock<std::mutex> lk(im.mu);
  ++im.stats.lookups;
  const bool memoize = im.enabled;
  if (memoize) {
    for (;;) {
      auto it = im.entries.find(key);
      if (it != im.entries.end()) {
        ++im.stats.hits;
        im.lru.splice(im.lru.begin(), im.lru, it->second.pos);
        return it->second.result;
      }
      if (im.in_flight.count(key) == 0) break;
      // Another thread is analyzing this exact key; one analysis serves
      // both.  (Re-counts as a hit when it lands.)
      im.cv.wait(lk);
    }
    im.in_flight.insert(key);
  }
  lk.unlock();

  const auto t0 = std::chrono::steady_clock::now();
  const Cfg cfg(program);
  auto result = std::make_shared<CachedAnalysis>();
  result->g2 = analyze_vsa(cfg, policy, options);
  result->gen2 = gen2_elision(cfg, policy, result->g2);
  result->block_leaders = block_leaders_of(cfg, program);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  lk.lock();
  im.stats.analysis_micros += static_cast<uint64_t>(micros);
  ++im.stats.cold_misses;
  if (!memoize) return result;
  im.in_flight.erase(key);
  im.lru.push_front(key);
  im.entries.emplace(key, Impl::Entry{result, im.lru.begin()});
  while (im.entries.size() > kCapacity) {
    const Key victim = im.lru.back();
    im.lru.pop_back();
    im.entries.erase(victim);
    ++im.stats.evictions;
  }
  im.cv.notify_all();
  return result;
}

}  // namespace ptaint::analysis
