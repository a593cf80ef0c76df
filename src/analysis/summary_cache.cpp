#include "analysis/summary_cache.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "analysis/cfg.hpp"

namespace ptaint::analysis {

namespace {

// ---- hashing ---------------------------------------------------------------

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;
// Bumped whenever the analyses or the record layout change meaning: a new
// build never mistakes an old process's numbers for its own (the cache is
// in-memory today, but hashes leak into logs and golden tests).
constexpr uint64_t kSchemaSalt = 4;

struct Fnv {
  uint64_t h = kFnvOffset;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= kFnvPrime;
    }
  }
  void mix_bytes(const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
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

/// Whole-program content hash: everything the analyses can observe.  The
/// data segment is deliberately excluded — the abstract domains classify
/// addresses by layout region and taint only, never by data bytes — which
/// is what makes the cache hit across campaign payload variants that
/// differ only in their input data.
uint64_t program_hash(const asmgen::Program& program) {
  Fnv f;
  f.mix(kSchemaSalt);
  f.mix(program.entry);
  f.mix(program.text.size());
  for (uint32_t w : program.text) f.mix(w);
  // Label placement shapes the recovered CFG (leaders, indirect-jump
  // fanout, function attribution); names never reach the analyses.
  f.mix(program.text_labels.size());
  for (const auto& [pc, name] : program.text_labels) f.mix(pc);
  f.mix(program.function_labels.size());
  for (const auto& [pc, name] : program.function_labels) f.mix(pc);
  return f.h;
}

/// Per-function chained content hashes over the call graph's SCC
/// condensation (iterative Tarjan), bottom-up: each function's hash folds
/// in the hashes of everything its facts depend on, so comparing one
/// number per function decides the full transitive dirty set.
std::vector<std::pair<uint32_t, uint64_t>> function_hashes(
    const Cfg& cfg, const asmgen::Program& program) {
  const auto& fns = cfg.functions();
  const auto& blocks = cfg.blocks();
  const size_t n = fns.size();

  // Global label fingerprint: a moved or added label changes block
  // structure and `jr` fanout program-wide, so it dirties every function.
  Fnv label_fp;
  for (const auto& [pc, name] : program.text_labels) label_fp.mix(pc);
  for (const auto& [pc, name] : program.function_labels) label_fp.mix(pc);

  // Orphan text (before the first function entry) has no hash owner; its
  // flows can reach anything, so fold its words into the fingerprint too.
  for (const BasicBlock& bb : blocks) {
    if (bb.function >= 0) continue;
    for (uint32_t pc = bb.begin; pc < bb.end; pc += 4) {
      label_fp.mix(program.text[cfg.index_of(pc)]);
    }
  }

  std::vector<uint64_t> local(n);
  for (size_t i = 0; i < n; ++i) {
    Fnv f;
    f.mix(kSchemaSalt);
    f.mix(label_fp.h);
    f.mix(fns[i].entry);
    f.mix(fns[i].end);
    for (uint32_t pc = fns[i].entry; pc < fns[i].end; pc += 4) {
      f.mix(program.text[cfg.index_of(pc)]);
    }
    // Caller fingerprint: a new call into this function adds an
    // entry-state contributor and a compose target; both change the flows
    // the function participates in even though its text did not.
    f.mix(fns[i].return_sites.size());
    for (uint32_t site : fns[i].return_sites) f.mix(site);
    local[i] = f.h;
  }

  // Dependency edges: F -> G when F's facts depend on G.  Callees
  // (summaries and exit states compose upward) plus any function that
  // flows into F over an ordinary cross-function edge.
  std::vector<std::set<int>> deps(n);
  for (size_t i = 0; i < n; ++i) {
    for (int callee : fns[i].callees) deps[i].insert(callee);
  }
  for (const BasicBlock& bb : blocks) {
    if (bb.function < 0) continue;
    for (int succ : bb.succs) {
      const int sf = blocks[static_cast<size_t>(succ)].function;
      if (sf >= 0 && sf != bb.function) deps[static_cast<size_t>(sf)].insert(bb.function);
    }
  }

  // Iterative Tarjan.  SCCs pop after every SCC they depend on, so the
  // chained hash of each dependency is final when its dependents fold it.
  std::vector<uint64_t> chained(n, 0);
  std::vector<int> index(n, -1);
  std::vector<int> low(n, 0);
  std::vector<uint8_t> on_stack(n, 0);
  std::vector<int> stack;
  std::vector<int> scc_of(n, -1);
  std::vector<uint64_t> scc_hash;
  int next_index = 0;

  struct Frame {
    int v;
    std::set<int>::const_iterator it;
  };
  std::vector<Frame> call;
  for (size_t root = 0; root < n; ++root) {
    if (index[root] >= 0) continue;
    call.push_back({static_cast<int>(root), deps[root].begin()});
    index[root] = low[root] = next_index++;
    stack.push_back(static_cast<int>(root));
    on_stack[root] = 1;
    while (!call.empty()) {
      Frame& fr = call.back();
      const auto v = static_cast<size_t>(fr.v);
      if (fr.it != deps[v].end()) {
        const int w = *fr.it++;
        const auto uw = static_cast<size_t>(w);
        if (index[uw] < 0) {
          index[uw] = low[uw] = next_index++;
          stack.push_back(w);
          on_stack[uw] = 1;
          call.push_back({w, deps[uw].begin()});
        } else if (on_stack[uw] != 0) {
          low[v] = std::min(low[v], index[uw]);
        }
        continue;
      }
      if (low[v] == index[v]) {
        // Pop the SCC and hash it: members' local hashes (sorted — the
        // pop order inside a cycle is traversal-dependent) plus the
        // chained hashes of every dependency SCC.
        std::vector<int> members;
        for (;;) {
          const int w = stack.back();
          stack.pop_back();
          on_stack[static_cast<size_t>(w)] = 0;
          scc_of[static_cast<size_t>(w)] = static_cast<int>(scc_hash.size());
          members.push_back(w);
          if (w == fr.v) break;
        }
        std::vector<uint64_t> locals;
        std::set<uint64_t> dep_hashes;
        locals.reserve(members.size());
        for (int m : members) {
          const auto um = static_cast<size_t>(m);
          locals.push_back(local[um]);
          for (int d : deps[um]) {
            const int ds = scc_of[static_cast<size_t>(d)];
            if (ds != scc_of[um]) {
              dep_hashes.insert(scc_hash[static_cast<size_t>(ds)]);
            }
          }
        }
        std::sort(locals.begin(), locals.end());
        Fnv f;
        f.mix(locals.size());
        for (uint64_t h : locals) f.mix(h);
        for (uint64_t h : dep_hashes) f.mix(h);
        scc_hash.push_back(f.h);
        for (int m : members) chained[static_cast<size_t>(m)] = f.h;
      }
      const int parent_low = low[v];
      call.pop_back();
      if (!call.empty()) {
        const auto pv = static_cast<size_t>(call.back().v);
        low[pv] = std::min(low[pv], parent_low);
      }
    }
  }

  std::vector<std::pair<uint32_t, uint64_t>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.emplace_back(fns[i].entry, chained[i]);
  std::sort(out.begin(), out.end());
  return out;
}

// ---- analysis drivers ------------------------------------------------------

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

size_t env_capacity() {
  const char* v = std::getenv("PTAINT_ANALYSIS_CACHE_CAP");
  if (v == nullptr || *v == '\0') return 32;
  const long n = std::strtol(v, nullptr, 10);
  return n > 0 ? static_cast<size_t>(n) : 32;
}

int env_jobs() {
  const char* v = std::getenv("PTAINT_ANALYSIS_JOBS");
  if (v == nullptr || *v == '\0') return 1;
  const long n = std::strtol(v, nullptr, 10);
  return n > 0 ? static_cast<int>(n) : 1;
}

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
  add("warm_hits", warm_hits);
  add("warm_fallbacks", warm_fallbacks);
  add("invalidated_fns", invalidated_fns);
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
  size_t capacity = env_capacity();
  int jobs = env_jobs();
};

SummaryCache::SummaryCache() : impl_(std::make_shared<Impl>()) {}

SummaryCache& SummaryCache::instance() {
  static SummaryCache cache;
  return cache;
}

bool SummaryCache::enabled() {
  const char* v = std::getenv("PTAINT_ANALYSIS_CACHE");
  return v == nullptr || std::string(v) != "0";
}

CacheStats SummaryCache::stats() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  CacheStats s = impl_->stats;
  s.entries = impl_->entries.size();
  return s;
}

void SummaryCache::clear() {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->entries.clear();
  impl_->lru.clear();
  impl_->stats = CacheStats{};
}

void SummaryCache::set_capacity(size_t cap) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->capacity = cap > 0 ? cap : 1;
}

void SummaryCache::set_jobs(int jobs) {
  std::lock_guard<std::mutex> lk(impl_->mu);
  impl_->jobs = jobs > 0 ? jobs : 1;
}

int SummaryCache::jobs() const {
  std::lock_guard<std::mutex> lk(impl_->mu);
  return impl_->jobs;
}

std::shared_ptr<const CachedAnalysis> SummaryCache::analyze(
    const asmgen::Program& program, const cpu::TaintPolicy& policy,
    const VsaOptions& options) {
  Impl& im = *impl_;
  const Key key{program_hash(program), policy_hash(policy, options)};

  std::shared_ptr<const CachedAnalysis> base;  // warm candidate
  int jobs = 1;
  if (enabled()) {
    std::unique_lock<std::mutex> lk(im.mu);
    ++im.stats.lookups;
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
    jobs = im.jobs;
    // Warm base: the most recently used entry under the same policy
    // column — campaign variants arrive in bursts per policy.
    for (const Key& k : im.lru) {
      if (k.policy == key.policy) {
        base = im.entries.find(k)->second.result;
        break;
      }
    }
  } else {
    std::lock_guard<std::mutex> lk(im.mu);
    ++im.stats.lookups;
    jobs = im.jobs;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const Cfg cfg(program);
  std::vector<std::pair<uint32_t, uint64_t>> fn_hashes =
      function_hashes(cfg, program);
  std::optional<VsaRun> run;
  size_t dirty_count = 0;

  if (base != nullptr) {
    // Diff chained hashes by entry PC; unmatched functions are dirty.
    // Both sides are ascending by entry (cfg functions are sorted), so the
    // new program's f-th function is fn_hashes[f].
    const auto& fns = cfg.functions();
    std::vector<uint8_t> dirty(fns.size(), 1);
    for (size_t f = 0; f < fns.size(); ++f) {
      auto it = std::lower_bound(
          base->fn_hashes.begin(), base->fn_hashes.end(),
          std::pair<uint32_t, uint64_t>{fns[f].entry, 0},
          [](const auto& a, const auto& b) { return a.first < b.first; });
      if (it != base->fn_hashes.end() && it->first == fns[f].entry &&
          it->second == fn_hashes[f].second) {
        dirty[f] = 0;
      } else {
        ++dirty_count;
      }
    }
    if (dirty_count > 0 && dirty_count < fns.size()) {
      run = analyze_vsa_warm(cfg, policy, options, *base->g2_fp, dirty,
                             &base->g2);
    } else {
      base = nullptr;  // all dirty (or none): nothing incremental to do
    }
  }
  const bool warm = run.has_value();
  if (!warm) run = analyze_vsa_run(cfg, policy, options, jobs);
  // Everything below is shared by both paths, the exhaustion fallback
  // (inside gen2_elision) included.
  auto result = std::make_shared<CachedAnalysis>();
  result->g2 = std::move(run->analysis);
  result->g2_fp = std::move(run->fixpoint);
  result->gen2 = gen2_elision(cfg, policy, result->g2);
  result->block_leaders = block_leaders_of(cfg, program);
  result->fn_hashes = std::move(fn_hashes);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  if (!enabled()) {
    std::lock_guard<std::mutex> lk(im.mu);
    ++im.stats.cold_misses;
    im.stats.analysis_micros += static_cast<uint64_t>(micros);
    return result;
  }

  std::lock_guard<std::mutex> lk(im.mu);
  im.stats.analysis_micros += static_cast<uint64_t>(micros);
  if (warm) {
    ++im.stats.warm_hits;
  } else if (base != nullptr) {
    ++im.stats.warm_fallbacks;
  } else {
    ++im.stats.cold_misses;
  }
  im.stats.invalidated_fns += dirty_count;
  im.in_flight.erase(key);
  auto [it, fresh] = im.entries.emplace(key, Impl::Entry{});
  if (fresh) {
    im.lru.push_front(key);
    it->second.pos = im.lru.begin();
  }
  it->second.result = result;
  while (im.entries.size() > im.capacity) {
    const Key victim = im.lru.back();
    im.lru.pop_back();
    im.entries.erase(victim);
    ++im.stats.evictions;
  }
  im.cv.notify_all();
  return result;
}

}  // namespace ptaint::analysis
