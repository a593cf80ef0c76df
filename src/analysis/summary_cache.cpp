#include "analysis/summary_cache.hpp"

#include <chrono>

#include "analysis/cfg.hpp"
#include "asmgen/program_memo.hpp"

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

SummaryCache& SummaryCache::instance() {
  static SummaryCache cache;
  return cache;
}

CacheStats SummaryCache::stats() const {
  const auto m = memo_.stats();
  std::lock_guard<std::mutex> lk(mu_);
  CacheStats s;
  s.lookups = m.lookups;
  s.hits = m.hits;
  s.cold_misses = m.builds;
  s.evictions = m.evictions;
  s.analysis_micros = analysis_micros_;
  s.entries = m.entries;
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
  return memo_.get({digest, policy_hash(policy, options)}, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    const Cfg cfg(program);
    auto result = std::make_shared<CachedAnalysis>();
    result->g2 = analyze_vsa(cfg, policy, options);
    result->gen2 = gen2_elision(cfg, policy, result->g2);
    result->block_leaders = block_leaders_of(cfg, program);
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    std::lock_guard<std::mutex> lk(mu_);
    analysis_micros_ += static_cast<uint64_t>(micros);
    return std::shared_ptr<const CachedAnalysis>(std::move(result));
  });
}

}  // namespace ptaint::analysis
