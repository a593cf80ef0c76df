#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "campaign/campaigns.hpp"
#include "core/spec_workloads.hpp"
#include "guest/apps/registry.hpp"
#include "serve/server.hpp"

namespace e2e {

using ptaint::serve::JobSpec;

namespace {

constexpr const char kNonce[] = "@NONCE@";

/// Benign client sessions of the server and leak apps, each with one field
/// replaced by a per-job nonce so that no two session-cold jobs share a boot
/// snapshot.  Every nonce has the same width, so the per-job cost does not
/// depend on the seed.
std::vector<JobSpec> session_cells() {
  struct Session {
    const char* app;
    const char* policy;
    std::vector<std::string> lines;
  };
  const std::string n = kNonce;
  const std::vector<Session> sessions = {
      {"wu-ftpd", "paper",
       {"user user1\r\n", "pass " + n + "\r\n", "site exec hello %d %d\r\n",
        "quit\r\n"}},
      {"null-httpd", "paper",
       {"GET /" + n + " HTTP/1.0\r\n",
        "POST /form HTTP/1.0\r\nContent-Length: 16\r\n\r\n",
        "name=alice&x=1\r\n", "GET /cgi-bin/../etc HTTP/1.0\r\n"}},
      {"ghttpd", "paper", {"GET /" + n + ".html HTTP/1.0\r\n"}},
      {"globd", "paper", {"LIST *", "LIST readme.txt", "LIST ~" + n}},
      {"leak-telemetry", "leak-aware", {"STAT " + n, "QUIT"}},
      {"leak-session", "leak-aware", {"HELO " + n, "QUIT"}},
      {"leak-banner", "leak-aware", {"hello " + n, "status check"}},
  };
  std::vector<JobSpec> cells;
  for (const Session& s : sessions) {
    JobSpec spec;
    spec.app = "guest";
    spec.payload = s.app;
    spec.policy = s.policy;
    spec.elide = true;
    spec.session = s.lines;
    cells.push_back(std::move(spec));
  }
  return cells;
}

std::vector<JobSpec> attack_cells() {
  std::vector<JobSpec> cells;
  for (const auto& cell : ptaint::campaign::campaign_cells("coverage")) {
    JobSpec spec;
    spec.app = cell.app;
    spec.payload = cell.payload;
    spec.policy = cell.policy;
    cells.push_back(std::move(spec));
  }
  return cells;
}

std::vector<JobSpec> spec_cells() {
  std::vector<JobSpec> cells;
  for (const char* engine : {"superblock", "jit"}) {
    for (const auto& w : ptaint::core::make_spec_workloads(1)) {
      JobSpec spec;
      spec.app = "spec";
      spec.payload = w.name;
      spec.policy = "paper";
      spec.engine = engine;
      spec.elide = true;
      cells.push_back(std::move(spec));
    }
  }
  return cells;
}

std::vector<std::pair<std::string, std::string>> registry_apps(
    bool spec, const std::string& policy) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& e : ptaint::guest::apps::registry()) {
    const bool is_spec = std::string(e.name).rfind("spec-", 0) == 0;
    if (is_spec == spec) out.emplace_back(e.name, policy);
  }
  return out;
}

}  // namespace

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "attack-warm") {
    w.closed_batch = 32;
    w.open_rate = 2000;
    w.warmup_rounds = 4;
    w.cells = attack_cells();
    w.probe_apps = registry_apps(false, "paper");
  } else if (name == "spec-exec") {
    w.closed_batch = 1;
    w.open_rate = 20;
    w.warmup_rounds = 2;
    w.cells = spec_cells();
    w.probe_apps = registry_apps(true, "paper");
  } else if (name == "session-cold") {
    w.closed_batch = 4;
    w.open_rate = 100;
    w.snapshot_store = true;
    w.warmup_rounds = 2;
    w.cells = session_cells();
    for (const JobSpec& c : w.cells) w.probe_apps.emplace_back(c.payload, c.policy);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

SpecStream::SpecStream(const Workload& workload, uint64_t seed)
    : workload_(&workload), seed_(seed) {
  for (const JobSpec& c : workload.cells) {
    if (!c.session.empty()) nonce_ = true;
    cell_json_.push_back(c.to_json());
  }
}

size_t SpecStream::cell_of(uint64_t i) const {
  const size_t n = workload_->cells.size();
  const uint64_t round = i / n;
  // One Fisher-Yates permutation per round, memoized per thread: clients
  // walk the stream in order, so the cache almost always hits.
  thread_local const SpecStream* cached_stream = nullptr;
  thread_local uint64_t cached_round = ~0ULL;
  thread_local std::vector<size_t> perm;
  if (cached_stream != this || cached_round != round) {
    perm.resize(n);
    for (size_t k = 0; k < n; ++k) perm[k] = k;
    uint64_t state = splitmix64(seed_ ^ splitmix64(round + 1));
    for (size_t k = n; k > 1; --k) {
      state = splitmix64(state);
      std::swap(perm[k - 1], perm[state % k]);
    }
    cached_stream = this;
    cached_round = round;
  }
  return perm[i % n];
}

JobSpec SpecStream::spec(uint64_t i) const {
  JobSpec spec = workload_->cells[cell_of(i)];
  if (nonce_) {
    // splitmix64 is a bijection, so nonces never repeat within a seed.
    char nonce[17];
    std::snprintf(nonce, sizeof nonce, "%016llx",
                  static_cast<unsigned long long>(
                      splitmix64(i ^ splitmix64(seed_))));
    for (std::string& line : spec.session) {
      const size_t at = line.find(kNonce);
      if (at != std::string::npos) line.replace(at, sizeof kNonce - 1, nonce);
    }
  }
  return spec;
}

std::string SpecStream::json(uint64_t i) const {
  return nonce_ ? spec(i).to_json() : cell_json_[cell_of(i)];
}

std::string reference_key(const JobSpec& spec) {
  JobSpec key = spec;
  key.engine.clear();
  key.elide = false;
  return key.to_json();
}

std::optional<ptaint::cpu::Engine> engine_of(const JobSpec& spec) {
  using ptaint::cpu::Engine;
  if (spec.engine == "step") return Engine::kStep;
  if (spec.engine == "superblock") return Engine::kSuperblock;
  if (spec.engine == "jit") return Engine::kJit;
  if (!spec.engine.empty()) {
    throw std::invalid_argument("unknown engine: " + spec.engine);
  }
  return std::nullopt;
}

ptaint::campaign::Job job_for_spec(const JobSpec& spec,
                                   ptaint::campaign::SnapshotCache& cache,
                                   std::optional<ptaint::cpu::Engine> engine,
                                   bool elide) {
  ptaint::campaign::Job job =
      spec.app == "guest"
          ? ptaint::campaign::make_session_job(spec.payload, spec.session,
                                               spec.stdin_text, spec.policy,
                                               cache, elide, engine)
          : ptaint::campaign::make_cell_job(
                {spec.app, spec.payload, spec.policy}, cache, 1, elide,
                engine);
  if (spec.max_instructions != 0) job.max_instructions = spec.max_instructions;
  job.timeout = std::chrono::milliseconds(
      spec.timeout_ms != 0
          ? spec.timeout_ms
          : ptaint::serve::ServeDaemon::Config{}.default_timeout_ms);
  job.retry_on_timeout = true;
  return job;
}

}  // namespace e2e
