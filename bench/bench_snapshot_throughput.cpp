// Snapshot restore throughput: delta restore vs switching restore.
//
// Part 1 — restore microbench.  Each SPEC surrogate boots once and is
// snapshotted; a single machine then loops { run a slice (dirtying pages),
// restore } in two ways.  A delta restore goes back to the snapshot the
// machine last restored from and pays only for the pages the slice
// dirtied.  A switching restore alternates between the snapshot and a
// page-sharing copy of it, so every restore shares every mapped page
// instead; the core keeps its code image for the program (DESIGN.md §10),
// so neither kind rebuilds decodes or translations.  Only the restore
// calls are timed.
//
// The job columns time restore + run of a short slice, the unit of work a
// pooled machine serves: "delta job" repeats one snapshot, "switch job"
// restores the workload right after running another program's snapshot,
// which is what a served machine does when consecutive jobs name
// different apps.  Every cell is the median of kReps repetitions, with
// the min..max spread beside it, and the JSON records the host.
//
// Part 2 — content-addressed store (DESIGN.md §13).  The ablation
// campaign runs store-backed; its key set interns every built snapshot's
// pages, and the columns show what the store buys: page dedup ratio
// across keys, store bytes per snapshot, RLE compression ratio once the
// working set is evicted, and rehydration rates from each tier (hot
// store pages, compressed images, disk files).  Its verdicts must match
// a plain (store-less) run of the same campaign.
//
//   bench_snapshot_throughput [scale] [json-path]
//   bench_snapshot_throughput --check
//
// Results go to `json-path` (default BENCH_snapshot.json) for
// EXPERIMENTS.md and CI.  `--check` skips the timing reps and instead
// verifies run-report identity: interleaved restore/run/report cycles per
// workload under delta restores, switching restores and switching
// restores that run another program in between, store dehydrate/hydrate
// round-trips (byte-identical pages, identical reports from every tier),
// then the coverage campaign on all three engines, plain and store-backed
// — exit 1 on any divergence (made for the
// sanitizer CI legs, where timing is meaningless anyway; the store legs
// use a self-contained temp-dir disk tier).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "campaign/snapshot_cache.hpp"
#include "campaign/worker.hpp"
#include "core/snapshot_io.hpp"
#include "core/spec_workloads.hpp"
#include "mem/page_store.hpp"

using namespace ptaint;
using namespace ptaint::core;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median and min..max of a set of repetitions.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Spread s;
  if (samples.empty()) return s;
  const size_t n = samples.size();
  s.median = n % 2 ? samples[n / 2]
                   : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  s.min = samples.front();
  s.max = samples.back();
  return s;
}

/// One workload's restore-rate measurement for one restore kind.
struct RestoreCell {
  Spread restores_per_s;
  uint64_t dirty_pages = 0;   // pages the inter-restore slice dirtied
  uint64_t mapped_pages = 0;  // snapshot footprint
};

constexpr int kReps = 5;              // repetitions per cell
constexpr int kRestores = 200;        // restores per repetition
constexpr uint64_t kSlice = 50'000;   // guest instructions between restores
constexpr int kJobs = 200;            // timed jobs per repetition
constexpr uint64_t kJobSlice = 5'000; // guest instructions per job

/// The snapshot the i-th restore of a sequence goes to: always `snap` for
/// delta restores; alternately `alt` (a page-sharing copy of `snap`) and
/// `snap` for switching restores, so none of them can take the delta path.
const MachineSnapshot& restore_target(const MachineSnapshot& snap,
                                      const MachineSnapshot& alt,
                                      bool switching, int i) {
  return switching && i % 2 == 0 ? alt : snap;
}

RestoreCell measure_restores(const MachineSnapshot& snap, bool switching) {
  const MachineSnapshot alt = snap;
  RestoreCell cell;
  std::vector<double> rates;
  for (int rep = 0; rep < kReps; ++rep) {
    Machine machine;
    machine.restore(snap);  // the first restore is a full one either way
    double restore_s = 0.0;
    for (int i = 0; i < kRestores; ++i) {
      machine.run_for(kSlice);
      cell.dirty_pages = machine.memory().dirty_page_count();
      const MachineSnapshot& target = restore_target(snap, alt, switching, i);
      const auto t0 = Clock::now();
      machine.restore(target);
      restore_s += seconds_since(t0);
    }
    rates.push_back(kRestores / restore_s);
  }
  cell.restores_per_s = spread_of(std::move(rates));
  cell.mapped_pages = snap.memory.mapped_pages();
  return cell;
}

/// Microseconds per job (restore `snap`, run kJobSlice instructions).
/// With `other`, every timed job follows an untimed job on that snapshot
/// — a different program — so each timed restore switches programs.
Spread measure_jobs(const MachineSnapshot& snap,
                    const MachineSnapshot* other) {
  std::vector<double> us;
  for (int rep = 0; rep < kReps; ++rep) {
    Machine machine;
    machine.restore(snap);
    machine.run_for(kJobSlice);  // warm: both columns start from a run
    double job_s = 0.0;
    for (int i = 0; i < kJobs; ++i) {
      if (other != nullptr) {
        machine.restore(*other);
        machine.run_for(kJobSlice);
      }
      const auto t0 = Clock::now();
      machine.restore(snap);
      machine.run_for(kJobSlice);
      job_s += seconds_since(t0);
    }
    us.push_back(job_s * 1e6 / kJobs);
  }
  return spread_of(std::move(us));
}

/// The served session mix: guest sessions of the server and leak apps, one
/// boot snapshot per app, policy per app, elided — e2e_bench's
/// session-cold cells, with a fixed nonce.
std::vector<campaign::Job> session_jobs(campaign::SnapshotCache& cache) {
  struct Session {
    const char* app;
    const char* policy;
    std::vector<std::string> lines;
  };
  const std::vector<Session> sessions = {
      {"wu-ftpd", "paper",
       {"user user1\r\n", "pass nonce\r\n", "site exec hello %d %d\r\n",
        "quit\r\n"}},
      {"null-httpd", "paper",
       {"GET /nonce HTTP/1.0\r\n",
        "POST /form HTTP/1.0\r\nContent-Length: 16\r\n\r\n",
        "name=alice&x=1\r\n", "GET /cgi-bin/../etc HTTP/1.0\r\n"}},
      {"ghttpd", "paper", {"GET /nonce.html HTTP/1.0\r\n"}},
      {"globd", "paper", {"LIST *", "LIST readme.txt", "LIST ~nonce"}},
      {"leak-telemetry", "leak-aware", {"STAT nonce", "QUIT"}},
      {"leak-session", "leak-aware", {"HELO nonce", "QUIT"}},
      {"leak-banner", "leak-aware", {"hello nonce", "status check"}},
  };
  std::vector<campaign::Job> jobs;
  for (const Session& s : sessions) {
    jobs.push_back(campaign::make_session_job(s.app, s.lines, "", s.policy,
                                              cache, /*elide=*/true));
  }
  return jobs;
}

/// Per-job restore and run time of a served job mix on one worker's
/// machine pool, as run_job reports them (the campaign.restore_ms and
/// campaign.run_ms layers of a served job).
struct ServedCell {
  Spread restore_us;
  Spread run_us;
};

/// `switching`: every round runs the mix in a seeded shuffled order (the
/// same orders in every repetition), as the daemon meets it, so nearly
/// every restore on the pooled machine changes program and policy.
/// Otherwise each job repeats back to back, so every restore returns to
/// the snapshot the machine just ran.
ServedCell measure_served(const std::vector<campaign::Job>& jobs,
                          bool switching) {
  constexpr int kRounds = 40;
  std::vector<double> restore_us;
  std::vector<double> run_us;
  for (int rep = 0; rep < kReps; ++rep) {
    campaign::MachinePool pool;
    campaign::ForkCounters counters;
    const campaign::WorkerConfig config;
    for (size_t j = 0; j < jobs.size(); ++j) {  // warm pools and caches
      campaign::run_job(jobs[j], j, config, pool, counters);
    }
    std::mt19937 rng(20050628);
    std::vector<size_t> order(jobs.size());
    double restore_ms = 0.0;
    double run_ms = 0.0;
    for (int r = 0; r < kRounds; ++r) {
      std::iota(order.begin(), order.end(), size_t{0});
      if (switching) std::shuffle(order.begin(), order.end(), rng);
      for (size_t j = 0; j < jobs.size(); ++j) {
        const size_t pick =
            switching ? order[j]
                      : (static_cast<size_t>(r) * jobs.size() + j) /
                            static_cast<size_t>(kRounds);
        const campaign::JobResult res =
            campaign::run_job(jobs[pick], pick, config, pool, counters);
        restore_ms += res.restore_ms;
        run_ms += res.run_ms;
      }
    }
    const double n = static_cast<double>(kRounds * jobs.size());
    restore_us.push_back(restore_ms * 1e3 / n);
    run_us.push_back(run_ms * 1e3 / n);
  }
  return {spread_of(std::move(restore_us)), spread_of(std::move(run_us))};
}

/// Fingerprint of a run's observable outcome; delta and switching restores
/// must never disagree on it.
std::string report_fingerprint(const RunReport& r) {
  std::ostringstream ss;
  ss << static_cast<int>(r.stop) << "|" << r.exit_status << "|"
     << r.cpu_stats.instructions << "|" << r.tainted_memory_bytes << "|"
     << (r.alert ? r.alert_line() : "") << "|" << r.alert_function;
  return ss.str();
}

/// --check leg 1: interleaved restore/run/report cycles must produce the
/// same report sequence under delta restores, switching restores, and
/// switching restores that run `other` (another program) in between.
bool check_restore_identity(const SpecWorkload& w,
                            const MachineSnapshot& snap,
                            const MachineSnapshot& other) {
  const MachineSnapshot alt = snap;
  constexpr const char* kKinds[] = {"delta", "switching", "switching+run"};
  std::vector<std::string> prints[3];
  uint64_t deltas[3] = {0, 0, 0};
  for (int kind = 0; kind < 3; ++kind) {
    Machine machine;
    for (int i = 0; i < 6; ++i) {
      if (kind == 2) {
        machine.restore(other);
        machine.run_for(kSlice);
      }
      machine.restore(restore_target(snap, alt, kind == 1, i));
      machine.run_for(kSlice * (1 + i % 3));  // vary the dirtied set
      prints[kind].push_back(report_fingerprint(machine.report()));
    }
    deltas[kind] = machine.memory().cow_stats().delta_restores;
  }
  // All but the first restore of the delta sequence are deltas; none of
  // the switching sequences is.
  if (deltas[0] != 5 || deltas[1] != 0 || deltas[2] != 0) {
    std::fprintf(stderr,
                 "%s: %llu/%llu/%llu delta restores, expected 5/0/0\n",
                 w.name.c_str(), static_cast<unsigned long long>(deltas[0]),
                 static_cast<unsigned long long>(deltas[1]),
                 static_cast<unsigned long long>(deltas[2]));
    return false;
  }
  bool ok = true;
  for (int kind = 1; kind < 3; ++kind) {
    if (prints[kind] != prints[0]) {
      std::fprintf(stderr, "%s: delta and %s restores diverge\n",
                   w.name.c_str(), kKinds[kind]);
      ok = false;
    }
  }
  return ok;
}

/// Runs the named campaign on the parallel engine; returns wall seconds.
/// With `store`, the snapshot cache is store-backed and `store_stats`
/// (when non-null) receives its final statistics.
double run_campaign(const std::string& name,
                    std::optional<cpu::Engine> engine,
                    std::vector<campaign::JobResult>& out,
                    const campaign::StoreOptions* store = nullptr,
                    campaign::SnapshotCache::Stats* store_stats = nullptr) {
  campaign::SnapshotCache cache(store ? *store
                                      : campaign::StoreOptions::from_env());
  double s = 0.0;
  {
    campaign::Executor::Config config;
    config.workers = 4;
    campaign::Executor executor(config);
    const std::vector<campaign::Job> jobs =
        campaign::make_jobs(name, cache, /*spec_scale=*/1, /*elide=*/false,
                            engine);
    const auto t0 = Clock::now();
    out = executor.run(jobs);
    s = seconds_since(t0);
  }
  if (store_stats) *store_stats = cache.stats();
  return s;
}

/// Fresh temp directory for a disk tier; benches/checks stay
/// self-contained (no environment needed, removed afterwards).
std::string make_temp_dir() {
  char tmpl[] = "/tmp/ptaint-bench-store-XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  return dir ? dir : "";
}

bool pages_identical(const mem::TaintedMemory& a,
                     const mem::TaintedMemory& b) {
  auto pa = a.page_blocks();
  auto pb = b.page_blocks();
  const auto by_idx = [](const auto& x, const auto& y) {
    return x.first < y.first;
  };
  std::sort(pa.begin(), pa.end(), by_idx);
  std::sort(pb.begin(), pb.end(), by_idx);
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].first != pb[i].first) return false;
    const auto& x = *pa[i].second;
    const auto& y = *pb[i].second;
    if (x.data != y.data || x.taint != y.taint || x.aprov != y.aprov ||
        x.tainted_bytes != y.tainted_bytes || x.addr_bytes != y.addr_bytes) {
      return false;
    }
  }
  return true;
}

constexpr cpu::Engine kAllEngines[] = {
    cpu::Engine::kStep, cpu::Engine::kSuperblock, cpu::Engine::kJit};

/// --check leg 2: a snapshot dehydrated into the store and hydrated back
/// from every tier (hot pages, compressed images, disk files) must be
/// byte-identical and produce the same reports on all three engines.
bool check_store_identity(const SpecWorkload& w) {
  auto machine = prepare_spec_workload(w, {});
  MachineSnapshot snap = machine->snapshot();
  machine.reset();  // the store must end up the blocks' only owner

  std::vector<std::string> reference;
  for (const cpu::Engine engine : kAllEngines) {
    MachineConfig cfg;
    cfg.engine = engine;
    Machine m(cfg);
    m.restore(snap);
    m.run_for(kSlice * 2);
    reference.push_back(report_fingerprint(m.report()));
  }

  const std::string dir = make_temp_dir();
  bool ok = true;
  {
    mem::PageStore::Config sc;
    sc.disk_dir = dir;
    mem::PageStore store(std::move(sc));
    auto stored = core::dehydrate_snapshot(snap, store);
    if (!stored) {
      std::fprintf(stderr, "%s: snapshot would not dehydrate\n",
                   w.name.c_str());
      std::filesystem::remove_all(dir);
      return false;
    }
    store.flush();
    // Keep a pristine page image to diff against, then release the live
    // snapshot so drop_caches() can actually evict.
    mem::TaintedMemory pristine;
    pristine.deep_copy_from(snap.memory);
    snap = MachineSnapshot{};

    for (const char* tier : {"hot", "compressed", "disk"}) {
      if (std::string(tier) == "compressed") store.drop_caches(false);
      if (std::string(tier) == "disk") store.drop_caches(true);
      auto hydrated = core::hydrate_snapshot(*stored, store);
      if (!hydrated) {
        std::fprintf(stderr, "%s: hydrate from %s tier failed\n",
                     w.name.c_str(), tier);
        ok = false;
        continue;
      }
      if (!pages_identical(pristine, hydrated->memory)) {
        std::fprintf(stderr, "%s: %s-tier pages differ from the original\n",
                     w.name.c_str(), tier);
        ok = false;
      }
      for (size_t e = 0; e < std::size(kAllEngines); ++e) {
        MachineConfig cfg;
        cfg.engine = kAllEngines[e];
        Machine m(cfg);
        m.restore(*hydrated);
        m.run_for(kSlice * 2);
        if (report_fingerprint(m.report()) != reference[e]) {
          std::fprintf(stderr, "%s: %s-tier restore diverges on %s\n",
                       w.name.c_str(), tier,
                       cpu::to_string(kAllEngines[e]));
          ok = false;
        }
      }
      // Drop the hydrated image before switching tiers so its blocks
      // return to the store as sole owner.
    }
  }
  std::filesystem::remove_all(dir);
  return ok;
}

std::vector<MachineSnapshot> boot_snapshots(
    const std::vector<SpecWorkload>& workloads) {
  std::vector<MachineSnapshot> snaps;
  for (const SpecWorkload& w : workloads) {
    snaps.push_back(prepare_spec_workload(w, {})->snapshot());
  }
  return snaps;
}

/// The host the numbers were measured on, as a JSON object.
std::string host_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::string escaped;
  for (const char c : model) {
    if (c == '"' || c == '\\') escaped += '\\';
    escaped += c;
  }
  return "{\"cpu\": \"" + escaped + "\", \"threads\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" __VERSION__ "\"}";
}

std::string spread_json(const char* name, const Spread& s, const char* fmt) {
  char buf[256];
  const std::string f = std::string("\"%s\": ") + fmt + ", \"%s_min\": " +
                        fmt + ", \"%s_max\": " + fmt;
  std::snprintf(buf, sizeof(buf), f.c_str(), name, s.median, name, s.min,
                name, s.max);
  return buf;
}

int run_check() {
  bool ok = true;
  const std::vector<SpecWorkload> workloads = make_spec_workloads(1);
  const std::vector<MachineSnapshot> snaps = boot_snapshots(workloads);
  for (size_t i = 0; i < workloads.size(); ++i) {
    const MachineSnapshot& other = snaps[(i + 1) % snaps.size()];
    ok = check_restore_identity(workloads[i], snaps[i], other) && ok;
    ok = check_store_identity(workloads[i]) && ok;
  }
  // Coverage campaign on every engine; each verdict vector must agree with
  // a first step run.
  std::vector<campaign::JobResult> reference;
  run_campaign("coverage", cpu::Engine::kStep, reference);
  for (const cpu::Engine engine : kAllEngines) {
    std::vector<campaign::JobResult> results;
    run_campaign("coverage", engine, results);
    const std::vector<std::string> diffs =
        campaign::diff_verdicts(results, reference);
    if (!diffs.empty()) {
      std::fprintf(stderr, "coverage (%s) diverges:\n",
                   cpu::to_string(engine));
      for (const std::string& d : diffs) {
        std::fprintf(stderr, "  %s\n", d.c_str());
      }
      ok = false;
    }
  }
  // Store-backed coverage legs on all three engines, with an aggressive
  // one-snapshot hot budget (every shared boot rehydrates from store
  // pages) and a self-contained disk tier; verdicts must still match the
  // plain step reference exactly.
  const std::string store_dir = make_temp_dir();
  for (const cpu::Engine engine : kAllEngines) {
    campaign::StoreOptions sopts;
    sopts.enabled = true;
    sopts.hot_snapshots = 1;
    sopts.disk_dir = store_dir;
    std::vector<campaign::JobResult> results;
    campaign::SnapshotCache::Stats cs;
    run_campaign("coverage", engine, results, &sopts, &cs);
    const std::vector<std::string> diffs =
        campaign::diff_verdicts(results, reference);
    if (!diffs.empty()) {
      std::fprintf(stderr, "coverage (%s, store-backed) diverges:\n",
                   cpu::to_string(engine));
      for (const std::string& d : diffs) {
        std::fprintf(stderr, "  %s\n", d.c_str());
      }
      ok = false;
    }
    if (!cs.store_enabled) {
      std::fprintf(stderr, "store-backed coverage leg ran without a store\n");
      ok = false;
    }
  }
  std::filesystem::remove_all(store_dir);
  std::printf("check: delta, switching and switching+run restores are "
              "observably identical: %s\n",
              ok ? "yes" : "NO");
  std::printf("check: store-backed restores byte- and verdict-identical on "
              "step, superblock and jit: %s\n",
              ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--check") return run_check();

  const int scale = argc > 1 ? std::atoi(argv[1]) : 1;
  const std::string json_path = argc > 2 ? argv[2] : "BENCH_snapshot.json";
  std::printf(
      "== Snapshot restore throughput: delta vs switching (scale %d) ==\n"
      "   median of %d repetitions; job = restore + %llu instructions\n\n",
      scale, kReps, static_cast<unsigned long long>(kJobSlice));
  std::printf("%-8s %6s %6s %14s %14s %8s %12s %12s\n", "program", "pages",
              "dirty", "switch rest/s", "delta rest/s", "speedup",
              "delta job us", "switch job us");

  std::string json = "{\n  \"scale\": " + std::to_string(scale) +
                     ",\n  \"repetitions\": " + std::to_string(kReps) +
                     ",\n  \"job_instructions\": " +
                     std::to_string(kJobSlice) + ",\n  \"host\": " +
                     host_json() + ",\n  \"workloads\": [\n";
  double geomean = 1.0;
  int rows = 0;

  const std::vector<SpecWorkload> workloads = make_spec_workloads(scale);
  const std::vector<MachineSnapshot> snaps = boot_snapshots(workloads);
  for (size_t i = 0; i < workloads.size(); ++i) {
    const SpecWorkload& w = workloads[i];
    const MachineSnapshot& snap = snaps[i];
    const RestoreCell switching = measure_restores(snap, /*switching=*/true);
    const RestoreCell delta = measure_restores(snap, /*switching=*/false);
    const Spread delta_job = measure_jobs(snap, nullptr);
    const Spread switch_job =
        measure_jobs(snap, &snaps[(i + 1) % snaps.size()]);
    const double speedup =
        switching.restores_per_s.median > 0
            ? delta.restores_per_s.median / switching.restores_per_s.median
            : 0.0;
    geomean *= speedup;
    ++rows;
    std::printf("%-8s %6llu %6llu %14.0f %14.0f %7.2fx %12.1f %12.1f\n",
                w.name.c_str(),
                static_cast<unsigned long long>(delta.mapped_pages),
                static_cast<unsigned long long>(delta.dirty_pages),
                switching.restores_per_s.median,
                delta.restores_per_s.median, speedup, delta_job.median,
                switch_job.median);

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"mapped_pages\": %llu, "
                  "\"dirty_pages\": %llu, ",
                  w.name.c_str(),
                  static_cast<unsigned long long>(delta.mapped_pages),
                  static_cast<unsigned long long>(delta.dirty_pages));
    json += buf;
    json += spread_json("switching_restores_per_s", switching.restores_per_s,
                        "%.0f") + ", ";
    json += spread_json("delta_restores_per_s", delta.restores_per_s,
                        "%.0f") + ", ";
    json += spread_json("delta_job_us", delta_job, "%.2f") + ", ";
    json += spread_json("switch_job_us", switch_job, "%.2f");
    std::snprintf(buf, sizeof(buf), ", \"speedup\": %.3f},\n", speedup);
    json += buf;
  }

  const double gm = rows > 0 ? std::pow(geomean, 1.0 / rows) : 0.0;
  std::printf("\ngeomean restore speedup: %.2fx\n", gm);
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);  // trailing comma
  }
  json += "  ],\n  \"geomean_restore_speedup\": " + std::to_string(gm);

  // Served job mixes: restore + run per job on a worker's machine pool
  // (one machine: the cells share the default engine), same snapshot back
  // to back vs seeded shuffled orders across programs and policies.
  std::printf("\n%-9s %-10s %12s %12s\n", "cells", "order", "restore us",
              "run us");
  json += ",\n  \"served\": [\n";
  {
    campaign::SnapshotCache cache(campaign::StoreOptions{});
    const std::vector<campaign::Job> session = session_jobs(cache);
    const std::vector<campaign::Job> attack =
        campaign::make_jobs("coverage", cache, 1, /*elide=*/false, {});
    const std::pair<const char*, const std::vector<campaign::Job>*> mixes[] =
        {{"session", &session}, {"attack", &attack}};
    for (const auto& [cells, jobs] : mixes) {
      for (const bool switching : {false, true}) {
        const ServedCell c = measure_served(*jobs, switching);
        const char* order = switching ? "switching" : "same";
        std::printf("%-9s %-10s %12.1f %12.1f\n", cells, order,
                    c.restore_us.median, c.run_us.median);
        json += std::string("    {\"cells\": \"") + cells +
                "\", \"order\": \"" + order + "\", \"jobs\": " +
                std::to_string(jobs->size()) + ", " +
                spread_json("restore_us", c.restore_us, "%.2f") + ", " +
                spread_json("run_us", c.run_us, "%.2f") + "},\n";
      }
    }
  }
  json.erase(json.size() - 2, 1);  // trailing comma
  json += "  ]";

  // Part 2: the ablation campaign, plain and then store-backed.  The plain
  // run is the verdict reference.  One live cache for the store-backed run
  // so the store survives it: the key set (shared boots x policy
  // variants) interns into it, and afterwards we force the eviction tiers
  // on the final page population to measure compression and per-tier
  // rehydration rates.
  std::vector<campaign::JobResult> plain_results;
  const double plain_s = run_campaign("ablation", {}, plain_results);
  campaign::StoreOptions sopts;
  sopts.enabled = true;
  campaign::SnapshotCache scache(sopts);
  std::vector<campaign::JobResult> store_results;
  double store_s = 0.0;
  {
    campaign::Executor::Config config;
    config.workers = 4;
    campaign::Executor executor(config);
    const std::vector<campaign::Job> jobs = campaign::make_jobs(
        "ablation", scache, /*spec_scale=*/1, /*elide=*/false, {});
    const auto t0 = Clock::now();
    store_results = executor.run(jobs);
    store_s = seconds_since(t0);
  }
  const std::vector<std::string> sdiffs =
      campaign::diff_verdicts(store_results, plain_results);
  if (!sdiffs.empty()) {
    std::fprintf(stderr,
                 "ablation verdicts differ between plain and store-backed "
                 "caches:\n");
    for (const std::string& d : sdiffs) {
      std::fprintf(stderr, "  %s\n", d.c_str());
    }
    return 1;
  }
  const campaign::SnapshotCache::Stats cs = scache.stats();
  const double dedup =
      cs.store.canonical_pages > 0
          ? static_cast<double>(cs.store.interned_refs) /
                static_cast<double>(cs.store.canonical_pages)
          : 0.0;
  const double bytes_per_snapshot =
      cs.builds > 0 ? static_cast<double>(cs.store.canonical_pages) *
                          mem::PageStore::kPlaneBytes / cs.builds
                    : 0.0;
  // Force every canonical page through RLE to read the compression ratio
  // over the whole population (not just whatever LRU already evicted).
  scache.drop_hydrated();
  scache.store()->drop_caches(/*compressed_images=*/false);
  const mem::PageStore::Stats ps = scache.store()->stats();
  const double compression =
      ps.compressed_bytes > 0
          ? static_cast<double>(ps.uncompressed_bytes) / ps.compressed_bytes
          : 0.0;
  std::printf(
      "ablation store-backed: %.2fs (plain %.2fs), %llu refs -> %llu "
      "canonical pages (%.2fx dedup), %.1f KiB/snapshot, %.2fx RLE "
      "compression\n",
      store_s, plain_s, static_cast<unsigned long long>(cs.store.interned_refs),
      static_cast<unsigned long long>(cs.store.canonical_pages), dedup,
      bytes_per_snapshot / 1024.0, compression);

  // Per-tier rehydration rates on one workload snapshot: hot store pages,
  // compressed images, disk files (self-contained temp dir).
  double tier_rate[3] = {0.0, 0.0, 0.0};
  {
    const auto workloads = make_spec_workloads(scale);
    auto tm = prepare_spec_workload(workloads.front(), {});
    MachineSnapshot tsnap = tm->snapshot();
    tm.reset();
    const std::string tier_dir = make_temp_dir();
    {
      mem::PageStore::Config pc;
      pc.disk_dir = tier_dir;
      mem::PageStore tstore(std::move(pc));
      const auto stored = core::dehydrate_snapshot(tsnap, tstore);
      tstore.flush();
      tsnap = MachineSnapshot{};  // store must own the blocks to evict
      if (stored) {
        const int kHydrates = 25 * scale;
        for (int tier = 0; tier < 3; ++tier) {
          double s = 0.0;
          for (int i = 0; i < kHydrates; ++i) {
            if (tier >= 1) tstore.drop_caches(/*compressed_images=*/false);
            if (tier == 2) tstore.drop_caches(/*compressed_images=*/true);
            const auto t0 = Clock::now();
            const auto hydrated = core::hydrate_snapshot(*stored, tstore);
            s += seconds_since(t0);
            if (!hydrated) {
              std::fprintf(stderr, "tier %d hydrate failed\n", tier);
              return 1;
            }
          }
          tier_rate[tier] = s > 0 ? kHydrates / s : 0.0;
        }
      }
    }
    std::filesystem::remove_all(tier_dir);
  }
  std::printf(
      "store hydrate rates (%s): hot %.0f/s, compressed %.0f/s, "
      "disk %.0f/s\n",
      make_spec_workloads(scale).front().name.c_str(), tier_rate[0],
      tier_rate[1], tier_rate[2]);

  char sbuf[768];
  std::snprintf(
      sbuf, sizeof(sbuf),
      ",\n  \"store\": {\"campaign_s\": %.3f, \"plain_campaign_s\": %.3f, "
      "\"canonical_pages\": %llu, "
      "\"interned_refs\": %llu, \"dedup_ratio\": %.3f, "
      "\"bytes_per_snapshot\": %.0f, \"uncompressed_bytes\": %llu, "
      "\"compressed_bytes\": %llu, \"compression_ratio\": %.3f, "
      "\"hydrate_hot_per_s\": %.0f, \"hydrate_compressed_per_s\": %.0f, "
      "\"hydrate_disk_per_s\": %.0f}\n}\n",
      store_s, plain_s,
      static_cast<unsigned long long>(cs.store.canonical_pages),
      static_cast<unsigned long long>(cs.store.interned_refs), dedup,
      bytes_per_snapshot, static_cast<unsigned long long>(ps.uncompressed_bytes),
      static_cast<unsigned long long>(ps.compressed_bytes), compression,
      tier_rate[0], tier_rate[1], tier_rate[2]);
  json += sbuf;
  std::ofstream out(json_path, std::ios::binary);
  out << json;
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
