// Snapshot restore throughput: delta restore vs switching restore.
//
// Part 1 — restore microbench.  Each SPEC surrogate boots once and is
// snapshotted; a single machine then loops { run a slice (dirtying pages),
// restore } in two ways.  A delta restore goes back to the snapshot the
// machine last restored from and pays only for the pages the slice
// dirtied.  A switching restore alternates between the snapshot and a
// page-sharing copy of it, so every restore is a full one: it shares
// every mapped page and drops the decode caches, as a pooled machine does
// when it changes snapshots.  Only the restore calls are timed; each cell
// is the best of three repetitions.
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
// workload under delta and switching restores, store dehydrate/hydrate
// round-trips (byte-identical pages, identical reports from every tier),
// then the coverage campaign on step and superblock plus store-backed
// legs on all three engines — exit 1 on any divergence (made for the
// sanitizer CI legs, where timing is meaningless anyway; the store legs
// use a self-contained temp-dir disk tier).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "campaign/snapshot_cache.hpp"
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

/// One workload's restore-rate measurement for one restore kind.
struct RestoreCell {
  double restores_per_s = 0.0;
  uint64_t dirty_pages = 0;   // pages the inter-restore slice dirtied
  uint64_t mapped_pages = 0;  // snapshot footprint
};

constexpr int kRestores = 200;        // restores per repetition
constexpr uint64_t kSlice = 50'000;   // guest instructions between restores

/// The snapshot the i-th restore of a sequence goes to: always `snap` for
/// delta restores; alternately `alt` (a page-sharing copy of `snap`) and
/// `snap` for switching restores, so none of them can take the delta path.
const MachineSnapshot& restore_target(const MachineSnapshot& snap,
                                      const MachineSnapshot& alt,
                                      bool switching, int i) {
  return switching && i % 2 == 0 ? alt : snap;
}

RestoreCell measure_restores(const MachineSnapshot& snap, bool switching,
                             int reps) {
  const MachineSnapshot alt = snap;
  RestoreCell cell;
  for (int rep = 0; rep < reps; ++rep) {
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
    cell.restores_per_s =
        std::max(cell.restores_per_s, kRestores / restore_s);
  }
  cell.mapped_pages = snap.memory.mapped_pages();
  return cell;
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
/// same report sequence under delta and switching restores.
bool check_restore_identity(const SpecWorkload& w,
                            const MachineSnapshot& snap) {
  const MachineSnapshot alt = snap;
  std::vector<std::string> prints[2];
  uint64_t deltas[2] = {0, 0};
  for (const bool switching : {false, true}) {
    Machine machine;
    for (int i = 0; i < 6; ++i) {
      machine.restore(restore_target(snap, alt, switching, i));
      machine.run_for(kSlice * (1 + i % 3));  // vary the dirtied set
      prints[switching].push_back(report_fingerprint(machine.report()));
    }
    deltas[switching] = machine.memory().cow_stats().delta_restores;
  }
  // All but the first restore of the delta sequence are deltas; none of
  // the switching sequence is.
  if (deltas[0] != 5 || deltas[1] != 0) {
    std::fprintf(stderr, "%s: %llu/%llu delta restores, expected 5/0\n",
                 w.name.c_str(), static_cast<unsigned long long>(deltas[0]),
                 static_cast<unsigned long long>(deltas[1]));
    return false;
  }
  if (prints[0] == prints[1]) return true;
  std::fprintf(stderr, "%s: delta and switching restores diverge\n",
               w.name.c_str());
  return false;
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

int run_check() {
  bool ok = true;
  for (const auto& w : make_spec_workloads(1)) {
    {
      const auto machine = prepare_spec_workload(w, {});
      const MachineSnapshot snap = machine->snapshot();
      ok = check_restore_identity(w, snap) && ok;
    }
    ok = check_store_identity(w) && ok;
  }
  // Coverage campaign on step and superblock; both verdict vectors must
  // agree with a first step run.
  std::vector<campaign::JobResult> reference;
  run_campaign("coverage", cpu::Engine::kStep, reference);
  for (const cpu::Engine engine :
       {cpu::Engine::kStep, cpu::Engine::kSuperblock}) {
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
  std::printf("check: delta and switching restores are observably "
              "identical: %s\n",
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
  constexpr int kReps = 3;

  std::printf(
      "== Snapshot restore throughput: delta vs switching (scale %d) ==\n\n",
      scale);
  std::printf("%-8s %7s %7s %14s %14s %8s\n", "program", "pages", "dirty",
              "switch rest/s", "delta rest/s", "speedup");

  std::string json = "{\n  \"scale\": " + std::to_string(scale) +
                     ",\n  \"workloads\": [\n";
  double geomean = 1.0;
  int rows = 0;

  for (const auto& w : make_spec_workloads(scale)) {
    const auto machine = prepare_spec_workload(w, {});
    const MachineSnapshot snap = machine->snapshot();
    const RestoreCell switching =
        measure_restores(snap, /*switching=*/true, kReps);
    const RestoreCell delta =
        measure_restores(snap, /*switching=*/false, kReps);
    const double speedup =
        switching.restores_per_s > 0
            ? delta.restores_per_s / switching.restores_per_s
            : 0.0;
    geomean *= speedup;
    ++rows;
    std::printf("%-8s %7llu %7llu %14.0f %14.0f %7.2fx\n", w.name.c_str(),
                static_cast<unsigned long long>(delta.mapped_pages),
                static_cast<unsigned long long>(delta.dirty_pages),
                switching.restores_per_s, delta.restores_per_s, speedup);

    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"mapped_pages\": %llu, "
                  "\"dirty_pages\": %llu, "
                  "\"switching_restores_per_s\": %.0f, "
                  "\"delta_restores_per_s\": %.0f, \"speedup\": %.3f},\n",
                  w.name.c_str(),
                  static_cast<unsigned long long>(delta.mapped_pages),
                  static_cast<unsigned long long>(delta.dirty_pages),
                  switching.restores_per_s, delta.restores_per_s, speedup);
    json += buf;
  }

  const double gm = rows > 0 ? std::pow(geomean, 1.0 / rows) : 0.0;
  std::printf("\ngeomean restore speedup: %.2fx\n", gm);
  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);  // trailing comma
  }
  json += "  ],\n  \"geomean_restore_speedup\": " + std::to_string(gm);

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
