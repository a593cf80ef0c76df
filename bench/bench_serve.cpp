// In-process drive of the ptaint-serve daemon.
//
// Boots a ServeDaemon in-process on a scratch socket + journal, then
// drives the seed ablation workload — every detectable attack cell under
// the paper policy — through the full socket protocol with the shared
// load generator (streaming submits over concurrent connections).  The
// measured path is the real daemon path end to end: NDJSON parse, quota
// check, journal append, fair-queue dispatch, snapshot-fork execution on
// shard workers, judge-batch adjudication, second journal append, event
// fan-out, socket write.
//
//   bench_serve [--jobs N] [--connections N] [--batch N] [--workers N]
//               [--check] [--soak N]
//
// Two passes: a warmup pass (boots the snapshots and populates every
// shard's machine pool) and a second pass whose jobs/sec and p50/p99
// submit-to-verdict latency are printed to stdout as a console glance.
// The recorded serving numbers come from the repo benchmark
// (`python3 e2e_bench/run.py --workload attack-warm`), which repeats its
// runs and records the host.  `--check` runs a small pass and exits 1
// unless every job verdicted (made for sanitizer legs, where timing is
// meaningless).
//
// `--soak N` exercises the store-backed restart path (DESIGN.md §13): a
// cold daemon with a disk-tier snapshot store serves N jobs and shuts
// down cleanly; a second daemon on the same journal + store directory
// then serves N more.  Asserted: phase-A results replayed done and never
// re-executed (exactly-once), phase B rehydrates snapshots from the
// prior process's disk tier (warm misses < cold misses, disk
// rehydrations > 0), and the two phases' verdicts are identical.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "campaign/campaigns.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

using namespace ptaint;
using namespace ptaint::serve;

namespace {

std::string scratch_path(const char* suffix) {
  return "/tmp/bench_serve." + std::to_string(::getpid()) + suffix;
}

/// The seed load: the ablation matrix's detectable attack cells under the
/// paper policy — small guests, one shared snapshot per scenario, the
/// workload the acceptance bar is defined against.
std::vector<std::string> seed_specs() {
  std::vector<std::string> specs;
  for (const auto& cell : campaign::campaign_cells("ablation")) {
    if (cell.app != "attack") continue;
    if (cell.policy != "paper (all rules on)") continue;
    specs.push_back("{\"app\": \"attack\", \"payload\": \"" + cell.payload +
                    "\", \"policy\": \"paper\"}");
  }
  return specs;
}

/// First occurrence of a quoted string field in a JSON reply line.
std::string extract_str(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const size_t p = json.find(pat);
  if (p == std::string::npos) return "";
  const size_t begin = p + pat.size();
  const size_t end = json.find('"', begin);
  return end == std::string::npos ? "" : json.substr(begin, end - begin);
}

/// First occurrence of a numeric field in a JSON reply line.
uint64_t extract_u64(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const size_t p = json.find(pat);
  if (p == std::string::npos) return 0;
  return std::strtoull(json.c_str() + p + pat.size(), nullptr, 10);
}

/// The timing-independent part of a verdict row, for cross-phase
/// comparison.
std::string verdict_fingerprint(const std::string& row) {
  return extract_str(row, "payload") + "|" + extract_str(row, "policy") +
         "|" + extract_str(row, "verdict") + "|" + extract_str(row, "stop") +
         "|" + extract_str(row, "alert") + "|" +
         extract_str(row, "alert_function");
}

int run_soak(uint64_t jobs, int connections, int batch, int workers) {
  const std::string socket = scratch_path(".sock");
  const std::string journal = scratch_path(".journal");
  char tmpl[] = "/tmp/bench_serve.store.XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (dir == nullptr) {
    std::fprintf(stderr, "soak: mkdtemp failed\n");
    return 4;
  }
  ::unlink(journal.c_str());
  const std::vector<std::string> specs = seed_specs();
  auto fail = [&](const char* msg) {
    std::fprintf(stderr, "soak: %s\n", msg);
    std::filesystem::remove_all(dir);
    ::unlink(journal.c_str());
    return 1;
  };

  ServeDaemon::Config config;
  config.socket_path = socket;
  config.journal_path = journal;
  config.workers = workers;
  config.snapshot_store = true;
  config.snapshot_dir = dir;

  // Phase A: cold daemon, empty store.  Every scenario snapshot is built
  // once, dehydrated into the store and written behind to the disk tier.
  uint64_t cold_misses = 0;
  std::vector<std::string> verdicts_a;
  {
    ServeDaemon daemon(config);
    daemon.start();
    const LoadStats stats =
        run_load(socket, specs, jobs, connections, batch);
    if (stats.errors != 0 || stats.jobs != jobs) {
      return fail("phase A load errors / missing verdicts");
    }
    Client client(socket);
    const std::string status = client.request("{\"cmd\": \"status\"}");
    cold_misses = extract_u64(status, "misses");
    if (cold_misses == 0) return fail("phase A reported no cold misses");
    if (status.find("\"store_enabled\": true") == std::string::npos) {
      return fail("phase A daemon is not store-backed");
    }
    for (uint64_t id = 1; id <= jobs; ++id) {
      const std::string r = client.request(
          "{\"cmd\": \"result\", \"id\": " + std::to_string(id) + "}");
      if (extract_str(r, "state") != "done") {
        return fail("phase A job not done");
      }
      verdicts_a.push_back(verdict_fingerprint(r));
    }
    client.request("{\"cmd\": \"shutdown\"}");
    daemon.wait();  // flushes the store's write-behind queue
  }

  // Phase B: a fresh daemon process-equivalent on the same journal and
  // store directory.  The journal replays phase A's results (done, never
  // re-run); the store directory seeds the cache with warm dehydrated
  // snapshots.
  std::vector<std::string> verdicts_b;
  uint64_t warm_misses = 0, disk_rehydrations = 0;
  {
    ServeDaemon daemon(config);
    daemon.start();
    Client client(socket);
    const std::string status0 = client.request("{\"cmd\": \"status\"}");
    if (extract_u64(status0, "done") != jobs) {
      return fail("restart did not replay phase A results as done");
    }
    if (extract_u64(status0, "jobs_done") != 0 ||
        extract_u64(status0, "replayed") != 0) {
      return fail("restart re-executed phase A jobs (exactly-once broken)");
    }
    const LoadStats stats =
        run_load(socket, specs, jobs, connections, batch);
    if (stats.errors != 0 || stats.jobs != jobs) {
      return fail("phase B load errors / missing verdicts");
    }
    const std::string status1 = client.request("{\"cmd\": \"status\"}");
    warm_misses = extract_u64(status1, "misses");
    disk_rehydrations = extract_u64(status1, "disk_rehydrations");
    if (warm_misses >= cold_misses) {
      return fail("phase B was not warm (misses did not drop)");
    }
    if (disk_rehydrations == 0) {
      return fail("phase B never rehydrated from the disk tier");
    }
    for (uint64_t id = jobs + 1; id <= 2 * jobs; ++id) {
      const std::string r = client.request(
          "{\"cmd\": \"result\", \"id\": " + std::to_string(id) + "}");
      if (extract_str(r, "state") != "done") {
        return fail("phase B job not done");
      }
      verdicts_b.push_back(verdict_fingerprint(r));
    }
    client.request("{\"cmd\": \"shutdown\"}");
    daemon.wait();
  }

  std::sort(verdicts_a.begin(), verdicts_a.end());
  std::sort(verdicts_b.begin(), verdicts_b.end());
  if (verdicts_a != verdicts_b) {
    return fail("verdicts differ between cold and warm phases");
  }

  std::printf("== ptaint-serve store-backed soak ==\n\n");
  std::printf("phase A (cold): %llu jobs, %llu snapshot misses\n",
              static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(cold_misses));
  std::printf("phase B (warm): %llu jobs, %llu misses, %llu disk "
              "rehydrations\n",
              static_cast<unsigned long long>(jobs),
              static_cast<unsigned long long>(warm_misses),
              static_cast<unsigned long long>(disk_rehydrations));
  std::printf("exactly-once: phase A results replayed done, none re-run\n");
  std::printf("verdicts: cold == warm (%zu rows)\n", verdicts_a.size());
  std::filesystem::remove_all(dir);
  ::unlink(journal.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t jobs = 4000;
  int connections = 4, batch = 32, workers = 8;
  bool check = false;
  uint64_t soak = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_serve: %s needs a value\n", arg.c_str());
        std::exit(4);
      }
      return argv[++i];
    };
    if (arg == "--jobs") {
      jobs = std::strtoull(value(), nullptr, 0);
    } else if (arg == "--connections") {
      connections = std::atoi(value());
    } else if (arg == "--batch") {
      batch = std::atoi(value());
    } else if (arg == "--workers") {
      workers = std::atoi(value());
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--soak") {
      soak = std::strtoull(value(), nullptr, 0);
    } else {
      std::fprintf(stderr, "bench_serve: unknown option %s\n", arg.c_str());
      return 4;
    }
  }
  if (soak > 0) return run_soak(soak, connections, batch, workers);
  if (check) {
    jobs = 64;
    connections = 2;
  }

  ServeDaemon::Config config;
  config.socket_path = scratch_path(".sock");
  config.journal_path = scratch_path(".journal");
  config.workers = workers;
  ::unlink(config.journal_path.c_str());

  ServeDaemon daemon(config);
  daemon.start();
  const std::vector<std::string> specs = seed_specs();

  // Warmup: boots every scenario snapshot into the shared cache and a kept
  // machine into each shard's pool, so the measured pass times serving,
  // not first-touch construction.
  const LoadStats warm = run_load(config.socket_path, specs,
                                  specs.size() * 4, connections, batch);
  const LoadStats stats =
      run_load(config.socket_path, specs, jobs, connections, batch);

  {
    Client client(config.socket_path);
    client.request("{\"cmd\": \"shutdown\"}");
  }
  daemon.wait();
  ::unlink(config.journal_path.c_str());

  std::printf("== ptaint-serve sustained throughput ==\n\n");
  std::printf("workload: %zu ablation attack cells, %llu jobs, %d workers, "
              "%d connections x batch %d\n",
              specs.size(), static_cast<unsigned long long>(stats.jobs),
              workers, connections, batch);
  std::printf("sustained: %.0f jobs/s over %.2fs\n", stats.jobs_per_sec,
              stats.wall_s);
  std::printf("latency:   p50 %.2fms  p99 %.2fms (submit -> verdict)\n",
              stats.p50_ms, stats.p99_ms);
  if (stats.errors != 0 || warm.errors != 0) {
    std::fprintf(stderr, "bench_serve: %llu load errors\n",
                 static_cast<unsigned long long>(stats.errors + warm.errors));
    return 1;
  }
  if (check) {
    const bool ok = stats.jobs == jobs;
    std::printf("\ncheck: %s (%llu/%llu verdicts)\n", ok ? "ok" : "FAILED",
                static_cast<unsigned long long>(stats.jobs),
                static_cast<unsigned long long>(jobs));
    return ok ? 0 : 1;
  }
  return 0;
}
