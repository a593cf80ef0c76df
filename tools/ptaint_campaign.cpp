// ptaint-campaign — parallel evaluation-campaign driver.
//
//   ptaint-campaign <ablation|falseneg|coverage> [options]
//
// Expands the named campaign into its app x payload x policy job matrix,
// runs it on a work-stealing thread pool (each job forks a Machine from a
// shared post-boot snapshot), and prints the same report text the original
// serial bench printed — byte-identical regardless of worker count or
// completion order.
//
// Options:
//   --workers N     worker threads (default 4)
//   --serial        run the matrix serially through the original
//                   entry points instead of the engine
//   --spec-scale N  SPEC surrogate input scale (ablation; default 1)
//   --json PATH     also write per-job results as JSON (includes per-phase
//                   build/restore/run/judge timings and COW page counters)
//   --csv PATH      also write per-job results as CSV (same extra columns)
//   --summary       also print the per-policy verdict tally
//   --time          print wall-clock, per-phase, machine-pool and
//                   snapshot-cache statistics to stderr
//   --check         run BOTH engine and serial reference, diff every
//                   verdict/alert, print the speedup; exit 1 on mismatch
//   --elide         engine machines run with static check-elision on
//                   (with --check the serial reference stays dynamic-only,
//                   proving elision changes no verdict)
//   --engine E      step | superblock | jit: pin the parallel side's
//                   engine (default resolves PTAINT_ENGINE, then
//                   superblock).  The serial reference always runs the
//                   step interpreter, so --check with the default engine
//                   is a cross-engine verdict-identity check.
//   --static-check  bidirectional cross-validation: every dynamic
//                   pointer-taint alert must carry a value-set-prover
//                   witness (forward) and must not sit in the gen-2
//                   elision table (backward); exit 1 on either violation
//
// Exit codes (docs/CAMPAIGN.md):
//   0  every job ended in a guest-side outcome (ok/fault/budget)
//   1  verdict mismatch under --check, or a --static-check violation
//   2  at least one job ended in a harness error
//   3  at least one job timed out (and none harness-errored)
//   4  usage error (bad campaign name, bad option, malformed PTAINT_*
//      value, unwritable sidecar)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/summary_cache.hpp"
#include "campaign/campaigns.hpp"
#include "campaign/executor.hpp"
#include "campaign/report.hpp"
#include "core/settings.hpp"

using namespace ptaint;
using namespace ptaint::campaign;

namespace {

using Clock = std::chrono::steady_clock;

[[noreturn]] void usage() {
  std::cerr
      << "usage: ptaint-campaign <ablation|falseneg|coverage> [options]\n"
         "  --workers N   worker threads (default 4)\n"
         "  --serial      serial reference run (no engine)\n"
         "  --spec-scale N  SPEC input scale (ablation)\n"
         "  --json PATH / --csv PATH   machine-readable results\n"
         "  --summary     per-policy verdict tally\n"
         "  --time        wall-clock + executor stats on stderr\n"
         "  --check       engine vs serial verdict diff + speedup\n"
         "  --elide       run engine machines with static check-elision\n"
         "  --engine E    step | superblock | jit (parallel side; serial\n"
         "                reference is always the step interpreter)\n"
         "  --static-check  bidirectional static/dynamic consistency\n";
  std::exit(4);
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "ptaint-campaign: cannot write " << path << "\n";
    std::exit(4);
  }
  out << contents;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string campaign = argv[1];
  {
    bool known = false;
    for (const std::string& name : campaign_names()) {
      if (name == campaign) known = true;
    }
    if (!known) usage();
  }

  Executor::Config config;
  int spec_scale = 1;
  bool serial = false;
  bool check = false;
  bool elide = false;
  bool want_static_check = false;
  bool timing = false;
  bool summary = false;
  std::optional<cpu::Engine> engine;
  std::string json_path, csv_path;

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workers") {
      config.workers = static_cast<int>(std::strtol(value().c_str(), nullptr, 0));
      if (config.workers < 1) usage();
    } else if (arg == "--spec-scale") {
      spec_scale = static_cast<int>(std::strtol(value().c_str(), nullptr, 0));
      if (spec_scale < 1) usage();
    } else if (arg == "--serial") {
      serial = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--elide") {
      elide = true;
    } else if (arg == "--engine") {
      engine = cpu::parse_engine(value());
      if (!engine) usage();
    } else if (arg == "--static-check") {
      want_static_check = true;
    } else if (arg == "--time") {
      timing = true;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--json") {
      json_path = value();
    } else if (arg == "--csv") {
      csv_path = value();
    } else {
      usage();
    }
  }

  if (!core::settings_valid("ptaint-campaign")) return 4;

  std::vector<JobResult> results;
  double engine_s = 0.0, serial_s = 0.0;
  SnapshotCache cache;
  Executor executor(config);

  if (!serial || check) {
    const auto t0 = Clock::now();
    const std::vector<Job> jobs =
        make_jobs(campaign, cache, spec_scale, elide, engine);
    results = executor.run(jobs);
    engine_s = seconds_since(t0);
  }
  if (serial || check) {
    const auto t0 = Clock::now();
    std::vector<JobResult> reference = run_serial_reference(campaign, spec_scale);
    serial_s = seconds_since(t0);
    if (check) {
      const std::vector<std::string> diffs = diff_verdicts(results, reference);
      if (!diffs.empty()) {
        std::cerr << "ptaint-campaign: engine and serial reference disagree:\n";
        for (const std::string& d : diffs) std::cerr << "  " << d << "\n";
        return 1;
      }
      std::fprintf(stderr,
                   "check: %zu verdicts identical; engine %.2fs (%d workers) "
                   "vs serial %.2fs (%.2fx)\n",
                   results.size(), engine_s, config.workers, serial_s,
                   engine_s > 0 ? serial_s / engine_s : 0.0);
    } else {
      results = std::move(reference);
    }
  }

  if (want_static_check) {
    const StaticCheckReport sc = static_check(campaign, results, spec_scale);
    if (!sc.missed.empty()) {
      std::cerr << "ptaint-campaign: dynamic alerts without a prover "
                   "witness (check-elision would be unsound):\n";
      for (const std::string& line : sc.missed) {
        std::cerr << "  " << line << "\n";
      }
    }
    if (!sc.elided_alerts.empty()) {
      std::cerr << "ptaint-campaign: dynamic alerts at gen-2-elided sites "
                   "(the elided detector would skip them):\n";
      for (const std::string& line : sc.elided_alerts) {
        std::cerr << "  " << line << "\n";
      }
    }
    if (!sc.missed.empty() || !sc.elided_alerts.empty()) return 1;
    std::fprintf(stderr,
                 "static-check: %zu dynamic alert(s), all witnessed by the "
                 "prover, none at an elided site\n",
                 sc.alerts_checked);
  }

  std::fputs(format_campaign(campaign, results).c_str(), stdout);
  if (summary) std::fputs(console_summary(results).c_str(), stdout);
  // Sidecar files carry the per-phase timings and COW page counters; the
  // stdout report stays a deterministic function of the verdicts.
  const ReportOptions report_opts{/*with_timing=*/true};
  if (!json_path.empty()) write_file(json_path, to_json(results, report_opts));
  if (!csv_path.empty()) write_file(csv_path, to_csv(results, report_opts));
  if (timing) {
    const Executor::Stats& s = executor.stats();
    std::fprintf(stderr,
                 "time: engine %.2fs (%d workers, %llu jobs, %llu steals, "
                 "%llu retries)%s\n",
                 engine_s, config.workers,
                 static_cast<unsigned long long>(s.jobs),
                 static_cast<unsigned long long>(s.steals),
                 static_cast<unsigned long long>(s.retries),
                 serial || check
                     ? (", serial " + std::to_string(serial_s) + "s").c_str()
                     : "");
    std::fprintf(stderr,
                 "time: phases build %.1fms restore %.1fms run %.1fms "
                 "judge %.1fms (summed across workers)\n",
                 s.build_ms, s.restore_ms, s.run_ms, s.judge_ms);
    std::fprintf(stderr,
                 "time: machines built %llu reused %llu\n",
                 static_cast<unsigned long long>(s.machine_builds),
                 static_cast<unsigned long long>(s.machine_reuses));
    const SnapshotCache::Stats cs = cache.stats();
    const unsigned long long requests = cs.hits + cs.misses;
    std::fprintf(stderr,
                 "time: snapshot cache %llu built (%.1fms) %llu hits "
                 "%llu misses (%.1f%% hit rate), %llu pages mapped, "
                 "%llu shared\n",
                 static_cast<unsigned long long>(cs.builds), cs.build_ms,
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 requests ? 100.0 * static_cast<double>(cs.hits) /
                                static_cast<double>(requests)
                          : 0.0,
                 static_cast<unsigned long long>(cs.snapshot_pages),
                 static_cast<unsigned long long>(cs.shared_pages));
    if (cs.store_enabled) {
      const ptaint::mem::PageStore::Stats& ps = cs.store;
      std::fprintf(
          stderr,
          "time: snapshot store %llu canonical pages for %llu refs "
          "(%.2fx dedup), %llu hot %llu compressed (%.2fx) %llu on disk, "
          "%llu rehydrations (%.1fms, %llu from disk)\n",
          static_cast<unsigned long long>(ps.canonical_pages),
          static_cast<unsigned long long>(ps.interned_refs),
          ps.canonical_pages ? static_cast<double>(ps.interned_refs) /
                                   static_cast<double>(ps.canonical_pages)
                             : 0.0,
          static_cast<unsigned long long>(ps.hot_pages),
          static_cast<unsigned long long>(ps.compressed_pages),
          ps.compressed_bytes ? static_cast<double>(ps.uncompressed_bytes) /
                                    static_cast<double>(ps.compressed_bytes)
                              : 0.0,
          static_cast<unsigned long long>(ps.disk_pages),
          static_cast<unsigned long long>(cs.rehydrations), cs.hydrate_ms,
          static_cast<unsigned long long>(cs.disk_rehydrations));
    }
    const analysis::CacheStats as = analysis::SummaryCache::instance().stats();
    std::fprintf(stderr,
                 "time: analysis cache %llu lookups %llu hits %llu warm "
                 "(%llu fallbacks) %llu cold, %llu fns invalidated, "
                 "%.1fms analyzing\n",
                 static_cast<unsigned long long>(as.lookups),
                 static_cast<unsigned long long>(as.hits),
                 static_cast<unsigned long long>(as.warm_hits),
                 static_cast<unsigned long long>(as.warm_fallbacks),
                 static_cast<unsigned long long>(as.cold_misses),
                 static_cast<unsigned long long>(as.invalidated_fns),
                 static_cast<double>(as.analysis_micros) / 1000.0);
  }
  return exit_code_for(results);
}
