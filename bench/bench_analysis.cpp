// Static-analysis summary cache performance and identity (DESIGN.md §14).
//
// The summary cache (analysis/summary_cache.hpp) is an exact-content memo
// over the VSA result set.  Timed over the six SPEC surrogates, the largest
// static surfaces in the repo:
//
//   * cold  — first analysis of each program (CFG recovery + VSA fixpoint
//             + elision table + block leaders);
//   * exact — a second lookup of the identical program by reference: the
//             text is rehashed, then a hit, no analysis runs;
//   * shared — the same lookup through the published shared program
//             (asmgen::share), which carries its digest: no rehash, the
//             path Machine::apply_static_elision takes on every boot and
//             every snapshot-switching restore.
//
//   bench_analysis [json-path]       timing run (default BENCH_analysis.json)
//   bench_analysis --check           identity run for the sanitizer legs:
//                                    on every registry app under every
//                                    ablation and coverage column, the
//                                    cached and direct results agree
//                                    (bitmaps, site reports, witnesses,
//                                    leak sites), a lookup
//                                    through the shared program returns
//                                    the by-reference entry, and a
//                                    data-only variant of each app is an
//                                    exact hit; timing skipped; exit 1 on
//                                    any divergence
//
// Any other argument starting with "--" is a usage error (exit 2).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "analysis/vsa.hpp"
#include "asmgen/assembler.hpp"
#include "asmgen/program_memo.hpp"
#include "campaign/campaigns.hpp"
#include "core/spec_workloads.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

using namespace ptaint;
using namespace ptaint::analysis;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool same_witnesses(const std::vector<Witness>& a,
                    const std::vector<Witness>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].site_pc != b[i].site_pc || a[i].complete != b[i].complete ||
        a[i].steps.size() != b[i].steps.size()) {
      return false;
    }
    for (size_t j = 0; j < a[i].steps.size(); ++j) {
      const WitnessStep& x = a[i].steps[j];
      const WitnessStep& y = b[i].steps[j];
      if (x.pc != y.pc || x.event != y.event || x.loc != y.loc) return false;
    }
  }
  return true;
}

bool same_leak_sites(const std::vector<LeakSite>& a,
                     const std::vector<LeakSite>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].pc != b[i].pc || a[i].reachable != b[i].reachable ||
        a[i].may_planes != b[i].may_planes ||
        a[i].annotated != b[i].annotated) {
      return false;
    }
  }
  return true;
}

/// Full identity between two analysis result sets: elision and leak
/// bitmaps, per-site verdict renderings, witnesses, leak sites.
bool identical(const std::string& what, const Cfg& cfg,
               const CachedAnalysis& x, const CachedAnalysis& y) {
  bool ok = true;
  auto fail = [&](const char* field) {
    std::fprintf(stderr, "FAIL %s: %s differs\n", what.c_str(), field);
    ok = false;
  };
  if (x.gen2.elision != y.gen2.elision) fail("gen2 elision bitmap");
  if (x.gen2.leak_elision != y.gen2.leak_elision) fail("leak elision bitmap");
  if (x.g2.report(cfg) != y.g2.report(cfg)) fail("gen2 site report");
  if (x.g2.leak_report(cfg) != y.g2.leak_report(cfg)) fail("leak report");
  if (!same_witnesses(x.g2.witnesses, y.g2.witnesses)) fail("witnesses");
  if (!same_witnesses(x.g2.leak_witnesses, y.g2.leak_witnesses)) {
    fail("leak witnesses");
  }
  if (!same_leak_sites(x.g2.leak_sites, y.g2.leak_sites)) fail("leak sites");
  if (x.block_leaders != y.block_leaders) fail("block leaders");
  return ok;
}

/// What a consumer without the cache computes: Cfg recovery, one
/// analyze_vsa, gen2_elision and the block leaders.
CachedAnalysis direct(const Cfg& cfg, const cpu::TaintPolicy& policy,
                      const VsaOptions& options) {
  CachedAnalysis r;
  r.g2 = analyze_vsa(cfg, policy, options);
  r.gen2 = gen2_elision(cfg, policy, r.g2);
  r.block_leaders.assign(cfg.instructions().size(), 0);
  for (const BasicBlock& bb : cfg.blocks()) {
    r.block_leaders[cfg.index_of(bb.begin)] = 1;
  }
  return r;
}

int run_check() {
  std::vector<campaign::PolicyVariant> columns = campaign::ablation_variants();
  for (const campaign::PolicyVariant& c : campaign::coverage_columns()) {
    columns.push_back(c);
  }
  SummaryCache cached;
  int rc = 0;
  size_t compared = 0;
  size_t data_hits = 0;
  for (const guest::apps::AppEntry& app : guest::apps::registry()) {
    const std::shared_ptr<const asmgen::Program> shared =
        asmgen::share(asmgen::assemble(guest::link_with_runtime(app.make())));
    const asmgen::Program& program = *shared;
    const Cfg cfg(program);
    for (const campaign::PolicyVariant& column : columns) {
      for (const bool witnesses : {false, true}) {
        VsaOptions opts;
        opts.witnesses = witnesses;
        const std::string what = std::string(app.name) + " / " +
                                 column.name +
                                 (witnesses ? " (witnesses)" : "");
        const CachedAnalysis want = direct(cfg, column.policy, opts);
        const auto c = cached.analyze(program, column.policy, opts);
        if (!identical(what + " cached-vs-direct", cfg, *c, want)) rc = 1;
        if (cached.analyze(shared, column.policy, opts).get() != c.get()) {
          std::fprintf(stderr, "FAIL %s: shared lookup missed the entry\n",
                       what.c_str());
          rc = 1;
        }
        ++compared;
      }
    }
    // A data-only variant keeps the key: same object, one more hit.
    if (program.data.empty()) continue;
    SummaryCache memo;
    const auto base = memo.analyze(program, columns.front().policy);
    asmgen::Program variant = program;
    variant.data.front() ^= 0xff;
    const auto hit = memo.analyze(variant, columns.front().policy);
    if (hit.get() != base.get() || memo.stats().hits != 1) {
      std::fprintf(stderr, "FAIL %s: data-only variant missed the cache\n",
                   app.name);
      rc = 1;
    }
    ++data_hits;
  }
  std::printf("%zu app x column x witness cells compared (cached, direct); "
              "%zu data-only variants hit\n",
              compared, data_hits);
  std::printf("%s\n", rc == 0 ? "bench_analysis --check: all identical"
                              : "bench_analysis --check: DIVERGENCE");
  return rc;
}

struct AppRow {
  std::string name;
  size_t text_words = 0;
  size_t functions = 0;
  double cold_ms = 1e9;
  double exact_us = 1e9;
  double shared_us = 1e9;
};

constexpr int kReps = 5;

int run_timing(const std::string& json_path) {
  const cpu::TaintPolicy policy;
  const VsaOptions opts;  // Machine-shaped lookups: no witnesses
  std::vector<AppRow> rows;
  for (core::SpecWorkload& w : core::make_spec_workloads(1)) {
    const std::shared_ptr<const asmgen::Program> shared = asmgen::share(
        asmgen::assemble(guest::link_with_runtime(std::move(w.app))));
    const asmgen::Program& program = *shared;
    AppRow row;
    row.name = w.name;
    row.text_words = program.text.size();
    row.functions = Cfg(program).functions().size();
    // Best of kReps, each on a fresh cache so every first lookup is cold.
    for (int rep = 0; rep < kReps; ++rep) {
      SummaryCache cache;
      auto t0 = Clock::now();
      (void)cache.analyze(program, policy, opts);
      row.cold_ms = std::min(row.cold_ms, ms_since(t0));
      t0 = Clock::now();
      (void)cache.analyze(program, policy, opts);
      row.exact_us = std::min(row.exact_us, ms_since(t0) * 1000.0);
      t0 = Clock::now();
      (void)cache.analyze(shared, policy, opts);
      row.shared_us = std::min(row.shared_us, ms_since(t0) * 1000.0);
    }
    std::printf(
        "%-8s %6zu words %3zu fns  cold %8.2fms  exact %7.1fus  "
        "shared %5.2fus\n",
        row.name.c_str(), row.text_words, row.functions, row.cold_ms,
        row.exact_us, row.shared_us);
    rows.push_back(row);
  }

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"analysis_cache\",\n  \"reps\": " << kReps
      << ",\n  \"apps\": [\n";
  char buf[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const AppRow& r = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"text_words\": %zu, "
                  "\"functions\": %zu, \"cold_ms\": %.3f, "
                  "\"exact_hit_us\": %.1f, \"shared_hit_us\": %.2f}%s\n",
                  r.name.c_str(), r.text_words, r.functions, r.cold_ms,
                  r.exact_us, r.shared_us, i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string json_path = "BENCH_analysis.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr,
                   "bench_analysis: unknown option %s\n"
                   "usage: bench_analysis [--check | json-path]\n",
                   arg.c_str());
      return 2;
    } else {
      json_path = arg;
    }
  }
  return check ? run_check() : run_timing(json_path);
}
