// Section 5.4 — software processing overhead of kernel-side tainting,
// plus the static check-elision counterpart.
//
// Part 1: the paper estimates the cost of marking input buffers tainted at
// one extra kernel instruction per input byte and reports 0.002%-0.2% of
// the SPEC programs' executed instructions.  This bench reproduces that
// ratio from measured input sizes and instruction counts.
//
// Part 2: the src/analysis static analyzer proves most dereference sites
// can never carry a tainted address; the interpreter then skips the
// per-dereference detection check at those PCs.  The second table reports
// the analysis coverage (sites proven clean) and the measured interpreter
// speedup, with identical verdicts by construction (docs/ANALYSIS.md).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "analysis/cfg.hpp"
#include "analysis/taint_analyzer.hpp"
#include "analysis/vsa.hpp"
#include "core/spec_workloads.hpp"

using namespace ptaint;
using namespace ptaint::core;

namespace {

using Clock = std::chrono::steady_clock;

double run_ms(Machine& m) {
  const auto t0 = Clock::now();
  (void)m.run();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 2;
  std::printf("== Section 5.4: software tainting overhead (scale %d) ==\n\n",
              scale);
  std::printf("%-8s %14s %16s %14s\n", "program", "input bytes",
              "instructions", "overhead");
  for (const auto& w : make_spec_workloads(scale)) {
    SpecRunRow row = run_spec_workload(w);
    // One tainting instruction per input byte, as in the paper's estimate.
    const double overhead =
        row.instructions == 0
            ? 0.0
            : 100.0 * static_cast<double>(row.input_bytes) / row.instructions;
    std::printf("%-8s %14llu %16llu %13.4f%%\n", row.name.c_str(),
                static_cast<unsigned long long>(row.input_bytes),
                static_cast<unsigned long long>(row.instructions), overhead);
  }
  std::printf("\npaper: 0.002%% - 0.2%% across SPEC 2000; the ratio is "
              "input-boundedness, which the surrogates reproduce.\n");

  std::printf("\n== Static check-elision: coverage and interpreter "
              "speedup ==\n\n");
  std::printf("%-8s %8s %8s %8s %9s %10s %10s %8s\n", "program", "sites",
              "gen1", "gen2", "elidable", "base ms", "elide ms", "speedup");
  constexpr int kReps = 3;  // min-of-3 rejects scheduler noise
  double base_total = 0.0, elide_total = 0.0;
  for (const auto& w : make_spec_workloads(scale)) {
    const auto booted = prepare_spec_workload(w);  // owns the program
    const analysis::Cfg cfg(booted->program());
    const analysis::TaintAnalysis ta = analysis::analyze_taint(cfg, {});
    const analysis::Gen2Elision gen2 =
        analysis::gen2_elision(cfg, {}, analysis::analyze_vsa(cfg, {}));
    double base_ms = 1e300, elide_ms = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
      auto base = prepare_spec_workload(w);
      base_ms = std::min(base_ms, run_ms(*base));
      auto elided = prepare_spec_workload(w);
      elided->enable_static_elision();  // installs the gen-2 table
      elide_ms = std::min(elide_ms, run_ms(*elided));
    }
    base_total += base_ms;
    elide_total += elide_ms;

    std::printf(
        "%-8s %8zu %8zu %8zu %8.1f%% %10.1f %10.1f %7.2fx\n", w.name.c_str(),
        ta.sites.size(), ta.proven_clean, gen2.gen2_clean,
        ta.sites.empty() ? 0.0
                         : 100.0 * static_cast<double>(gen2.gen2_clean) /
                               static_cast<double>(ta.sites.size()),
        base_ms, elide_ms, elide_ms > 0.0 ? base_ms / elide_ms : 0.0);
  }
  std::printf("%-8s %8s %8s %8s %9s %10.1f %10.1f %7.2fx\n", "total", "", "",
              "", "", base_total, elide_total,
              elide_total > 0.0 ? base_total / elide_total : 0.0);
  std::printf("\nverdicts are unchanged by construction: the gen-2 table "
              "(the value-set prover's,\ndocs/ANALYSIS.md) only covers sites "
              "proven untainted or dead\non "
              "every path (ptaint-campaign --check --elide pins this on "
              "the full\nmatrix; --static-check adds the bidirectional "
              "alert/witness consistency leg).\n");
  return 0;
}
