// Incremental static-analysis performance (DESIGN.md §14).
//
// Exercises the summary cache (analysis/summary_cache.hpp) over the six
// SPEC surrogates, the largest static surfaces in the repo:
//
//   * cold    — first analysis of each program (CFG recovery + VSA
//               fixpoint + elision table), jobs = 1;
//   * exact   — a second lookup of the identical program: pure content-hash
//               hit, no analysis runs;
//   * warm    — one function is mutated (two adjacent independent
//               register-only instructions swapped: the content hash
//               changes, the abstract fixpoint does not) and the mutated
//               program is re-analyzed incrementally — only the dirty
//               function and its transitive callers re-iterate, then the
//               warm result is verified identical to a cold run;
//   * parallel — cold VSA fixpoint on a thread pool (SCC condensation
//               schedule) vs. single-threaded, byte-identical results.
//
//   bench_analysis [json-path]       timing run (default BENCH_analysis.json)
//   bench_analysis --check           identity run for the sanitizer legs:
//                                    warm == cold on every mutated app
//                                    (bitmaps, verdicts, witnesses, leak
//                                    sites) and parallel == serial; timing
//                                    skipped; exit 1 on any divergence
//
// The timing run gates the headline claim: warm single-function-mutation
// re-analysis must be >= 10x faster than a cold whole-program analysis on
// the largest surrogate (exit 1 otherwise).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "asmgen/assembler.hpp"
#include "core/spec_workloads.hpp"
#include "guest/runtime.hpp"
#include "isa/isa.hpp"

using namespace ptaint;
using namespace ptaint::analysis;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Register-only ALU instruction: defines one register, reads only
/// registers (no memory, no control flow, no side effects).
bool alu_reg_only(const isa::Instruction& in, uint8_t& def,
                  std::vector<uint8_t>& uses) {
  using isa::Op;
  uses.clear();
  switch (in.op) {
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
      def = in.rd;
      uses = {in.rt};
      return true;
    case Op::kSllv:
    case Op::kSrlv:
    case Op::kSrav:
    case Op::kAdd:
    case Op::kAddu:
    case Op::kSub:
    case Op::kSubu:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kNor:
    case Op::kSlt:
    case Op::kSltu:
      def = in.rd;
      uses = {in.rs, in.rt};
      return true;
    case Op::kAddi:
    case Op::kAddiu:
    case Op::kSlti:
    case Op::kSltiu:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
      def = in.rt;
      uses = {in.rs};
      return true;
    case Op::kLui:
      def = in.rt;
      return true;
    default:
      return false;
  }
}

/// Finds an abstractly-invisible swap site: two adjacent instructions in
/// one basic block that commute exactly (independent register-only ALU
/// ops), so exchanging them changes the content hash of exactly one
/// function while the converged abstract states — and therefore every
/// bitmap, verdict and witness — stay identical.  Prefers a leaf function
/// (longest invalidation chain through the callers).  Returns the text
/// index of the first instruction of the pair.
std::optional<size_t> find_invisible_swap(const Cfg& cfg) {
  std::optional<size_t> any;
  for (const BasicBlock& bb : cfg.blocks()) {
    for (uint32_t pc = bb.begin; pc + 8 <= bb.end; pc += 4) {
      const size_t i = cfg.index_of(pc);
      const isa::Instruction& a = cfg.instructions()[i];
      const isa::Instruction& b = cfg.instructions()[i + 1];
      uint8_t def_a = 0, def_b = 0;
      std::vector<uint8_t> uses_a, uses_b;
      if (!alu_reg_only(a, def_a, uses_a)) continue;
      if (!alu_reg_only(b, def_b, uses_b)) continue;
      if (def_a == 0 || def_b == 0 || def_a == def_b) continue;
      auto reads = [](const std::vector<uint8_t>& uses, uint8_t r) {
        return std::find(uses.begin(), uses.end(), r) != uses.end();
      };
      if (reads(uses_b, def_a) || reads(uses_a, def_b)) continue;
      if (cfg.program().text[i] == cfg.program().text[i + 1]) continue;
      if (bb.function >= 0 && cfg.functions()[bb.function].callees.empty()) {
        return i;  // leaf function: best case for the invalidation story
      }
      if (!any) any = i;
    }
  }
  return any;
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
bool identical(const char* what, const Cfg& cfg, const CachedAnalysis& x,
               const CachedAnalysis& y) {
  bool ok = true;
  auto fail = [&](const char* field) {
    std::fprintf(stderr, "FAIL %s: %s differs\n", what, field);
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

struct AppSurface {
  std::string name;
  asmgen::Program program;
  asmgen::Program mutated;  // one invisible swap applied (if found)
  bool has_mutation = false;
  size_t functions = 0;
};

std::vector<AppSurface> build_surfaces() {
  std::vector<AppSurface> out;
  for (core::SpecWorkload& w : core::make_spec_workloads(1)) {
    AppSurface s;
    s.name = w.name;
    s.program = asmgen::assemble(guest::link_with_runtime(std::move(w.app)));
    const Cfg cfg(s.program);
    s.functions = cfg.functions().size();
    if (std::optional<size_t> i = find_invisible_swap(cfg)) {
      s.mutated = s.program;
      std::swap(s.mutated.text[*i], s.mutated.text[*i + 1]);
      s.has_mutation = true;
    }
    out.push_back(std::move(s));
  }
  return out;
}

struct AppRow {
  std::string name;
  size_t text_words = 0;
  size_t functions = 0;
  double cold_ms = 0.0;
  double exact_us = 0.0;
  double warm_ms = 0.0;
  double speedup = 0.0;
  uint64_t dirty_fns = 0;
  bool warm_path = false;
};

constexpr int kReps = 5;

int run_check(std::vector<AppSurface>& apps) {
  VsaOptions opts;
  opts.witnesses = true;
  const cpu::TaintPolicy policy;
  const int jobs =
      std::max(2u, std::thread::hardware_concurrency() ? std::thread::hardware_concurrency() : 2u);
  int rc = 0;
  for (AppSurface& app : apps) {
    // Parallel cold vs. serial cold on the pristine program.
    SummaryCache serial;
    serial.set_jobs(1);
    const auto base = serial.analyze(app.program, policy, opts);
    {
      SummaryCache par;
      par.set_jobs(jobs);
      const auto p = par.analyze(app.program, policy, opts);
      const Cfg cfg(app.program);
      const std::string what = app.name + " parallel-vs-serial";
      if (!identical(what.c_str(), cfg, *base, *p)) rc = 1;
    }
    if (!app.has_mutation) {
      std::fprintf(stderr, "%s: no invisible-swap site, mutation leg skipped\n",
                   app.name.c_str());
      continue;
    }
    // Warm re-analysis of the mutation vs. a from-scratch cold run.
    const auto warm = serial.analyze(app.mutated, policy, opts);
    const bool warm_path = serial.stats().warm_hits > 0;
    SummaryCache fresh;
    fresh.set_jobs(1);
    const auto cold = fresh.analyze(app.mutated, policy, opts);
    const Cfg cfg(app.mutated);
    const std::string what = app.name + " warm-vs-cold";
    if (!identical(what.c_str(), cfg, *cold, *warm)) rc = 1;
    std::printf("%-8s warm==cold ok (%s, %llu dirty fns of %zu)\n",
                app.name.c_str(), warm_path ? "warm path" : "cold fallback",
                static_cast<unsigned long long>(serial.stats().invalidated_fns),
                app.functions);
    if (!warm_path) {
      std::fprintf(stderr, "FAIL %s: invisible swap fell back to cold\n",
                   app.name.c_str());
      rc = 1;
    }
  }
  std::printf("%s\n", rc == 0 ? "bench_analysis --check: all identical"
                              : "bench_analysis --check: DIVERGENCE");
  return rc;
}

int run_timing(std::vector<AppSurface>& apps, const std::string& json_path) {
  const cpu::TaintPolicy policy;
  const VsaOptions opts;  // Machine-shaped lookups: no witnesses
  std::vector<AppRow> rows;
  for (AppSurface& app : apps) {
    AppRow row;
    row.name = app.name;
    row.text_words = app.program.text.size();
    row.functions = app.functions;
    row.cold_ms = 1e9;
    row.exact_us = 1e9;
    row.warm_ms = 1e9;
    for (int rep = 0; rep < kReps; ++rep) {
      SummaryCache cache;
      cache.set_jobs(1);
      auto t0 = Clock::now();
      (void)cache.analyze(app.program, policy, opts);
      row.cold_ms = std::min(row.cold_ms, ms_since(t0));
      t0 = Clock::now();
      (void)cache.analyze(app.program, policy, opts);
      row.exact_us = std::min(row.exact_us, ms_since(t0) * 1000.0);
      if (!app.has_mutation) continue;
      t0 = Clock::now();
      (void)cache.analyze(app.mutated, policy, opts);
      row.warm_ms = std::min(row.warm_ms, ms_since(t0));
      row.warm_path = cache.stats().warm_hits > 0;
      row.dirty_fns = cache.stats().invalidated_fns;
    }
    if (app.has_mutation) row.speedup = row.cold_ms / row.warm_ms;
    std::printf(
        "%-8s %6zu words %3zu fns  cold %8.2fms  exact %7.1fus  "
        "warm %7.2fms (%5.1fx, %llu dirty%s)\n",
        row.name.c_str(), row.text_words, row.functions, row.cold_ms,
        row.exact_us, app.has_mutation ? row.warm_ms : 0.0, row.speedup,
        static_cast<unsigned long long>(row.dirty_fns),
        row.warm_path ? "" : ", COLD FALLBACK");
    rows.push_back(row);
  }

  // Parallel speedup on the largest surrogate.
  size_t largest = 0;
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].text_words > rows[largest].text_words) largest = i;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const int jobs = static_cast<int>(std::max(2u, hw ? hw : 2u));
  double par_ms = 1e9;
  for (int rep = 0; rep < kReps; ++rep) {
    SummaryCache cache;
    cache.set_jobs(jobs);
    const auto t0 = Clock::now();
    (void)cache.analyze(apps[largest].program, policy, opts);
    par_ms = std::min(par_ms, ms_since(t0));
  }
  const double par_speedup = rows[largest].cold_ms / par_ms;
  std::printf("parallel (%s, %d jobs): %8.2fms vs %8.2fms serial (%.2fx)\n",
              rows[largest].name.c_str(), jobs, par_ms, rows[largest].cold_ms,
              par_speedup);

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"analysis_cache\",\n  \"apps\": [\n";
  char buf[256];
  for (size_t i = 0; i < rows.size(); ++i) {
    const AppRow& r = rows[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"name\": \"%s\", \"text_words\": %zu, "
                  "\"functions\": %zu, \"cold_ms\": %.3f, "
                  "\"exact_hit_us\": %.1f, \"warm_ms\": %.3f, "
                  "\"warm_speedup\": %.1f, \"dirty_fns\": %llu, "
                  "\"warm_path\": %s}%s\n",
                  r.name.c_str(), r.text_words, r.functions, r.cold_ms,
                  r.exact_us, r.warm_ms, r.speedup,
                  static_cast<unsigned long long>(r.dirty_fns),
                  r.warm_path ? "true" : "false",
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof buf,
                "  \"largest\": \"%s\",\n  \"parallel\": {\"jobs\": %d, "
                "\"serial_ms\": %.3f, \"parallel_ms\": %.3f, "
                "\"speedup\": %.2f}\n}\n",
                rows[largest].name.c_str(), jobs, rows[largest].cold_ms,
                par_ms, par_speedup);
  out << buf;
  out.close();
  std::printf("wrote %s\n", json_path.c_str());

  // Headline gate: warm mutation re-analysis >= 10x cold on the largest
  // surrogate (generous against CI noise: warm touches one call chain,
  // cold iterates the whole program).
  const AppRow& big = rows[largest];
  if (!big.warm_path || big.speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: largest surrogate %s warm speedup %.1fx (< 10x)%s\n",
                 big.name.c_str(), big.speedup,
                 big.warm_path ? "" : ", cold fallback");
    return 1;
  }
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
    } else {
      json_path = arg;
    }
  }
  std::vector<AppSurface> apps = build_surfaces();
  return check ? run_check(apps) : run_timing(apps, json_path);
}
