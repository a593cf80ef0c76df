// Interpreter throughput: one column per execution engine.
//
// Runs every SPEC surrogate workload under each engine in kEngines and
// reports guest instructions per second, wall time, and each engine's
// speedup over the reference step interpreter (plus the jit-over-superblock
// ratio, the JIT tier's acceptance metric).  Only Machine::run() is timed —
// assembly, loading, and snapshot work is excluded — and each cell is the
// best of five repetitions so a descheduled rep cannot understate an engine.
// Adding a future engine is one kEngines entry.
//
//   bench_interpreter_throughput [scale] [json-path]
//
// `scale` sizes the surrogate inputs (default 2); results are written to
// `json-path` (default BENCH_throughput.json) for EXPERIMENTS.md and CI.
// The run aborts with exit 1 if any workload's verdict differs between
// engines — throughput numbers for diverging engines would be meaningless.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/spec_workloads.hpp"

using namespace ptaint;
using namespace ptaint::core;

namespace {

using Clock = std::chrono::steady_clock;

// Engine columns, in run order.  Index 0 is the reference baseline every
// other engine's verdict and speedup are measured against.
constexpr const char* kEngines[] = {"step", "superblock", "jit"};
constexpr int kNumEngines = static_cast<int>(std::size(kEngines));

struct Cell {
  double best_s = 1e300;
  uint64_t instructions = 0;
  int stop = 0;
  int exit_status = 0;
  double ips() const { return best_s > 0 ? instructions / best_s : 0.0; }
};

Cell measure(const SpecWorkload& w, const char* engine, int reps) {
  Cell cell;
  for (int rep = 0; rep < reps; ++rep) {
    auto machine = prepare_spec_workload(w, {}, cpu::parse_engine(engine));
    const auto t0 = Clock::now();
    RunReport r = machine->run();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    cell.best_s = std::min(cell.best_s, s);
    cell.instructions = r.cpu_stats.instructions;
    cell.stop = static_cast<int>(r.stop);
    cell.exit_status = r.exit_status;
  }
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const int scale = argc > 1 ? std::atoi(argv[1]) : 2;
  const std::string json_path =
      argc > 2 ? argv[2] : "BENCH_throughput.json";
  constexpr int kReps = 5;

  std::printf("== Interpreter throughput by engine (scale %d) ==\n\n", scale);
  std::printf("%-8s %14s", "program", "instructions");
  for (const char* e : kEngines) std::printf(" %11s", (std::string(e) + " Mi/s").c_str());
  for (int i = 1; i < kNumEngines; ++i) {
    std::printf(" %10s", (std::string(kEngines[i]) + " x").c_str());
  }
  std::printf("\n");

  std::string json = "{\n  \"scale\": " + std::to_string(scale) +
                     ",\n  \"engines\": [";
  for (int i = 0; i < kNumEngines; ++i) {
    json += std::string(i ? ", " : "") + "\"" + kEngines[i] + "\"";
  }
  json += "],\n  \"workloads\": [\n";

  std::vector<double> geomean(kNumEngines, 1.0);  // speedup vs kEngines[0]
  int rows = 0;
  bool diverged = false;

  for (const auto& w : make_spec_workloads(scale)) {
    std::vector<Cell> cells;
    for (const char* e : kEngines) cells.push_back(measure(w, e, kReps));
    const Cell& base = cells[0];
    for (int i = 1; i < kNumEngines; ++i) {
      if (cells[i].instructions != base.instructions ||
          cells[i].stop != base.stop ||
          cells[i].exit_status != base.exit_status) {
        std::fprintf(stderr,
                     "%s: %s diverges from %s (insts %llu vs %llu) — not a "
                     "valid throughput comparison\n",
                     w.name.c_str(), kEngines[i], kEngines[0],
                     static_cast<unsigned long long>(cells[i].instructions),
                     static_cast<unsigned long long>(base.instructions));
        diverged = true;
      }
    }
    ++rows;
    std::printf("%-8s %14llu", w.name.c_str(),
                static_cast<unsigned long long>(base.instructions));
    for (const Cell& c : cells) std::printf(" %11.2f", c.ips() / 1e6);
    for (int i = 1; i < kNumEngines; ++i) {
      const double speedup = base.best_s / cells[i].best_s;
      geomean[i] *= speedup;
      std::printf(" %9.2fx", speedup);
    }
    std::printf("\n");

    std::string row = "    {\"name\": \"" + w.name + "\", \"instructions\": " +
                      std::to_string(base.instructions);
    char buf[128];
    for (int i = 0; i < kNumEngines; ++i) {
      std::snprintf(buf, sizeof(buf), ", \"%s_s\": %.6f, \"%s_ips\": %.0f",
                    kEngines[i], cells[i].best_s, kEngines[i], cells[i].ips());
      row += buf;
    }
    for (int i = 1; i < kNumEngines; ++i) {
      std::snprintf(buf, sizeof(buf), ", \"%s_speedup\": %.3f", kEngines[i],
                    base.best_s / cells[i].best_s);
      row += buf;
    }
    json += row + "},\n";
  }

  std::printf("\n");
  std::string gm_json;
  std::vector<double> gm(kNumEngines, 0.0);
  for (int i = 1; i < kNumEngines; ++i) {
    gm[i] = rows > 0 ? std::pow(geomean[i], 1.0 / rows) : 0.0;
    std::printf("geomean %s speedup over %s: %.2fx\n", kEngines[i],
                kEngines[0], gm[i]);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    \"%s\": %.3f,\n", kEngines[i], gm[i]);
    gm_json += buf;
  }
  // The JIT acceptance metric: jit over superblock.  Per-row ratios
  // multiply, so the ratio of the two geomeans is exactly the geomean of
  // the per-row jit/superblock speedups.
  double jit_vs_superblock = 0.0;
  if (kNumEngines >= 3 && gm[1] > 0) {
    jit_vs_superblock = gm[kNumEngines - 1] / gm[1];
    std::printf("geomean jit speedup over superblock: %.2fx\n",
                jit_vs_superblock);
  }

  if (json.size() >= 2 && json[json.size() - 2] == ',') {
    json.erase(json.size() - 2, 1);  // trailing comma
  }
  json += "  ],\n  \"geomean_speedup\": {\n" + gm_json;
  {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "    \"jit_vs_superblock\": %.3f\n  }\n}\n",
                  jit_vs_superblock);
    json += buf;
  }
  std::ofstream out(json_path, std::ios::binary);
  out << json;
  std::printf("wrote %s\n", json_path.c_str());

  return diverged ? 1 : 0;
}
