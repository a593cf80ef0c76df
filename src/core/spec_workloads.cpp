#include "core/spec_workloads.hpp"

#include <random>

#include "guest/apps/apps.hpp"
#include "guest/runtime.hpp"

namespace ptaint::core {
namespace {

// Deterministic generator; fixed seed so benches and tests agree.
class Gen {
 public:
  explicit Gen(uint32_t seed) : rng_(seed) {}
  uint32_t next(uint32_t bound) { return rng_() % bound; }
  char letter() { return static_cast<char>('a' + next(26)); }

 private:
  std::mt19937 rng_;
};

std::string gen_bytes(int n, uint32_t seed) {
  // Runs of repeated bytes: compressible, like the bzip2/gzip corpora.
  Gen g(seed);
  std::string out;
  out.reserve(n);
  while (static_cast<int>(out.size()) < n) {
    const char c = g.letter();
    const uint32_t run = 1 + g.next(12);
    for (uint32_t i = 0; i < run && static_cast<int>(out.size()) < n; ++i) {
      out.push_back(c);
    }
  }
  return out;
}

std::string gen_expressions(int lines, uint32_t seed) {
  Gen g(seed);
  std::string out;
  for (int i = 0; i < lines; ++i) {
    out += std::to_string(g.next(1000));
    const int terms = 1 + static_cast<int>(g.next(6));
    static constexpr char kOps[] = {'+', '-', '*'};
    for (int t = 0; t < terms; ++t) {
      out += ' ';
      out += kOps[g.next(3)];
      out += ' ';
      out += std::to_string(g.next(100));
    }
    out += " ;\n";
  }
  return out;
}

std::string gen_graph(int nodes, int edges, uint32_t seed) {
  Gen g(seed);
  std::string out = std::to_string(nodes) + " " + std::to_string(edges) + "\n";
  for (int i = 0; i < edges; ++i) {
    // Keep the graph connected-ish: chain plus random extras.
    const int u = i < nodes - 1 ? i : static_cast<int>(g.next(nodes));
    const int v = i < nodes - 1 ? i + 1 : static_cast<int>(g.next(nodes));
    out += std::to_string(u) + " " + std::to_string(v) + " " +
           std::to_string(1 + g.next(50)) + "\n";
  }
  return out;
}

std::string gen_words(int words, uint32_t seed) {
  Gen g(seed);
  std::string out;
  for (int i = 0; i < words; ++i) {
    const int len = 2 + g.next(9);
    for (int c = 0; c < len; ++c) out.push_back(g.letter());
    out.push_back(i % 12 == 11 ? '\n' : ' ');
  }
  return out;
}

std::string gen_netlist(int nets, uint32_t seed) {
  Gen g(seed);
  std::string out = std::to_string(nets) + "\n";
  for (int i = 0; i < nets; ++i) {
    out += std::to_string(g.next(64)) + " " + std::to_string(g.next(64)) + "\n";
  }
  return out;
}

}  // namespace

std::vector<SpecWorkload> make_spec_workloads(int scale) {
  namespace apps = guest::apps;
  std::vector<SpecWorkload> w;
  w.push_back({"BZIP2", apps::spec_bzip2(), gen_bytes(8192 * scale, 101),
               "bzip2_s checksum="});
  w.push_back({"GCC", apps::spec_gcc(), gen_expressions(220 * scale, 202),
               "gcc_s sum="});
  w.push_back({"GZIP", apps::spec_gzip(), gen_bytes(3000 * scale, 303),
               "gzip_s matched="});
  w.push_back({"MCF", apps::spec_mcf(),
               gen_graph(64, std::min(1024, 400 * scale), 404), "mcf_s dist="});
  w.push_back({"PARSER", apps::spec_parser(), gen_words(1500 * scale, 505),
               "parser_s words="});
  w.push_back({"VPR", apps::spec_vpr(),
               gen_netlist(std::min(256, 120 * scale), 606), "vpr_s cost="});
  return w;
}

std::unique_ptr<Machine> prepare_spec_workload(
    const SpecWorkload& workload, const cpu::TaintPolicy& policy,
    std::optional<cpu::Engine> engine) {
  MachineConfig cfg;
  cfg.policy = policy;
  cfg.max_instructions = 2'000'000'000;
  cfg.engine = engine;
  auto m = std::make_unique<Machine>(cfg);
  m->load_sources(guest::link_with_runtime(workload.app));
  m->os().vfs().install("/input", workload.input);
  return m;
}

SpecRunRow run_spec_workload(const SpecWorkload& workload,
                             const cpu::TaintPolicy& policy,
                             std::optional<cpu::Engine> engine) {
  auto m = prepare_spec_workload(workload, policy, engine);
  RunReport report = m->run();
  return classify_spec_run(workload, *m, report);
}

SpecRunRow classify_spec_run(const SpecWorkload& workload, Machine& m,
                             const RunReport& report) {
  SpecRunRow row;
  row.name = workload.name;
  row.program_bytes =
      m.program().text.size() * 4 + m.program().data.size();
  row.input_bytes = workload.input.size();
  row.instructions = report.cpu_stats.instructions;
  row.tainted_loads = report.cpu_stats.tainted_loads;
  row.alert = report.detected();
  row.output = report.stdout_text;
  row.ok = report.stop == cpu::StopReason::kExit && report.exit_status == 0 &&
           report.stdout_text.rfind(workload.expect_stdout_prefix, 0) == 0;
  return row;
}

}  // namespace ptaint::core
