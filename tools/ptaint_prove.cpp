// ptaint-prove — memory-aware value-set taint prover front end.
//
//   ptaint-prove [options] program.s [more.s ...]
//   ptaint-prove --app NAME
//
// Assembles the input (linked with the guest runtime unless --no-runtime)
// and runs both static analyzers: the register-only pass (gen-1) and the
// value-set prover (gen-2, src/analysis/vsa.cpp).  For every dereference
// site the prover cannot clear it prints a *witness*: a shortest
// source-rooted may-taint path (syscall input / argv / TAINTSET /
// unmodeled stack read -> memory cells -> registers -> the dereference).
// A witness whose chain could not be connected to any taint source is
// *unexplained* — on a non-attack program that indicates an analysis
// modeling gap, and the CI sweep requires zero of them.
//
// With --leaks the tool reports the inverse taint direction instead: every
// kernel-output site (SYS_WRITE / SYS_SEND syscall instruction) is either
// proven clean — no byte of the output buffer can carry stack/heap/text
// address provenance, so the dynamic leak check is elided there — or gets a
// leak witness tracing an address introduction to the output buffer.
//
// Exit codes:
//   0  every witness is source-rooted (or there are no may-tainted sites)
//   1  unexplained witnesses present
//   4  usage or assembly error
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "analysis/taint_analyzer.hpp"
#include "analysis/vsa.hpp"
#include "core/settings.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

using namespace ptaint;

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "ptaint-prove: cannot open " << path << "\n";
    std::exit(4);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

asmgen::Source app_source(const std::string& name) {
  if (const guest::apps::AppEntry* e = guest::apps::find_app(name)) {
    return e->make();
  }
  std::cerr << "ptaint-prove: unknown app '" << name << "'; known:";
  for (const auto& e : guest::apps::registry()) std::cerr << " " << e.name;
  std::cerr << "\n";
  std::exit(4);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

[[noreturn]] void usage() {
  std::cerr << "usage: ptaint-prove [options] program.s [more.s ...]\n"
               "       ptaint-prove --app NAME\n"
               "run ptaint-prove --help for the option list\n";
  std::exit(4);
}

struct Stats {
  size_t sites = 0;       // reachable dereference sites
  size_t gen1_clean = 0;  // proven clean by the register-only analyzer
  size_t gen2_clean = 0;  // elided by the gen-2 table Machine installs
  size_t may_sites = 0;   // sites the prover cannot clear (VSA verdict)
  size_t unexplained = 0; // may sites with no source-rooted witness
};

/// Emit one witness list as a JSON array (shared by both directions).
void print_witnesses_json(const analysis::Cfg& cfg,
                          const std::vector<analysis::Witness>& witnesses) {
  auto func_name = [&](uint32_t pc) -> std::string {
    const int f = cfg.function_at(pc);
    return f >= 0 ? cfg.functions()[static_cast<size_t>(f)].name : "?";
  };
  bool first = true;
  for (const analysis::Witness& w : witnesses) {
    std::printf("%s\n    {\"site_pc\": \"0x%08x\", \"site\": \"%s\", "
                "\"function\": \"%s\", \"complete\": %s, \"steps\": [",
                first ? "" : ",", w.site_pc,
                json_escape(isa::disassemble(cfg.inst_at(w.site_pc),
                                             w.site_pc))
                    .c_str(),
                json_escape(func_name(w.site_pc)).c_str(),
                w.complete ? "true" : "false");
    first = false;
    bool sfirst = true;
    for (const analysis::WitnessStep& step : w.steps) {
      std::printf("%s\n      {\"pc\": \"0x%08x\", \"event\": \"%s\", "
                  "\"loc\": \"%s\"}",
                  sfirst ? "" : ",", step.pc,
                  json_escape(step.event).c_str(),
                  json_escape(step.loc).c_str());
      sfirst = false;
    }
    std::printf("%s]}", sfirst ? "" : "\n    ");
  }
  std::printf("%s]", first ? "" : "\n  ");
}

/// Print witnesses as text (shared by both directions); returns nothing,
/// the caller prints the trailing count line.
void print_witnesses_text(const analysis::Cfg& cfg,
                          const std::vector<analysis::Witness>& witnesses) {
  auto func_name = [&](uint32_t pc) -> std::string {
    const int f = cfg.function_at(pc);
    return f >= 0 ? cfg.functions()[static_cast<size_t>(f)].name : "?";
  };
  for (const analysis::Witness& w : witnesses) {
    std::printf("\nwitness for %08x: %s  [in %s]%s\n", w.site_pc,
                isa::disassemble(cfg.inst_at(w.site_pc), w.site_pc).c_str(),
                func_name(w.site_pc).c_str(),
                w.complete ? "" : "  (UNEXPLAINED: no source-rooted "
                                  "path found)");
    size_t n = 1;
    for (const analysis::WitnessStep& step : w.steps) {
      std::printf("  %2zu. %08x  %-44s -> %s\n", n++, step.pc,
                  step.event.c_str(), step.loc.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<asmgen::Source> sources;
  cpu::TaintPolicy policy;  // paper defaults
  std::string app_name = "program";
  bool with_runtime = true;
  bool json = false;
  bool quiet = false;
  bool witnesses = true;
  bool leaks = false;
  int jobs = 1;
  std::vector<std::string> may_publish;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--help") {
      std::printf("%s", R"(ptaint-prove: value-set taint prover for PTA-32 assembly
usage: ptaint-prove [options] program.s [more.s ...]
  --app NAME            prove a built-in guest app (exp1, wu-ftpd, ...)
  --list-apps           print the known app names, one per line, and exit
  --no-runtime          do not link the guest runtime
  --leaks               report the address-leak direction: kernel-output
                        sites proven clean vs. possibly leaking, with leak
                        witnesses (address introduction -> output buffer)
  --may-publish FUNC    annotate FUNC (repeatable) as a legitimate pointer
                        publisher: its output sites count as explained,
                        not leaking (mirrors MachineConfig::may_publish)
  --jobs N              iterate the value-set fixpoint on N threads
                        (results are byte-identical to --jobs 1)
  --json                emit the report as JSON (schema: docs/ANALYSIS.md)
  --no-witnesses        verdicts and elision stats only (faster)
  --no-compare-untaint  analyze under the ablated compare rule
  --quiet               suppress the report, set the exit code only
exit codes: 0 all witnesses source-rooted, 1 unexplained witnesses,
            4 usage or assembly error
)");
      return 0;
    } else if (arg == "--app") {
      app_name = value();
      sources.push_back(app_source(app_name));
    } else if (arg == "--list-apps") {
      for (const auto& e : guest::apps::registry()) {
        std::printf("%s\n", e.name);
      }
      return 0;
    } else if (arg == "--no-runtime") {
      with_runtime = false;
    } else if (arg == "--leaks") {
      leaks = true;
    } else if (arg == "--may-publish") {
      may_publish.push_back(value());
    } else if (arg == "--jobs") {
      jobs = std::atoi(value().c_str());
      if (jobs < 1) jobs = 1;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--no-witnesses") {
      witnesses = false;
    } else if (arg == "--no-compare-untaint") {
      policy.compare_untaints = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ptaint-prove: unknown option " << arg << "\n";
      usage();
    } else {
      app_name = arg;
      sources.push_back({arg, read_file(arg)});
    }
  }
  if (sources.empty()) usage();
  if (!core::settings_valid("ptaint-prove")) return 4;

  std::vector<asmgen::Source> units;
  if (with_runtime) units = guest::runtime();
  for (auto& s : sources) units.push_back(std::move(s));

  asmgen::Program program;
  try {
    program = asmgen::assemble(units);
  } catch (const asmgen::AssemblyError& e) {
    std::cerr << "assembly failed:\n" << e.what();
    return 4;
  }

  const analysis::Cfg cfg(program);
  analysis::VsaOptions opts;
  opts.witnesses = witnesses;
  try {
    opts.may_publish =
        analysis::resolve_publish_ranges(program, may_publish, true);
  } catch (const std::out_of_range& e) {
    std::cerr << "ptaint-prove: " << e.what() << "\n";
    return 4;
  }
  analysis::SummaryCache& cache = analysis::SummaryCache::instance();
  if (jobs > 1) cache.set_jobs(jobs);
  const std::shared_ptr<const analysis::CachedAnalysis> cached =
      cache.analyze(program, policy, opts);
  const analysis::TaintAnalysis g1 = analysis::analyze_taint(cfg, policy);
  const analysis::VsaAnalysis& g2 = cached->g2;

  Stats st;
  for (size_t i = 0; i < g1.sites.size(); ++i) {
    const analysis::DerefSite& s1 = g1.sites[i];
    const analysis::DerefSite& s2 = g2.sites[i];
    if (!s1.reachable && !s2.reachable) continue;
    ++st.sites;
    // Use the elision bitmaps so the counts match the table the
    // interpreter installs (they include sites the prover shows dead).
    const size_t idx = cfg.index_of(s1.pc);
    if (g1.elision[idx] != 0) ++st.gen1_clean;
    if (cached->gen2.elision[idx] != 0) ++st.gen2_clean;
    if (s2.reachable && may_be_tainted(s2.may_taint)) ++st.may_sites;
  }
  for (const analysis::Witness& w : g2.witnesses) {
    if (!w.complete) ++st.unexplained;
  }

  // Leak-direction stats (always computed; only reported under --leaks).
  size_t leak_unexplained = 0;
  for (const analysis::Witness& w : g2.leak_witnesses) {
    if (!w.complete) ++leak_unexplained;
  }

  if (leaks) {
    if (json && !quiet) {
      std::printf("{\n");
      std::printf("  \"schema\": 2,\n");
      std::printf("  \"app\": \"%s\",\n", json_escape(app_name).c_str());
      std::printf("  \"direction\": \"leak\",\n");
      std::printf("  \"output_sites\": %zu,\n", g2.output_sites);
      std::printf("  \"leak_clean\": %zu,\n", g2.leak_clean);
      std::printf("  \"leak_possible\": %zu,\n", g2.leak_possible);
      std::printf("  \"leak_annotated\": %zu,\n", g2.leak_annotated);
      std::printf("  \"unexplained\": %zu,\n", leak_unexplained);
      std::printf("  \"analysis_cache\": %s,\n", cache.stats().json(false).c_str());
      std::printf("  \"witnesses\": [");
      print_witnesses_json(cfg, g2.leak_witnesses);
      std::printf("\n}\n");
    } else if (!quiet) {
      std::printf("%zu kernel-output site(s): %zu leak check(s) elided "
                  "(%.1f%%), %zu may leak an address, %zu annotated "
                  "may-publish\n",
                  g2.output_sites, g2.leak_clean,
                  g2.output_sites
                      ? 100.0 * static_cast<double>(g2.leak_clean) /
                            static_cast<double>(g2.output_sites)
                      : 0.0,
                  g2.leak_possible, g2.leak_annotated);
      std::printf("%s", g2.leak_report(cfg).c_str());
      if (witnesses) {
        print_witnesses_text(cfg, g2.leak_witnesses);
        std::printf("\n%zu leak witness(es), %zu unexplained\n",
                    g2.leak_witnesses.size(), leak_unexplained);
      }
    }
    return leak_unexplained == 0 ? 0 : 1;
  }

  if (json && !quiet) {
    std::printf("{\n");
    std::printf("  \"schema\": 2,\n");
    std::printf("  \"app\": \"%s\",\n", json_escape(app_name).c_str());
    std::printf("  \"sites\": %zu,\n", st.sites);
    std::printf("  \"gen1_clean\": %zu,\n", st.gen1_clean);
    std::printf("  \"gen2_clean\": %zu,\n", st.gen2_clean);
    std::printf("  \"may_tainted\": %zu,\n", st.may_sites);
    std::printf("  \"unexplained\": %zu,\n", st.unexplained);
    std::printf("  \"output_sites\": %zu,\n", g2.output_sites);
    std::printf("  \"leak_clean\": %zu,\n", g2.leak_clean);
    std::printf("  \"analysis_cache\": %s,\n", cache.stats().json(false).c_str());
    std::printf("  \"witnesses\": [");
    print_witnesses_json(cfg, g2.witnesses);
    std::printf("\n}\n");
  } else if (!quiet) {
    std::printf("%zu reachable dereference site(s): %zu proven clean by the "
                "register-only analyzer, %zu by the gen-2 table "
                "(%.1f%% -> %.1f%% elidable), %zu may-tainted\n",
                st.sites, st.gen1_clean, st.gen2_clean,
                st.sites ? 100.0 * static_cast<double>(st.gen1_clean) /
                               static_cast<double>(st.sites)
                         : 0.0,
                st.sites ? 100.0 * static_cast<double>(st.gen2_clean) /
                               static_cast<double>(st.sites)
                         : 0.0,
                st.may_sites);
    if (witnesses) {
      print_witnesses_text(cfg, g2.witnesses);
      std::printf("\n%zu witness(es), %zu unexplained\n",
                  g2.witnesses.size(), st.unexplained);
    }
  }
  return st.unexplained == 0 ? 0 : 1;
}
