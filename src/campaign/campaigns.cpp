#include "campaign/campaigns.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "analysis/cfg.hpp"
#include "analysis/summary_cache.hpp"
#include "analysis/vsa.hpp"
#include "core/attack.hpp"
#include "core/spec_workloads.hpp"
#include "guest/apps/apps.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

namespace ptaint::campaign {
namespace {

constexpr uint64_t kSpecBudget = 2'000'000'000;  // run_spec_workload's limit
constexpr uint64_t kContrastBudget = 200'000'000;  // MachineConfig default

std::string spec_verdict(const core::SpecRunRow& row) {
  if (row.alert) return "ALERT";
  return row.ok ? "OK" : "UNEXPECTED";
}

/// Process-wide memoized corpora, shared (job closures keep entries alive
/// past the builder's return).  Building the attack corpus assembles every
/// scenario's guest program (~90ms) — negligible once per batch campaign,
/// ruinous when the serve daemon pays it on every submitted cell.
/// Scenarios and workloads are immutable, so one process-wide copy shared
/// across worker threads changes nothing semantically.
const std::vector<std::shared_ptr<const core::Scenario>>& cached_corpus() {
  static const std::vector<std::shared_ptr<const core::Scenario>> corpus = [] {
    std::vector<std::shared_ptr<const core::Scenario>> out;
    for (auto& s : core::make_attack_corpus()) out.push_back(std::move(s));
    return out;
  }();
  return corpus;
}

const std::vector<std::shared_ptr<const core::SpecWorkload>>&
cached_workloads(int scale) {
  static std::mutex mutex;
  static std::map<int,
                  std::vector<std::shared_ptr<const core::SpecWorkload>>>
      by_scale;
  std::lock_guard<std::mutex> lock(mutex);
  auto it = by_scale.find(scale);
  if (it == by_scale.end()) {
    std::vector<std::shared_ptr<const core::SpecWorkload>> built;
    for (auto& w : core::make_spec_workloads(scale)) {
      built.push_back(std::make_shared<const core::SpecWorkload>(std::move(w)));
    }
    it = by_scale.emplace(scale, std::move(built)).first;
  }
  return it->second;
}

/// The memoized workload / scenario called `name`; throws
/// std::invalid_argument for an unknown name.
const std::shared_ptr<const core::SpecWorkload>& find_workload(
    int scale, const std::string& name) {
  for (const auto& w : cached_workloads(scale)) {
    if (w->name == name) return w;
  }
  throw std::invalid_argument("unknown spec workload: " + name);
}

const std::shared_ptr<const core::Scenario>& find_scenario(
    const std::string& name) {
  for (const auto& s : cached_corpus()) {
    if (s->name() == name) return s;
  }
  throw std::invalid_argument("unknown attack scenario: " + name);
}

/// Fills the job's machine fields.  The snapshot holds the armed pre-run
/// state (policy-independent — taint bits are data); run_job applies the
/// job's policy and elision at restore, and the budget is enforced per
/// job.  So the pool key names only the engine, the one thing a restore
/// cannot change, and one kept machine per worker and engine serves every
/// snapshot and policy column.
void set_machine(Job& job, const cpu::TaintPolicy& policy, bool elide,
                 std::optional<cpu::Engine> engine) {
  job.machine_key = engine ? cpu::to_string(*engine) : "default";
  job.engine = engine;
  job.settings = {policy, elide};
}

Job spec_job(SnapshotCache& cache, int spec_scale,
             const std::shared_ptr<const core::SpecWorkload>& w,
             const PolicyVariant& variant, bool elide,
             std::optional<cpu::Engine> engine) {
  Job job;
  job.app = "spec";
  job.payload = w->name;
  job.policy = variant.name;
  job.max_instructions = kSpecBudget;
  set_machine(job, variant.policy, elide, engine);
  // The scale sizes the workload's input, so it is part of the boot.
  const std::string snap_key =
      "spec:" + w->name + "@" + std::to_string(spec_scale);
  job.get_snapshot = [&cache, w, snap_key]() {
    return cache.get(snap_key, [&w]() {
      return core::prepare_spec_workload(*w, {})->snapshot();
    });
  };
  job.classify = [w](core::Machine& m, const core::RunReport& report,
                     JobResult& out) {
    const core::SpecRunRow row = core::classify_spec_run(*w, m, report);
    out.verdict = spec_verdict(row);
    out.detail = row.alert ? report.alert_line() : "";
  };
  return job;
}

Job attack_job(SnapshotCache& cache,
               const std::shared_ptr<const core::Scenario>& s,
               const std::string& policy_name,
               const cpu::TaintPolicy& policy, bool elide,
               std::optional<cpu::Engine> engine) {
  Job job;
  job.app = "attack";
  job.payload = s->name();
  job.policy = policy_name;
  job.max_instructions = s->max_instructions();
  set_machine(job, policy, elide, engine);
  job.get_snapshot = [&cache, s]() {
    return cache.get("attack:" + s->name(), [&s]() {
      // Arm under the default policy: the pre-run state is identical for
      // every variant, so one snapshot serves the whole policy column.
      return s->prepare_attack({})->snapshot();
    });
  };
  job.classify = [s](core::Machine& m, const core::RunReport& report,
                     JobResult& out) {
    const core::ScenarioResult r = s->classify_attack(m, report);
    out.verdict = core::to_string(r.outcome);
    out.detail = r.detail;
  };
  return job;
}

/// The Table 4 contrast case: the WRITE (%n) variant of the format-string
/// leak, expected to be *caught* by the pointer-taintedness detector.
std::unique_ptr<core::Machine> prepare_fn_format_write(
    std::optional<cpu::Engine> engine = std::nullopt) {
  core::MachineConfig cfg;
  cfg.engine = engine;
  auto m = std::make_unique<core::Machine>(cfg);
  m->load_sources(guest::link_with_runtime(guest::apps::fn_format_leak()));
  m->os().net().add_session({"abcd%x%x%x%x%n"});
  return m;
}

void classify_fn_format_write(const core::RunReport& report, JobResult& out) {
  out.verdict = report.detected() ? "DETECTED" : "NOT-DETECTED";
  out.detail =
      report.detected() ? report.alert_line() : std::string("NOT DETECTED (!)");
}

Job fn_format_write_job(SnapshotCache& cache, bool elide,
                        std::optional<cpu::Engine> engine) {
  Job job;
  job.app = "attack";
  job.payload = "fn-format-write";
  job.policy = "paper";
  job.max_instructions = kContrastBudget;
  set_machine(job, {}, elide, engine);
  job.get_snapshot = [&cache]() {
    return cache.get("attack:fn-format-write",
                     []() { return prepare_fn_format_write()->snapshot(); });
  };
  job.classify = [](core::Machine&, const core::RunReport& report,
                    JobResult& out) { classify_fn_format_write(report, out); };
  return job;
}

// --- matrices -------------------------------------------------------------

const core::AttackId kFalsenegIds[] = {core::AttackId::kFnIntOverflow,
                                       core::AttackId::kFnAuthFlag,
                                       core::AttackId::kFnFormatLeak};
const char* const kFalsenegLabels[] = {"(A) integer overflow index",
                                       "(B) auth-flag overwrite",
                                       "(C) format-string info leak"};

// --- serial references ----------------------------------------------------

JobStatus status_for(const core::RunReport& report) {
  switch (report.stop) {
    case cpu::StopReason::kFault: return JobStatus::kGuestFault;
    case cpu::StopReason::kInstLimit: return JobStatus::kBudgetExhausted;
    default: return JobStatus::kOk;
  }
}

JobResult serial_row(size_t index, std::string app, std::string payload,
                     std::string policy) {
  JobResult r;
  r.index = index;
  r.app = std::move(app);
  r.payload = std::move(payload);
  r.policy = std::move(policy);
  r.attempts = 1;
  return r;
}

/// One matrix cell run through the pre-campaign entry points on `engine`.
JobResult serial_cell(size_t index, const CellRef& cell, int spec_scale,
                      cpu::Engine engine) {
  JobResult r = serial_row(index, cell.app, cell.payload, cell.policy);
  const cpu::TaintPolicy policy = *policy_by_name(cell.policy);
  if (cell.app == "spec") {
    const core::SpecWorkload& w = *find_workload(spec_scale, cell.payload);
    auto m = core::prepare_spec_workload(w, policy, engine);
    r.report = m->run();
    const core::SpecRunRow row = core::classify_spec_run(w, *m, r.report);
    r.verdict = spec_verdict(row);
    r.detail = row.alert ? r.report.alert_line() : "";
  } else if (cell.payload == "fn-format-write") {
    r.report = prepare_fn_format_write(engine)->run();
    classify_fn_format_write(r.report, r);
  } else {
    core::ScenarioResult sr =
        find_scenario(cell.payload)->run_attack_with(policy, engine);
    r.report = std::move(sr.report);
    r.verdict = core::to_string(sr.outcome);
    r.detail = std::move(sr.detail);
  }
  r.status = status_for(r.report);
  return r;
}

// --- formatters -----------------------------------------------------------

std::string format_ablation(const std::vector<JobResult>& results) {
  std::string out;
  char line[256];
  out += "== Ablation: Table 1 rules and taint granularity ==\n\n";
  std::snprintf(line, sizeof line, "%-24s %18s %18s\n", "variant",
                "SPEC false pos.", "attacks detected");
  out += line;
  // Walk results in matrix order, emitting one row per policy group.
  size_t i = 0;
  while (i < results.size()) {
    const std::string& policy = results[i].policy;
    int spec_fp = 0, detected = 0, detectable = 0;
    size_t spec_total = 0;
    for (; i < results.size() && results[i].policy == policy; ++i) {
      const JobResult& r = results[i];
      if (r.app == "spec") {
        ++spec_total;
        if (r.verdict == "ALERT") ++spec_fp;
      } else {
        ++detectable;
        if (r.verdict == "DETECTED") ++detected;
      }
    }
    std::snprintf(line, sizeof line, "%-24s %12d / %zu %14d / %d\n",
                  policy.c_str(), spec_fp, spec_total, detected, detectable);
    out += line;
  }
  out +=
      "\nreading: the compare-untaint rule is the compatibility-critical "
      "one — without it, validated indices stay tainted and benign table "
      "lookups false-positive (the paper keeps it and accepts the Table 4 "
      "false negatives in exchange).\n";
  return out;
}

std::string format_falseneg(const std::vector<JobResult>& results) {
  if (results.size() != 4) {
    throw std::invalid_argument("falseneg campaign expects 4 results");
  }
  std::string out;
  char line[512];
  out += "== Table 4: False Negative Scenarios "
         "(detector ON, attacks still land) ==\n\n";
  for (size_t i = 0; i < 3; ++i) {
    std::snprintf(line, sizeof line, "%-34s  outcome=%-12s %s\n",
                  kFalsenegLabels[i], results[i].verdict.c_str(),
                  results[i].detail.c_str());
    out += line;
  }
  out += "\ncontrast: the WRITE variant of (C) is detected:\n";
  std::snprintf(line, sizeof line, "  %%x%%x%%x%%x%%n -> %s\n",
                results[3].detail.c_str());
  out += line;
  out +=
      "\npaper: all three scenarios escape any generic runtime detector;\n"
      "they corrupt or leak plain data without ever dereferencing a tainted "
      "word.\n";
  return out;
}

std::string format_coverage(const std::vector<JobResult>& results) {
  std::string out;
  char line[256];
  out += "== Coverage: attack corpus x detection mode ==\n\n";
  std::snprintf(line, sizeof line, "%-26s %-22s %s\n", "scenario", "mode",
                "outcome");
  out += line;
  for (const JobResult& r : results) {
    std::snprintf(line, sizeof line, "%-26s %-22s %s\n", r.payload.c_str(),
                  r.policy.c_str(), r.verdict.c_str());
    out += line;
  }
  return out;
}

}  // namespace

// Coverage policy columns: the three detection modes plus the address-leak
// direction ("leak-aware": paper pointer-taint with
// TaintPolicy::leak_detection armed).  One list shared by campaign_cells
// and policy_by_name so the views of the matrix can never disagree on the
// column set.
std::vector<PolicyVariant> coverage_columns() {
  std::vector<PolicyVariant> out;
  for (cpu::DetectionMode mode :
       {cpu::DetectionMode::kOff, cpu::DetectionMode::kControlDataOnly,
        cpu::DetectionMode::kPointerTaint}) {
    cpu::TaintPolicy p;
    p.mode = mode;
    out.push_back({core::to_string(mode), p});
  }
  {
    cpu::TaintPolicy p;  // paper defaults plus the leak direction
    p.leak_detection = true;
    out.push_back({"leak-aware", p});
  }
  return out;
}

std::vector<PolicyVariant> ablation_variants() {
  std::vector<PolicyVariant> out;
  out.push_back({"paper (all rules on)", {}});
  {
    cpu::TaintPolicy p;
    p.compare_untaints = false;
    out.push_back({"no compare-untaint", p});
  }
  {
    cpu::TaintPolicy p;
    p.and_zero_untaints = false;
    out.push_back({"no AND-zero untaint", p});
  }
  {
    cpu::TaintPolicy p;
    p.xor_self_untaints = false;
    out.push_back({"no XOR-self untaint", p});
  }
  {
    cpu::TaintPolicy p;
    p.shift_smear = false;
    out.push_back({"no shift smear", p});
  }
  {
    cpu::TaintPolicy p;
    p.per_word_taint = true;
    out.push_back({"per-word taint", p});
  }
  {
    cpu::TaintPolicy p;  // paper rules plus the address-leak direction
    p.leak_detection = true;
    out.push_back({"leak detection", p});
  }
  return out;
}

std::vector<std::string> campaign_names() {
  return {"ablation", "falseneg", "coverage"};
}

std::vector<Job> make_jobs(const std::string& campaign, SnapshotCache& cache,
                           int spec_scale, bool elide,
                           std::optional<cpu::Engine> engine) {
  std::vector<Job> jobs;
  for (const CellRef& cell : campaign_cells(campaign, spec_scale)) {
    jobs.push_back(make_cell_job(cell, cache, spec_scale, elide, engine));
  }
  return jobs;
}

std::vector<CellRef> campaign_cells(const std::string& campaign,
                                    int spec_scale) {
  std::vector<CellRef> out;
  if (campaign == "ablation") {
    for (const PolicyVariant& v : ablation_variants()) {
      for (const auto& w : cached_workloads(spec_scale)) {
        out.push_back({"spec", w->name, v.name});
      }
      for (const auto& s : cached_corpus()) {
        if (!s->expected_detected()) continue;
        out.push_back({"attack", s->name(), v.name});
      }
    }
    return out;
  }
  if (campaign == "falseneg") {
    for (core::AttackId id : kFalsenegIds) {
      out.push_back({"attack", core::make_scenario(id)->name(), "paper"});
    }
    out.push_back({"attack", "fn-format-write", "paper"});
    return out;
  }
  if (campaign == "coverage") {
    for (const PolicyVariant& v : coverage_columns()) {
      for (const auto& s : cached_corpus()) {
        out.push_back({"attack", s->name(), v.name});
      }
    }
    return out;
  }
  throw std::invalid_argument("unknown campaign: " + campaign);
}

std::optional<cpu::TaintPolicy> policy_by_name(const std::string& name) {
  for (const PolicyVariant& v : ablation_variants()) {
    if (v.name == name) return v.policy;
  }
  for (const PolicyVariant& v : coverage_columns()) {
    if (v.name == name) return v.policy;
  }
  if (name == "paper") return cpu::TaintPolicy{};
  return std::nullopt;
}

Job make_cell_job(const CellRef& cell, SnapshotCache& cache, int spec_scale,
                  bool elide, std::optional<cpu::Engine> engine) {
  const std::optional<cpu::TaintPolicy> policy = policy_by_name(cell.policy);
  if (!policy) {
    throw std::invalid_argument("unknown policy: " + cell.policy);
  }
  if (cell.app == "spec") {
    return spec_job(cache, spec_scale, find_workload(spec_scale, cell.payload),
                    {cell.policy, *policy}, elide, engine);
  }
  if (cell.app == "attack") {
    if (cell.payload == "fn-format-write") {
      if (cell.policy != "paper") {
        throw std::invalid_argument(
            "fn-format-write runs under the \"paper\" policy only");
      }
      return fn_format_write_job(cache, elide, engine);
    }
    return attack_job(cache, find_scenario(cell.payload), cell.policy,
                      *policy, elide, engine);
  }
  throw std::invalid_argument("unknown app kind: " + cell.app);
}

Job make_session_job(const std::string& app_name,
                     const std::vector<std::string>& session,
                     const std::string& stdin_text,
                     const std::string& policy_name, SnapshotCache& cache,
                     bool elide, std::optional<cpu::Engine> engine) {
  const std::optional<cpu::TaintPolicy> policy = policy_by_name(policy_name);
  if (!policy) {
    throw std::invalid_argument("unknown policy: " + policy_name);
  }
  if (guest::apps::find_app(app_name) == nullptr) {
    throw std::invalid_argument("unknown guest app: " + app_name);
  }
  Job job;
  job.app = "guest";
  job.payload = app_name;
  job.policy = policy_name;
  job.max_instructions = kContrastBudget;
  set_machine(job, *policy, elide, engine);
  // Session and stdin bytes are input the guest first sees when it runs,
  // so they are installed after restore rather than baked into the boot:
  // every session of one app forks that app's single boot snapshot.
  job.input = JobInput{session, stdin_text};
  job.get_snapshot = [&cache, app_name]() {
    return cache.get("guest:" + app_name, [&]() {
      auto m = std::make_unique<core::Machine>(core::MachineConfig{});
      m->load_sources(
          guest::link_with_runtime(guest::apps::find_app(app_name)->make()));
      return m->snapshot();
    });
  };
  job.classify = [](core::Machine&, const core::RunReport& report,
                    JobResult& out) {
    if (report.detected()) {
      out.verdict = "DETECTED";
      out.detail = report.alert_line();
    } else if (report.stop == cpu::StopReason::kFault) {
      out.verdict = "CRASHED";
      out.detail = report.fault;
    } else if (report.stop == cpu::StopReason::kInstLimit) {
      out.verdict = "BUDGET";
    } else {
      out.verdict = "EXIT:" + std::to_string(report.exit_status);
    }
  };
  return job;
}

std::vector<JobResult> run_serial_reference(const std::string& campaign,
                                            int spec_scale) {
  // The serial reference is the semantic baseline, so it always runs on
  // the reference interpreter regardless of the process default engine.
  std::vector<JobResult> out;
  for (const CellRef& cell : campaign_cells(campaign, spec_scale)) {
    out.push_back(
        serial_cell(out.size(), cell, spec_scale, cpu::Engine::kStep));
  }
  return out;
}

std::string format_campaign(const std::string& campaign,
                            const std::vector<JobResult>& results) {
  if (campaign == "ablation") return format_ablation(results);
  if (campaign == "falseneg") return format_falseneg(results);
  if (campaign == "coverage") return format_coverage(results);
  throw std::invalid_argument("unknown campaign: " + campaign);
}

StaticCheckReport static_check(const std::string& campaign,
                               const std::vector<JobResult>& results,
                               int spec_scale) {
  StaticCheckReport out;

  // Program per payload (link-identical across the policy column); the
  // analyses come from the process-wide summary cache — the same entries
  // Machine::apply_static_elision installs, so the backward check
  // validates exactly the cached bitmaps elided runs execute under (and
  // the campaign machines usually left them warm).
  std::map<std::string, asmgen::Program> programs;
  auto program_for = [&](const JobResult& r) -> const asmgen::Program& {
    auto it = programs.find(r.payload);
    if (it != programs.end()) return it->second;
    std::unique_ptr<core::Machine> m;
    if (r.app == "spec") {
      m = core::prepare_spec_workload(*find_workload(spec_scale, r.payload));
    } else if (r.payload == "fn-format-write") {
      m = prepare_fn_format_write();
    } else {
      m = find_scenario(r.payload)->prepare_attack({});
    }
    return programs.emplace(r.payload, m->program()).first->second;
  };

  for (const JobResult& r : results) {
    if (!r.report.alert) continue;
    const cpu::SecurityAlert& alert = *r.report.alert;
    // Only pointer-taintedness and address-leak alerts have a static
    // counterpart; the §5.3 annotation check and the NX baseline fire on
    // data values, which the analyzer deliberately summarizes away.
    const bool is_leak = alert.kind == cpu::AlertKind::kAddressLeak;
    if (!is_leak && alert.kind != cpu::AlertKind::kTaintedJumpTarget &&
        alert.kind != cpu::AlertKind::kTaintedLoadAddress &&
        alert.kind != cpu::AlertKind::kTaintedStoreAddress) {
      continue;
    }
    ++out.alerts_checked;
    const std::optional<cpu::TaintPolicy> policy = policy_by_name(r.policy);
    if (!policy) {
      throw std::invalid_argument("static_check: unknown policy " + r.policy);
    }
    const std::shared_ptr<const analysis::CachedAnalysis> st =
        analysis::SummaryCache::instance().analyze(program_for(r), *policy);
    if (is_leak) {
      // Forward: the aprov layer must hold a may-leak witness for the
      // kernel-output site; backward: the site must not be in the leak
      // elision bitmap (a leak-elided run would skip the check).
      if (!st->g2.predicts_leak(alert.pc)) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s / %s / %s: leak alert at %08x (%s) has no prover "
                      "leak witness",
                      r.app.c_str(), r.payload.c_str(), r.policy.c_str(),
                      alert.pc, alert.disasm.c_str());
        out.missed.push_back(line);
      }
      const analysis::LeakSite* site = st->g2.leak_site_at(alert.pc);
      if (site && site->reachable && site->may_planes == 0) {
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s / %s / %s: leak alert at %08x (%s) sits in the "
                      "leak elision table",
                      r.app.c_str(), r.payload.c_str(), r.policy.c_str(),
                      alert.pc, alert.disasm.c_str());
        out.elided_alerts.push_back(line);
      }
      continue;
    }
    // Forward: the prover must hold a may-taint witness for the alert site.
    if (!st->g2.predicts_alert(alert.pc)) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s / %s / %s: dynamic alert at %08x (%s) has no "
                    "prover witness",
                    r.app.c_str(), r.payload.c_str(), r.policy.c_str(),
                    alert.pc, alert.disasm.c_str());
      out.missed.push_back(line);
    }
    // Backward: the alert PC must not be set in the bitmap Machine installs
    // (sites proven clean or dead) — an elided run would skip the check.
    const std::vector<uint8_t>& elision = st->gen2.elision;
    const size_t idx = (alert.pc - isa::layout::kTextBase) / 4;
    if (alert.pc >= isa::layout::kTextBase && idx < elision.size() &&
        elision[idx] != 0) {
      char line[256];
      std::snprintf(line, sizeof line,
                    "%s / %s / %s: dynamic alert at %08x (%s) sits in the "
                    "gen-2 elision table",
                    r.app.c_str(), r.payload.c_str(), r.policy.c_str(),
                    alert.pc, alert.disasm.c_str());
      out.elided_alerts.push_back(line);
    }
  }
  (void)campaign;  // matrices self-describe via app/payload/policy labels
  return out;
}

std::vector<std::string> diff_verdicts(const std::vector<JobResult>& engine,
                                       const std::vector<JobResult>& serial) {
  std::vector<std::string> out;
  if (engine.size() != serial.size()) {
    std::ostringstream ss;
    ss << "result count mismatch: engine=" << engine.size()
       << " serial=" << serial.size();
    out.push_back(ss.str());
    return out;
  }
  for (size_t i = 0; i < engine.size(); ++i) {
    const JobResult& e = engine[i];
    const JobResult& s = serial[i];
    auto mismatch = [&](const char* field, const std::string& ev,
                        const std::string& sv) {
      std::ostringstream ss;
      ss << "[" << i << "] " << s.app << " / " << s.payload << " / "
         << s.policy << ": " << field << " differs: engine=\"" << ev
         << "\" serial=\"" << sv << "\"";
      out.push_back(ss.str());
    };
    if (e.app != s.app) mismatch("app", e.app, s.app);
    if (e.payload != s.payload) mismatch("payload", e.payload, s.payload);
    if (e.policy != s.policy) mismatch("policy", e.policy, s.policy);
    if (e.verdict != s.verdict) mismatch("verdict", e.verdict, s.verdict);
    if (e.detail != s.detail) mismatch("detail", e.detail, s.detail);
    const std::string ea = e.report.alert ? e.report.alert_line() : "";
    const std::string sa = s.report.alert ? s.report.alert_line() : "";
    if (ea != sa) mismatch("alert", ea, sa);
    if (e.report.alert_function != s.report.alert_function) {
      mismatch("alert_function", e.report.alert_function,
               s.report.alert_function);
    }
  }
  return out;
}

}  // namespace ptaint::campaign
