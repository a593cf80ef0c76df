// The paper's evaluation matrices expressed as campaign job lists.
//
// Three named campaigns:
//   "ablation"  — bench_ablation_policy's matrix: 7 policy variants ×
//                 (6 SPEC surrogates + 9 detectable attacks);
//   "falseneg"  — bench_table4_false_negatives: the three Table 4 escape
//                 scenarios plus the detected WRITE contrast;
//   "coverage"  — the full attack corpus × {unprotected, control-data,
//                 pointer-taint, leak-aware} policy columns ("leak-aware"
//                 is the paper policy with TaintPolicy::leak_detection on).
//
// Each campaign is one list of cells (campaign_cells) and three pieces:
//   make_jobs()             — the parallel matrix (snapshot-fork per job);
//   run_serial_reference()  — the same matrix run serially through the
//                             pre-campaign entry points (prepare_spec_workload,
//                             Scenario::run_attack_with), in the same order;
//   format_campaign()       — renders ordered results into the exact text
//                             the original serial bench printed.
// ptaint_campaign --check diffs make_jobs+Executor against the serial
// reference verdict-by-verdict; the formatters let the ported benches stay
// byte-identical to their seed output.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "campaign/job.hpp"
#include "campaign/snapshot_cache.hpp"
#include "cpu/cpu.hpp"
#include "cpu/taint_policy.hpp"

namespace ptaint::campaign {

struct PolicyVariant {
  std::string name;
  cpu::TaintPolicy policy;
};

/// The ablation study's seven policy variants (DESIGN.md §5), in bench
/// order: paper defaults, one Table 1 rule disabled at a time, per-word
/// taint, and the paper rules with the address-leak direction armed.
std::vector<PolicyVariant> ablation_variants();

/// The coverage campaign's policy columns: the three detection modes plus
/// "leak-aware" (paper policy with TaintPolicy::leak_detection on).
std::vector<PolicyVariant> coverage_columns();

/// Campaign names accepted below, in a stable order.
std::vector<std::string> campaign_names();

/// One matrix cell by label — the unit the serve daemon accepts over the
/// socket.  `app` is "spec" or "attack"; `payload` names the workload or
/// scenario; `policy` is an ablation-variant name, a coverage-column name,
/// or "paper".
struct CellRef {
  std::string app;
  std::string payload;
  std::string policy;
};

/// The cells of `campaign` in matrix order, labels only (no machines are
/// built).  make_jobs is make_cell_job over exactly these cells.
std::vector<CellRef> campaign_cells(const std::string& campaign,
                                    int spec_scale = 1);

/// Resolves a policy label (ablation variant name, coverage column name,
/// or "paper") to its TaintPolicy; nullopt for unknown labels.
std::optional<cpu::TaintPolicy> policy_by_name(const std::string& name);

/// Builds the single job for one matrix cell — the same job make_jobs
/// builds for it, so a daemon running cells one at a time reports exactly
/// what a batch campaign run reports.  Throws std::invalid_argument for an
/// unknown app/payload/policy label.
Job make_cell_job(const CellRef& cell, SnapshotCache& cache,
                  int spec_scale = 1, bool elide = false,
                  std::optional<cpu::Engine> engine = std::nullopt);

/// A custom analysis job outside the fixed matrices (the serve daemon's
/// "guest" app kind): fork built-in app `app_name`'s boot snapshot
/// (guest/apps registry), install the scripted client `session` and
/// `stdin_text` as job input (Job::input; tainted on delivery), and judge
/// generically — DETECTED / CRASHED / BUDGET / EXIT:<n>.  The snapshot key
/// is the app alone, so every session of one app shares one boot.
Job make_session_job(const std::string& app_name,
                     const std::vector<std::string>& session,
                     const std::string& stdin_text,
                     const std::string& policy_name, SnapshotCache& cache,
                     bool elide = false,
                     std::optional<cpu::Engine> engine = std::nullopt);

/// Builds the job matrix for `campaign`.  Jobs fork machines from
/// snapshots in `cache`, which must outlive every returned job.
/// `spec_scale` sizes the SPEC surrogate inputs (ablation only).
/// With `elide`, every forked machine runs with static check-elision on
/// (src/analysis proves sites clean; verdicts are unchanged — pair with
/// --check against the non-elided serial reference to prove it).
/// `engine` pins every forked machine's execution engine; unset means the
/// process default (MachineConfig::engine).
std::vector<Job> make_jobs(const std::string& campaign, SnapshotCache& cache,
                           int spec_scale = 1, bool elide = false,
                           std::optional<cpu::Engine> engine = std::nullopt);

/// Bidirectional cross-validation of the dynamic campaign against the
/// static prover.  For every result whose run ended in a
/// pointer-taintedness alert, the job's program is rebuilt and analyzed
/// under the job's policy by the memory-aware value-set prover (gen-2,
/// analysis/vsa.cpp):
///
///   forward   — the alert PC must sit in the prover's may-set, i.e. the
///               prover holds a witness trace for it (`missed` stays empty);
///   backward  — the alert PC must NOT be in the second-generation elision
///               table Machine::apply_static_elision installs (sites
///               proven clean or dead); an alert at an elided site would
///               mean the elided detector silently skips it
///               (`elided_alerts` stays empty).
///
/// Address-leak alerts (AlertKind::kAddressLeak) are cross-validated the
/// same way against the prover's leak-site layer: forward, the alert PC
/// must be a may-leak site (predicts_leak / leak witness); backward, the
/// site must not be leak-elided (may_planes == 0 would have skipped the
/// dynamic check).
struct StaticCheckReport {
  size_t alerts_checked = 0;        // pointer + leak alerts cross-validated
  std::vector<std::string> missed;  // alerts with no prover witness
  std::vector<std::string> elided_alerts;  // alerts at gen-2-elided sites
};
StaticCheckReport static_check(const std::string& campaign,
                               const std::vector<JobResult>& results,
                               int spec_scale = 1);

/// Runs the same matrix serially through the original entry points and
/// returns results in the same matrix order (status fields as the executor
/// would report them for a normally-ending guest).  The reference always
/// runs on the step engine (passed explicitly to every factory), so
/// --check doubles as a cross-engine identity check when the parallel side
/// runs superblocks.
std::vector<JobResult> run_serial_reference(const std::string& campaign,
                                            int spec_scale = 1);

/// Renders ordered campaign results as the original serial bench's output.
std::string format_campaign(const std::string& campaign,
                            const std::vector<JobResult>& results);

/// Compares two result vectors (engine vs serial reference) on identity
/// and verdict fields; returns one human-readable line per mismatch.
std::vector<std::string> diff_verdicts(const std::vector<JobResult>& engine,
                                       const std::vector<JobResult>& serial);

}  // namespace ptaint::campaign
