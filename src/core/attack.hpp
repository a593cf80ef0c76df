// Attack corpus: every attack of the paper's evaluation, plus matching
// benign inputs, packaged so the same scenario can run under any detection
// mode (paper / control-data-only baseline / unprotected).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/machine.hpp"

namespace ptaint::core {

enum class AttackId {
  kExp1Stack,           // Fig. 2 stack smash (return-to-existing-code)
  kExp1Shellcode,       // Fig. 2 stack smash with injected shellcode
  kExp2Heap,            // Fig. 2 heap corruption
  kExp3Format,          // Fig. 2 format string
  kWuFtpdFormat,        // Table 2 non-control-data (uid overwrite)
  kNullHttpdHeap,       // non-control-data (CGI root overwrite)
  kGhttpdStack,         // non-control-data (URL pointer redirect)
  kTracerouteDoubleFree,
  kGlobExpansion,       // LibC glob() tilde-expansion heap overflow
  kFnIntOverflow,       // Table 4(A): known false negative
  kFnAuthFlag,          // Table 4(B): known false negative
  kFnFormatLeak,        // Table 4(C): known false negative
  // Address-leak -> precise-overwrite scenarios (the inverse taint
  // direction).  Under the paper policy the overwrite is compare-validated
  // and lands silently (like the Table 4 trio); with
  // TaintPolicy::leak_detection on, the disclosure itself is the alert.
  kLeakTelemetry,       // raw stack pointer shipped as debug telemetry
  kLeakSession,         // heap pointer recycled as a session token
  kLeakBanner,          // %x format leak of a spilled stack pointer
};

/// What a scenario run ended as.
enum class Outcome {
  kDetected,     // security alert terminated the program
  kCompromised,  // attack achieved its goal (integrity/priv/exec)
  kCrashed,      // program faulted without achieving the goal
  kBenign,       // ran to completion with no compromise
};

struct ScenarioResult {
  Outcome outcome{};
  RunReport report;
  std::string detail;  // e.g. the alert line or the compromise evidence
};

/// One attack scenario: how to build the machine (program + inputs) and how
/// to judge what happened.
class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual AttackId id() const = 0;
  virtual std::string name() const = 0;
  /// Category label used by the Figure 1 classification.
  virtual std::string category() const = 0;
  /// True when the attack corrupts control data (ret addr / code pointer).
  virtual bool corrupts_control_data() const = 0;
  /// True when the paper expects the pointer-taint detector to catch it.
  virtual bool expected_detected() const = 0;

  /// Instruction budget a full run of this scenario needs.
  virtual uint64_t max_instructions() const = 0;

  // --- prepare / classify split -------------------------------------------
  // The campaign engine drives scenarios in two halves: prepare_* builds and
  // arms a machine (assemble, load, install stdin/VFS/network payloads)
  // without running it — the state a post-boot snapshot captures — and
  // classify_* judges a finished run.  The serial wrappers below compose
  // them, so a campaign job that forks a prepared snapshot and classifies
  // the result is verdict-identical to a serial run.
  //
  // Every factory takes a trailing `engine` for the machines it builds
  // (MachineConfig::engine; unset = the process default).  Reconnaissance
  // machines an arming step runs take the engine of the machine it arms.

  /// Builds and arms the attack machine under `policy`; does not run it.
  virtual std::unique_ptr<Machine> prepare_attack(
      const cpu::TaintPolicy& policy,
      std::optional<cpu::Engine> engine = std::nullopt) const = 0;
  /// Builds and arms the benign-workload machine (full paper policy).
  virtual std::unique_ptr<Machine> prepare_benign(
      std::optional<cpu::Engine> engine = std::nullopt) const = 0;
  /// Judges a finished attack run (from prepare_attack or a restored fork).
  virtual ScenarioResult classify_attack(Machine& machine,
                                         RunReport report) const = 0;
  /// Judges a finished benign run.
  virtual ScenarioResult classify_benign(Machine& machine,
                                         RunReport report) const = 0;

  /// Runs the attack under the paper policy with the given mode.
  ScenarioResult run_attack(
      cpu::DetectionMode mode,
      std::optional<cpu::Engine> engine = std::nullopt) const {
    cpu::TaintPolicy policy;
    policy.mode = mode;
    return run_attack_with(policy, engine);
  }
  /// Runs the attack under an arbitrary taint policy (ablations).
  ScenarioResult run_attack_with(
      const cpu::TaintPolicy& policy,
      std::optional<cpu::Engine> engine = std::nullopt) const {
    auto machine = prepare_attack(policy, engine);
    RunReport report = machine->run();
    return classify_attack(*machine, std::move(report));
  }
  /// Runs the matching benign workload under the full paper policy; the
  /// result must be Outcome::kBenign (no false positive).
  ScenarioResult run_benign(
      std::optional<cpu::Engine> engine = std::nullopt) const {
    auto machine = prepare_benign(engine);
    RunReport report = machine->run();
    return classify_benign(*machine, std::move(report));
  }
};

/// The full corpus in a stable order.
std::vector<std::unique_ptr<Scenario>> make_attack_corpus();

/// Lookup by id (builds the single scenario).
std::unique_ptr<Scenario> make_scenario(AttackId id);

const char* to_string(Outcome outcome);
const char* to_string(cpu::DetectionMode mode);

}  // namespace ptaint::core
