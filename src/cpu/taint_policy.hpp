// Runtime-configurable taint policy.
//
// The default configuration is exactly the paper's architecture.  The other
// knobs exist for the coverage-comparison baseline (control-data-only
// protection, i.e. Minos / Secure Program Execution style) and for the
// ablation benchmarks called out in DESIGN.md §5.  A policy is per-run
// state: a kept Machine takes a new one at each restore
// (core::RestoreSettings).
#pragma once

namespace ptaint::cpu {

/// What the detectors guard.
enum class DetectionMode {
  /// No detection: attacks run to completion (ground-truth runs).
  kOff,
  /// Control-data protection baseline: only register-indirect control
  /// transfers (JR/JALR) with tainted targets raise an alert.  Models the
  /// coverage of Minos / Secure Program Execution / NX-style defenses.
  kControlDataOnly,
  /// The paper's proposal: any tainted word dereferenced as an address —
  /// load, store, or jump-register — raises an alert.
  kPointerTaint,
};

struct TaintPolicy {
  DetectionMode mode = DetectionMode::kPointerTaint;

  /// NX / no-execute page protection (the AMD/Intel mechanism the paper's
  /// introduction cites as the incumbent defense): instruction fetch
  /// outside the executable text region raises an alert.  Orthogonal to
  /// `mode`; catches injected shellcode but not return-to-existing-code or
  /// any non-control-data attack.
  bool nx_protection = false;

  // Table 1 special-case propagation rules (all enabled in the paper).
  bool compare_untaints = true;   // compare untaints its operand registers
  bool and_zero_untaints = true;  // AND with untainted zero byte untaints
  bool xor_self_untaints = true;  // XOR r,r,r zeroing idiom untaints
  bool shift_smear = true;        // shifts smear taint to the adjacent byte

  // Ablation: track taint per word instead of per byte (any tainted byte
  // taints the whole word).  The paper uses per-byte tracking.
  bool per_word_taint = false;

  // Address-leak direction (DrTaint-style, the inverse of the paper's):
  // SYS_WRITE/SYS_SEND buffers holding bytes with stack/heap/text address
  // provenance raise an address-leak alert.  Off by default — address
  // planes still propagate, only the output-site check is gated here.
  bool leak_detection = false;

  bool operator==(const TaintPolicy&) const = default;
};

}  // namespace ptaint::cpu
