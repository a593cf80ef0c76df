// Machine — the top-level public API of the library.
//
// A Machine bundles the tainted memory, the CPU with its taint policy, the
// simulated OS (VFS, virtual network, taint boundary) and the program
// loader.  Typical use:
//
//   ptaint::core::MachineConfig cfg;                 // paper defaults
//   ptaint::core::Machine m(cfg);
//   m.load_source(my_assembly);
//   m.os().set_stdin("aaaaaaaaaaaaaaaaaaaaaaaa\n");
//   ptaint::core::RunReport r = m.run();
//   if (r.detected()) std::cout << r.alert->to_string() << "\n";
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "asmgen/assembler.hpp"
#include "cpu/cpu.hpp"
#include "cpu/pipeline.hpp"
#include "mem/tainted_memory.hpp"
#include "os/syscalls.hpp"
#include "trace/profiler.hpp"
#include "trace/tracer.hpp"

namespace ptaint::core {

struct MachineConfig {
  /// Detection policy the machine starts with; restore(snapshot, settings)
  /// replaces it, and static_elision, for the run that follows.
  cpu::TaintPolicy policy;           // paper defaults
  bool pipeline_model = false;       // enable the cycle/cache timing model
  cpu::PipelineConfig pipeline;
  uint64_t max_instructions = 200'000'000;
  std::vector<std::string> argv;     // guest command line
  std::vector<std::string> env;      // guest environment ("K=V")
  bool taint_argv = true;            // argv/env bytes are external input

  /// Runs the static pointer-taintedness analyzer (src/analysis) over the
  /// loaded program and installs its check-elision bitmap: dereference
  /// sites statically proven clean under `policy` skip the dynamic
  /// detector.  Detection verdicts are unchanged by construction (see
  /// docs/ANALYSIS.md); the interpreter just does less work.  Applied
  /// automatically on load_* and by any restore() that builds a fresh
  /// code image (Machine::restore).
  bool static_elision = false;

  /// Execution engine driving the core: step, superblock or jit.  Unset
  /// means the process default (PTAINT_ENGINE, else superblock; see
  /// core/settings.hpp and DESIGN.md §9).  All three are verdict- and
  /// statistics-identical; step pins the reference interpreter, and jit
  /// falls back to superblock on hosts that cannot run emitted code.
  std::optional<cpu::Engine> engine;

  /// §5.3-style escape hatch for the address-leak direction: names of
  /// guest functions that legitimately publish pointers (a %p debug
  /// printer, a handle-shipping protocol).  Kernel-output leak checks at
  /// sites inside these functions are suppressed, and the leak-site prover
  /// treats them as explained.  Resolved against the loaded program's
  /// function labels; load_* throws std::out_of_range for unknown names
  /// (mirroring protect_symbol).  Active with or without static_elision.
  std::vector<std::string> may_publish;

  /// Stack ASLR baseline (paper §2 related work): the initial stack
  /// pointer is lowered by a seed-derived, word-aligned offset drawn from
  /// `aslr_entropy_bits` bits of entropy.  0 disables randomization.
  /// Models the low-entropy limitation the paper cites (16-20 bits on
  /// 32-bit systems, brute-forceable) — see bench_baseline_aslr.
  int aslr_entropy_bits = 0;
  uint32_t aslr_seed = 0;
};

/// What a kept machine may change from one restore to the next: the
/// detection policy and whether the static elision proofs are installed.
/// The engine and the rest of MachineConfig are fixed at construction;
/// the campaign layer keeps one machine per engine and hands each job's
/// settings to restore() (DESIGN.md §10).
struct RestoreSettings {
  cpu::TaintPolicy policy;
  bool static_elision = false;
};

/// Everything a run produced.
struct RunReport {
  cpu::StopReason stop = cpu::StopReason::kRunning;
  int exit_status = 0;
  std::optional<cpu::SecurityAlert> alert;
  std::string alert_function;  // guest function containing the alert PC
  std::string fault;           // message when stop == kFault
  std::string stdout_text;
  std::string stderr_text;
  std::vector<std::string> net_transcripts;  // per client session, in order
  cpu::CpuStats cpu_stats;
  cpu::TaintUnit::Stats taint_stats;
  os::OsStats os_stats;
  std::optional<cpu::PipelineStats> pipeline_stats;
  uint64_t tainted_memory_bytes = 0;  // tainted bytes at stop
  std::string trace_tail;  // recent disassembly, when tracing is enabled

  /// True when the pointer-taintedness detector terminated the program.
  bool detected() const { return stop == cpu::StopReason::kSecurityAlert; }
  bool exited_cleanly() const {
    return stop == cpu::StopReason::kExit && exit_status == 0;
  }

  /// Alert line in the paper's transcript format plus the guest function,
  /// e.g. "44d7b0: sw $21,0($3)  $3=0x1002bc20  [in vfprintf]".
  std::string alert_line() const;
};

/// A deterministic copy of everything a run can observe or mutate:
/// the tainted memory image, register file + taint bits, CPU bookkeeping
/// (stop state, alert, stats, annotations), the whole simulated OS (VFS
/// contents and open files, network sessions, fd table, captured output,
/// brk/uid), and the pipeline timing state when enabled.
///
/// Snapshots are value objects: copyable, independent of the machine they
/// came from, and restorable into any Machine (typically one constructed
/// with the same program-independent config).  The campaign engine boots a
/// guest once to a post-init point, snapshots, and forks one restored
/// Machine per payload instead of re-assembling per run.
///
/// The detection policy is *not* part of the snapshot — the restore names
/// it (RestoreSettings).  Taint bits in memory and registers are data, so
/// a pre-run (or pre-divergence) snapshot can be forked across policy
/// variants, on one machine or many; each fork then propagates and detects
/// under its own policy exactly as a from-scratch serial run would.
///
/// The memory image is shared copy-on-write (DESIGN.md §10): taking a
/// snapshot and restoring one cost O(mapped pages) pointer copies, a
/// machine restored *again* from the same snapshot pays only for the pages
/// it dirtied, and N forked machines share one immutable page set.
/// Observable behaviour is identical to a deep copy; the snapshot tests pin
/// that against a freshly booted machine.
///
/// The program is an immutable shared value (asmgen/program_memo.hpp): a
/// snapshot, the machine it came from and every machine restored from it
/// point at one object, so neither snapshot() nor a restore that switches
/// snapshots copies it.
struct MachineSnapshot {
  std::shared_ptr<const asmgen::Program> program;
  mem::TaintedMemory memory;
  cpu::Cpu::State cpu;
  os::SimOs os;
  std::optional<cpu::Pipeline> pipeline;  // config + timing state
};

class Machine {
 public:
  explicit Machine(MachineConfig config = {});
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  /// Assembles and loads; throws asmgen::AssemblyError on bad input.
  /// load_sources goes through the process-wide asmgen::ProgramMemo, so
  /// loading sources it has seen before skips assembly and shares the
  /// published program.
  void load_source(std::string_view source, std::string name = "<input>");
  void load_sources(const std::vector<asmgen::Source>& sources);
  void load_program(asmgen::Program program);

  /// Keeps a ring of the last `capacity` retired instructions; the report's
  /// trace_tail then shows the path into an alert.
  void enable_trace(size_t capacity = 64);
  const trace::Tracer* tracer() const { return tracer_.get(); }

  /// Attributes every retired instruction to its guest function
  /// (sim-profile style).  Call after load_*.
  void enable_profile();
  const trace::Profiler* profiler() const { return profiler_.get(); }

  os::SimOs& os() { return *os_; }
  cpu::Cpu& cpu() { return *cpu_; }
  mem::TaintedMemory& memory() { return memory_; }
  const asmgen::Program& program() const { return *program_; }
  const MachineConfig& config() const { return config_; }
  cpu::Pipeline* pipeline() { return pipeline_.get(); }

  /// §5.3 extension: marks the data-segment symbol (of `len` bytes) as
  /// never-tainted; a tainted write into it raises an annotation alert.
  /// Call after load_*; throws std::out_of_range for unknown symbols.
  void protect_symbol(const std::string& symbol, uint32_t len);

  /// Captures the complete machine state (see MachineSnapshot).  Legal at
  /// any point: after load, mid-run (via run_for driving), or at stop.
  /// Non-const: besides sharing its pages into the snapshot, the machine
  /// rebases its delta tracking onto it, so restoring this machine from
  /// the snapshot it just took is already a delta restore.
  MachineSnapshot snapshot();

  /// Restores a snapshot into this machine, replacing program, memory, CPU,
  /// OS and pipeline state, and runs from there under `settings`: the
  /// policy and elision flag replace the config's (the one-argument form
  /// keeps them).  Tracer/profiler windows are cleared so a restored run
  /// reports exactly like the original.  A machine restored from a
  /// snapshot of machine M under M's settings behaves byte-identically to
  /// M continuing from the snapshot point; under other settings, like a
  /// fresh machine with those settings restored from it.
  ///
  /// Memory: restoring from the snapshot this machine was last restored
  /// from is a delta restore — only the pages the machine dirtied are
  /// dropped back to the shared blocks, O(dirty set); any other snapshot
  /// shares every page.  Code state (decode cache, elision bitmaps,
  /// superblock translations) follows one rule either way: the core keeps
  /// a code image per recently run program — per (program, policy) with
  /// elision on, since the proofs are the policy's (cpu::CodeKey) — and
  /// re-derives only the text pages whose page object differs from the one
  /// it recorded, so switching between snapshots and policies — the
  /// pooled-machine case in the campaign executor and the serving daemon —
  /// rebuilds nothing but what self-modifying code changed.  Under the
  /// jit, a policy change drops the compiled host code
  /// (Cpu::policy_changed).
  void restore(const MachineSnapshot& snapshot);
  void restore(const MachineSnapshot& snapshot,
               const RestoreSettings& settings);

  /// Runs until exit/alert/fault or the instruction budget is exhausted.
  RunReport run();

  /// Runs at most `n` more instructions (incremental driving).
  cpu::StopReason run_for(uint64_t n);

  /// Builds the report for the current state (after run_for driving).
  RunReport report() const;

  /// The stack displacement applied by the ASLR baseline for this config.
  uint32_t aslr_offset() const;

  /// Turns on config.static_elision and applies it to the loaded program
  /// immediately.  Returns the number of dereference checks elided.
  size_t enable_static_elision();

 private:
  /// The code image key for the loaded program under the current policy
  /// and elision setting (cpu::CodeKey).
  cpu::CodeKey code_key() const;
  /// Activates the core's code image for the loaded program's text; true
  /// for a fresh image (Cpu::use_code).
  bool use_program_code();
  /// The load path shared by load_sources and load_program.
  void install_program(std::shared_ptr<const asmgen::Program> program);
  void setup_argv();
  void install_retire_hook();
  size_t apply_static_elision();
  /// Resolves config_.may_publish against the loaded program and installs
  /// the waiver ranges on the core.  `strict` (the load path) throws for
  /// unknown names; the restore path skips them — a restored snapshot may
  /// carry a different program.
  void apply_may_publish(bool strict);

  MachineConfig config_;
  mem::TaintedMemory memory_;
  std::unique_ptr<os::SimOs> os_;
  std::unique_ptr<cpu::Cpu> cpu_;
  std::unique_ptr<cpu::Pipeline> pipeline_;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<trace::Profiler> profiler_;
  std::shared_ptr<const asmgen::Program> program_;  // never null
};

}  // namespace ptaint::core
