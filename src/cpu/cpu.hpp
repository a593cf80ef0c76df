// PTA-32 execution core with pointer-taintedness detection.
//
// The core executes the functional semantics of the ISA while the taint unit
// tracks per-byte taintedness through every register write and memory access
// (paper Section 4.2).  Two detectors guard dereferences (Section 4.3):
//   * jump detector   — JR/JALR with any tainted byte in the target register;
//   * memory detector — loads/stores whose address word has any tainted byte.
// A triggered detector records a SecurityAlert and halts the core before the
// offending access is performed, which models the OS terminating the process
// when the retirement-stage exception fires.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cpu/taint_policy.hpp"
#include "cpu/taint_unit.hpp"
#include "isa/isa.hpp"
#include "mem/register_file.hpp"
#include "mem/tainted_memory.hpp"

namespace ptaint::cpu {

class Cpu;
class SuperblockEngine;
class JitEngine;
struct JitRuntime;
struct Superblock;

/// Which execution engine drives the core (DESIGN.md §9, §12).  All three
/// produce byte-identical architectural state, stop reasons, alerts and
/// statistics; the translated tiers are simply faster.
enum class Engine : uint8_t {
  kStep,        // reference interpreter: fetch/decode/execute per instruction
  kSuperblock,  // translated superblocks with threaded dispatch
  kJit,         // hot superblocks compiled to host x86-64 (DESIGN.md §12)
};

/// The engine's command-line name: "step", "superblock" or "jit".
const char* to_string(Engine engine);
/// Inverse of to_string; nullopt for any other spelling.
std::optional<Engine> parse_engine(std::string_view name);
/// The engine Cpu::set_engine installs for a request: kJit degrades to
/// kSuperblock on a host that cannot run emitted code.
Engine select_engine(Engine requested, bool jit_supported);

/// Observability counters for the superblock engine (ptaint-run
/// --engine-stats).  Diagnostic only — never part of the cross-engine
/// identity contract.
struct SuperblockStats {
  // Live block-cache shape.
  uint64_t blocks = 0;              // blocks currently cached
  uint64_t guest_instructions = 0;  // guest instructions they cover
  uint64_t uops = 0;                // micro-ops they hold
  uint64_t fused_pairs = 0;         // fused pairs inside them
  // Cumulative execution counters.
  uint64_t blocks_translated = 0;
  uint64_t blocks_entered = 0;
  uint64_t block_retired = 0;   // instructions retired inside superblocks
  uint64_t step_retired = 0;    // instructions retired via the step fallback
  uint64_t invalidations = 0;   // blocks retired by self-modifying stores
};

/// Observability counters for the JIT tier (ptaint-run --engine-stats;
/// DESIGN.md §12).  Diagnostic only — never part of the cross-engine
/// identity contract.
struct JitStats {
  // Cumulative compilation counters.
  uint64_t blocks_compiled = 0;   // superblocks lowered to host code
  uint64_t code_bytes = 0;        // bytes currently held in the code cache
  // Cumulative execution counters.
  uint64_t host_entries = 0;      // calls into compiled block bodies
  uint64_t host_retired = 0;      // guest instructions retired in host code
  // Blocks the compiler refused, by reason.  Such blocks stay on the
  // interpreted superblock path forever (no_jit sticks until retranslation).
  uint64_t bailout_syscall = 0;   // block contains a SYSCALL micro-op
  uint64_t bailout_break = 0;     // block contains a BREAK micro-op
  uint64_t bailout_arena_full = 0;  // code cache exhausted
  // Compiled blocks retired through the graveyard (SMC / snapshot deltas).
  // Their host code stays in the arena — a retired block may be the one
  // executing — and is reclaimed only by reset().
  uint64_t invalidations = 0;
};

/// Signed DIV as PTA-32 defines it: {quotient, remainder}, both zero for
/// a zero divisor, and INT32_MIN / -1 wrapping to {INT32_MIN, 0} — the one
/// quotient a host `/` cannot produce (x86 traps on it).  Every engine
/// divides through this.
inline std::pair<uint32_t, uint32_t> signed_divide(uint32_t a, uint32_t b) {
  if (b == 0) return {0, 0};
  if (b == 0xffffffffu) return {0u - a, 0};
  const auto sa = static_cast<int32_t>(a);
  const auto sb = static_cast<int32_t>(b);
  return {static_cast<uint32_t>(sa / sb), static_cast<uint32_t>(sa % sb)};
}

/// OS-services interface; the simulated kernel (src/os) implements it.
class Os {
 public:
  virtual ~Os() = default;
  /// Handles the SYSCALL instruction.  Registers and memory are accessed
  /// through `cpu`; the implementation must taint buffers it fills from
  /// external sources (paper Section 4.4).
  virtual void syscall(Cpu& cpu) = 0;
};

/// Why an alert fired.
enum class AlertKind : uint8_t {
  kTaintedJumpTarget,
  kTaintedLoadAddress,
  kTaintedStoreAddress,
  /// The §5.3 extension: tainted data written into a region the programmer
  /// annotated as never-tainted.
  kAnnotatedRegionTainted,
  /// NX baseline: instruction fetch from non-executable memory.
  kNxViolation,
  /// Address-leak direction (policy.leak_detection): SYS_WRITE/SYS_SEND
  /// buffer holds bytes with stack/heap/text address provenance.
  kAddressLeak,
};

/// The security exception record, mirroring the paper's alert transcripts
/// ("44d7b0: sw $21,0($3)   $3=0x1002bc20").
struct SecurityAlert {
  AlertKind kind{};
  uint32_t pc = 0;
  isa::Instruction inst;
  std::string disasm;
  uint8_t reg = 0;           // register dereferenced as a pointer
  uint32_t reg_value = 0;    // its (attacker-controlled) value
  mem::TaintBits taint = 0;  // which bytes were tainted
  std::string region;        // annotated region name (annotation alerts)

  /// One-line rendering in the paper's transcript style.
  std::string to_string() const;
};

/// Why execution stopped.
enum class StopReason : uint8_t {
  kRunning,
  kExit,           // SYS_EXIT
  kSecurityAlert,  // detector fired
  kFault,          // invalid instruction / misaligned access / no OS
  kInstLimit,      // run() budget exhausted
  kBreak,          // BREAK instruction
};

struct CpuStats {
  uint64_t instructions = 0;
  uint64_t alu_ops = 0;
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t branches = 0;
  uint64_t taken_branches = 0;
  uint64_t jumps = 0;
  uint64_t syscalls = 0;
  uint64_t tainted_loads = 0;    // loads that returned tainted data
  uint64_t tainted_stores = 0;   // stores that wrote tainted data
  uint64_t compare_untaints = 0; // branch/SLT operand untainting events
};

/// Everything the engines derive from one program's text (DESIGN.md §9,
/// §10): the decoded-instruction cache, the static elision and leader
/// bitmaps, and the superblock translations.  A Cpu keeps the active image
/// plus a few recently used ones, keyed by program, so a restore that
/// switches snapshots swaps images instead of rebuilding them.
///
/// Validity is tracked per text page by page-object identity: `text_pages`
/// holds the memory page each page's decodes were read from.  Memory pages
/// are immutable once shared (mem/tainted_memory.hpp) and holding the
/// pointer pins the object, so an equal pointer proves equal bytes — a
/// freed and reused allocation can never alias.  A null entry means "not
/// known"; the page is re-decoded on the next restore.
struct CodeImage {
  CodeImage();
  ~CodeImage();  // out of line: Superblock is incomplete here
  CodeImage(CodeImage&&) noexcept;
  CodeImage& operator=(CodeImage&&) noexcept;

  /// Re-keys this image to `program` over [begin, end) with every decode
  /// invalid, no bitmaps and no blocks; keeps the vectors' storage.
  void reset(std::shared_ptr<const void> program, uint32_t begin,
             uint32_t end);

  std::shared_ptr<const void> program;  // the key; pinned, so never aliased
  uint32_t text_begin = 0;
  uint32_t text_end = 0;
  // Decoded-instruction cache over the executable range: fetching becomes
  // one bounds check + one table read instead of a page lookup plus a
  // decode.  decode_valid[i] gates entry i (0 = invalid, 1 = valid, 2 =
  // valid with the pointer check elided); stores into text and kernel
  // copies invalidate overlapping entries.
  std::vector<isa::Instruction> decode_cache;
  std::vector<uint8_t> decode_valid;
  std::vector<uint8_t> elide_bits;       // per-instruction, set_check_elision
  std::vector<uint8_t> leak_elide_bits;  // from set_leak_elision
  std::vector<uint8_t> leader_bits;      // per-instruction CFG leaders
  std::vector<std::shared_ptr<const mem::TaintedMemory::Page>> text_pages;
  // Superblock translations: owning list plus per-decode-index entry map.
  std::vector<Superblock*> block_at;
  std::vector<std::unique_ptr<Superblock>> blocks;
};

class Cpu {
 public:
  /// The policy object must outlive the Cpu.
  Cpu(mem::TaintedMemory& memory, const TaintPolicy& policy);
  ~Cpu();  // out-of-line: unique_ptr to the (here-incomplete) engine

  void set_os(Os* os) { os_ = os; }

  /// Selects the execution engine used by run()/advance().  Defaults to
  /// kStep; the Machine layer switches on the superblock engine.  Retire
  /// hooks (trace/profile/pipeline subscribers) force the step path
  /// regardless, since superblocks do not surface per-retire events.
  void set_engine(Engine engine);
  Engine engine() const { return engine_; }

  mem::RegisterFile& regs() { return regs_; }
  const mem::RegisterFile& regs() const { return regs_; }
  mem::TaintedMemory& memory() { return memory_; }

  uint32_t pc() const { return pc_; }
  void set_pc(uint32_t pc) { pc_ = pc; }

  /// Executes one instruction.  Returns the stop state after the step
  /// (kRunning when execution can continue).
  StopReason step();

  /// Runs until stop or until `max_instructions` more retire.
  StopReason run(uint64_t max_instructions);

  /// Like run() but never marks kInstLimit when the budget runs out — the
  /// campaign executor's slicing primitive.  Retires exactly
  /// `max_instructions` unless the core stops first, on whichever engine is
  /// selected (retire hooks force the step path).
  StopReason advance(uint64_t max_instructions);

  StopReason stop_reason() const { return stop_; }
  const std::optional<SecurityAlert>& alert() const { return alert_; }
  const std::string& fault_message() const { return fault_message_; }
  int exit_status() const { return exit_status_; }

  /// Called by the OS layer to terminate the program.
  void request_exit(int status);
  /// Called by the OS layer on an unrecoverable emulation error.
  void request_fault(std::string message);

  const CpuStats& stats() const { return stats_; }
  const TaintUnit& taint_unit() const { return taint_unit_; }
  const TaintPolicy& policy() const { return policy_; }

  /// §5.3 extension: declares [addr, addr+len) as never-tainted.  A store
  /// that would put tainted bytes there raises an annotation alert, even
  /// though no tainted pointer is involved — this catches the Table 4
  /// flag-overwrite / index-overwrite false negatives at the price of
  /// per-application annotations (the paper's proposed trade).
  void protect_region(uint32_t addr, uint32_t len, std::string name);

  /// Declares `program`'s text, [begin, end), as the executable range —
  /// the NX range, and the range its CodeImage covers — and activates that
  /// image: the active one or a stashed one when it matches, else a fresh
  /// one (evicting the least recently used past kCodeImages).  A kept
  /// image re-decodes exactly the text pages whose memory page object
  /// differs from the one it recorded, so it is valid for whatever memory
  /// the caller has just installed.  Returns true for a fresh image: the
  /// caller then installs its elision and leader bitmaps.  A null
  /// `program` (a raw core) always gets a fresh image.
  bool use_code(std::shared_ptr<const void> program, uint32_t begin,
                uint32_t end);

  /// Code images a core keeps, the active one included.  Sized by
  /// measurement (DESIGN.md §10): four covers the most apps a served
  /// session machine cycles through; eight cost attack-warm, whose 15
  /// programs per machine outrun any small LRU, +12% peak RSS.
  static constexpr size_t kCodeImages = 4;

  /// Installs the static analyzer's check-elision bitmap (one byte per
  /// text instruction, 1 = the pointer-taintedness check at that PC is
  /// statically proven to never fire; see src/analysis).  Elided PCs skip
  /// only detect_pointer — annotation checks, NX and the taint propagation
  /// itself are unaffected, so architectural state stays byte-identical.
  /// Part of the active CodeImage; cleared whole by
  /// invalidate_decode_range (self-modifying code voids the proofs).
  void set_check_elision(const std::vector<uint8_t>& elision);

  /// Drops cached decodes and translations overlapping [addr, addr+len),
  /// forgets which page objects they were read from, and drops the image's
  /// elision bitmaps (the proofs assumed the original text).  The store path
  /// calls this for guest stores into text; the OS layer calls it when a
  /// kernel copy (SYS_READ/SYS_RECV) lands in guest memory, so
  /// self-modifying code executes its current bytes.
  void invalidate_decode_range(uint32_t addr, uint32_t len);

  /// Installs the static analyzer's basic-block leader bitmap (one byte per
  /// text instruction, 1 = a CFG block starts here).  The superblock engine
  /// ends translation at leaders so its blocks align with the static CFG;
  /// purely a translation hint — never affects semantics.  Part of the
  /// active CodeImage.
  void set_block_leaders(const std::vector<uint8_t>& leaders);

  /// Superblock-engine observability counters (zeros under kStep).
  const SuperblockStats& superblock_stats() const;

  /// JIT-tier observability counters (zeros unless engine is kJit).
  const JitStats& jit_stats() const;

  /// Marks the core stopped with kInstLimit if it is still running — the
  /// campaign executor's budget enforcement (mirrors run() exhausting its
  /// budget, so reports classify identically).
  void mark_inst_limit() {
    if (stop_ == StopReason::kRunning) stop_ = StopReason::kInstLimit;
  }

  /// Annotation check for kernel-side writes: the OS layer calls this when
  /// it copies tainted input into guest memory (SYS_READ/SYS_RECV), since
  /// those bytes bypass the store-instruction detector.  Raises the alert
  /// and returns true when [addr, addr+len) overlaps a protected region.
  bool annotation_kernel_write(uint32_t addr, uint32_t len);

  /// Address-leak check for kernel-side output: the OS layer calls this
  /// when SYS_WRITE/SYS_SEND is about to publish [addr, addr+len).  Under
  /// policy.leak_detection, raises an address-leak alert and returns true
  /// when the buffer holds any address-tainted byte — unless the leak
  /// check at the current (syscall) PC is statically elided.
  bool kernel_output_leak(uint32_t addr, uint32_t len);

  /// §5.3-style escape hatch for the leak direction: PC ranges whose
  /// kernel-output checks are suppressed because the program legitimately
  /// publishes pointers there (a %p debug printer, a protocol that ships
  /// handles).  The annotation is per *output site*, not per datum — taint
  /// propagation and every other detector are unaffected.  Resolved from
  /// MachineConfig::may_publish function names by the Machine layer;
  /// orthogonal to set_leak_elision (which is a proof, not a waiver) and
  /// active with or without static elision.
  void set_publish_ranges(std::vector<std::pair<uint32_t, uint32_t>> ranges) {
    publish_ranges_ = std::move(ranges);
  }

  /// Installs the leak-site prover's elision bitmap (one byte per text
  /// instruction, 1 = no address-tainted byte can reach the output buffer
  /// of the syscall at that PC).  Same lifecycle as set_check_elision:
  /// part of the active CodeImage and cleared by invalidate_decode_range
  /// (self-modifying code voids the proofs).
  void set_leak_elision(const std::vector<uint8_t>& elision);

  /// Observer invoked on every retired instruction — the pipeline timing
  /// model subscribes here.  `ea` is the effective address for memory ops.
  using RetireHook =
      std::function<void(const isa::Instruction&, uint32_t pc, bool taken,
                         bool is_mem, uint32_t ea)>;
  void set_retire_hook(RetireHook hook) { retire_hook_ = std::move(hook); }

  struct ProtectedRegion {
    uint32_t begin = 0;
    uint32_t end = 0;  // exclusive
    std::string name;
  };

  /// Complete architectural + bookkeeping state of the core, deep-copyable
  /// for machine snapshot/restore.  Everything that can influence a future
  /// step() or report() is included; the CodeImage is derived state, kept
  /// by the restoring core per program and revalidated page by page.
  struct State {
    mem::RegisterFile regs;
    uint32_t pc = isa::layout::kTextBase;
    StopReason stop = StopReason::kRunning;
    std::optional<SecurityAlert> alert;
    std::string fault_message;
    int exit_status = 0;
    CpuStats stats;
    TaintUnit::Stats taint_stats;
    std::vector<ProtectedRegion> protected_regions;
    uint32_t text_begin = 0;
    uint32_t text_end = 0xffffffff;
  };
  State save_state() const;
  /// Restores `state` over memory the caller has already restored, then
  /// activates `program`'s code image via use_code (same return value).
  bool restore_state(const State& state,
                     std::shared_ptr<const void> program);

 private:
  friend class SuperblockEngine;  // handlers mirror execute() bit-for-bit
  friend class JitEngine;         // emitted code mirrors the same handlers
  friend struct JitRuntime;       // out-of-line slow paths for emitted code

  StopReason execute(const isa::Instruction& inst, bool elide = false);
  /// Clears the active image's elision bitmaps; every site is checked
  /// dynamically from here on.
  void drop_elision();
  bool detect_pointer(const isa::Instruction& inst, uint8_t reg,
                      mem::TaintedWord value, AlertKind kind);
  bool detect_annotation(const isa::Instruction& inst, uint32_t ea,
                         uint32_t len, mem::TaintedWord value);
  void raise_alert(const isa::Instruction& inst, uint8_t reg,
                   mem::TaintedWord value, AlertKind kind);
  void fault(std::string message);
  void alu_write(const isa::Instruction& inst, uint8_t dest, uint32_t value,
                 mem::TaintedWord a, mem::TaintedWord b, bool b_imm);

  mem::TaintedMemory& memory_;
  const TaintPolicy& policy_;
  TaintUnit taint_unit_;
  mem::RegisterFile regs_;
  uint32_t pc_ = isa::layout::kTextBase;
  Os* os_ = nullptr;
  StopReason stop_ = StopReason::kRunning;
  std::optional<SecurityAlert> alert_;
  std::string fault_message_;
  int exit_status_ = 0;
  CpuStats stats_;
  RetireHook retire_hook_;
  std::vector<ProtectedRegion> protected_regions_;
  uint32_t text_begin_ = 0;
  uint32_t text_end_ = 0xffffffff;

  CodeImage code_;                 // the active image (use_code)
  std::vector<CodeImage> stashed_;  // the others, most recent first
  // Annotated may-publish PC ranges, end-exclusive (set_publish_ranges).
  std::vector<std::pair<uint32_t, uint32_t>> publish_ranges_;

  Engine engine_ = Engine::kStep;
  std::unique_ptr<SuperblockEngine> sb_;   // created lazily by set_engine
};

}  // namespace ptaint::cpu
