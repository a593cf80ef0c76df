#include "core/machine.hpp"

#include <algorithm>

#include "analysis/summary_cache.hpp"
#include "analysis/taint_analyzer.hpp"
#include "analysis/vsa.hpp"
#include "asmgen/program_memo.hpp"
#include "core/settings.hpp"

namespace ptaint::core {

using mem::TaintedWord;
namespace layout = isa::layout;

std::string RunReport::alert_line() const {
  if (!alert) return "(no alert)";
  std::string line = alert->to_string();
  if (!alert_function.empty()) line += "  [in " + alert_function + "]";
  return line;
}

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      program_(std::make_shared<const asmgen::Program>()) {
  os_ = std::make_unique<os::SimOs>();
  cpu_ = std::make_unique<cpu::Cpu>(memory_, config_.policy);
  cpu_->set_os(os_.get());
  cpu_->set_engine(config_.engine.value_or(settings().engine));
  if (config_.pipeline_model) {
    pipeline_ = std::make_unique<cpu::Pipeline>(config_.pipeline);
  }
  install_retire_hook();
}

void Machine::install_retire_hook() {
  if (!pipeline_ && !tracer_ && !profiler_) return;
  cpu_->set_retire_hook([p = pipeline_.get(), t = tracer_.get(),
                         prof = profiler_.get()](
                            const isa::Instruction& inst, uint32_t pc,
                            bool taken, bool is_mem, uint32_t ea) {
    if (p) p->on_retire(inst, pc, taken, is_mem, ea);
    if (t) t->record(inst, pc, taken, is_mem, ea);
    if (prof) prof->record(pc);
  });
}

void Machine::enable_trace(size_t capacity) {
  tracer_ = std::make_unique<trace::Tracer>(capacity);
  install_retire_hook();
}

void Machine::enable_profile() {
  profiler_ = std::make_unique<trace::Profiler>(program_);
  install_retire_hook();
}

Machine::~Machine() = default;

void Machine::load_source(std::string_view source, std::string name) {
  load_program(asmgen::assemble(source, std::move(name)));
}

void Machine::load_sources(const std::vector<asmgen::Source>& sources) {
  install_program(asmgen::ProgramMemo::instance().assemble(sources));
}

void Machine::load_program(asmgen::Program program) {
  install_program(asmgen::share(std::move(program)));
}

void Machine::install_program(
    std::shared_ptr<const asmgen::Program> program) {
  // The program (and the text/data it writes below) no longer corresponds
  // to whatever snapshot this machine was last restored from; the next
  // restore must be a full one.
  memory_.forget_base();
  program_ = std::move(program);
  const asmgen::Program& p = *program_;
  // Text segment.
  for (size_t i = 0; i < p.text.size(); ++i) {
    memory_.store_word(layout::kTextBase + 4 * static_cast<uint32_t>(i),
                       TaintedWord{p.text[i]});
  }
  // Data segment.
  memory_.write_block(layout::kDataBase, p.data, /*tainted=*/false);
  // Program break starts past .data, 8-byte aligned.
  os_->set_initial_brk((p.data_end + 7) & ~7u);
  // A code image this core kept for the program re-decodes the pages just
  // written; the elision below is re-installed either way, since load
  // writes the program's own text.
  cpu_->use_code(program_, layout::kTextBase,
                 layout::kTextBase + 4 * static_cast<uint32_t>(p.text.size()));
  cpu_->set_pc(p.entry);
  // The initial stack pointer is the root of stack address provenance:
  // every frame and local address derives from it.
  cpu_->regs().set(isa::kSp, TaintedWord{layout::kStackTop - aslr_offset(),
                                         mem::kStackAddrMask});
  setup_argv();
  apply_may_publish(/*strict=*/true);
  if (config_.static_elision) apply_static_elision();
}

size_t Machine::enable_static_elision() {
  config_.static_elision = true;
  return apply_static_elision();
}

size_t Machine::apply_static_elision() {
  // Every proof is about the program as assembled; memory restored from a
  // snapshot taken after self-modifying code gets none.
  if (program_->text.empty() ||
      !memory_.holds_words(layout::kTextBase, program_->text)) {
    return 0;
  }
  // Second-generation table: the memory-aware value-set prover's bitmaps
  // (vsa.cpp) — sites proven clean, including those whose cleanliness
  // transits memory, and sites proven dead.  The summary cache memoizes the
  // whole result set per (program, policy), so rebooting the same guest —
  // or a near-identical campaign variant — skips CFG recovery and the
  // fixpoint; the shared program carries its digest, so a hit does not
  // rehash the text either.
  const std::shared_ptr<const analysis::CachedAnalysis> cached =
      analysis::SummaryCache::instance().analyze(program_, config_.policy);
  cpu_->set_check_elision(cached->gen2.elision);
  cpu_->set_leak_elision(cached->gen2.leak_elision);
  // Hand the recovered block boundaries to the superblock engine so its
  // translations align with the static CFG (translation hint only).
  cpu_->set_block_leaders(cached->block_leaders);
  return cached->gen2.gen2_clean;
}

uint32_t Machine::aslr_offset() const {
  if (config_.aslr_entropy_bits <= 0) return 0;
  const int bits = std::min(config_.aslr_entropy_bits, 20);
  // xorshift over the seed, then word-align within the entropy window.
  uint32_t x = config_.aslr_seed * 2654435761u + 0x9e3779b9u;
  x ^= x << 13;
  x ^= x >> 17;
  x ^= x << 5;
  return (x & ((1u << bits) - 1)) & ~3u;
}

void Machine::setup_argv() {
  // The argv/env block lives above the initial stack pointer:
  //   [argc][argv0..argvN-1][0][env0..envM-1][0][string bytes...]
  // Pointer cells are kernel-built (never tainted); the string bytes come
  // from the outside world and are tainted like any other external input
  // (paper Section 4.4 lists command line and environment as taint sources).
  const auto& argv = config_.argv;
  const auto& env = config_.env;
  const uint32_t cells = 1 + static_cast<uint32_t>(argv.size()) + 1 +
                         static_cast<uint32_t>(env.size()) + 1;
  uint32_t str_addr = layout::kArgBase + 4 * cells;
  uint32_t cell_addr = layout::kArgBase;

  memory_.store_word(cell_addr, TaintedWord{static_cast<uint32_t>(argv.size())});
  cell_addr += 4;
  auto emit_strings = [&](const std::vector<std::string>& items) {
    for (const auto& s : items) {
      memory_.store_word(cell_addr, TaintedWord{str_addr});
      cell_addr += 4;
      std::vector<uint8_t> bytes(s.begin(), s.end());
      bytes.push_back(0);
      memory_.write_block(str_addr, bytes, config_.taint_argv);
      if (config_.taint_argv) {
        // The terminating NUL is kernel-added, not attacker data.
        memory_.set_taint(str_addr + static_cast<uint32_t>(s.size()), 1, false);
      }
      str_addr += static_cast<uint32_t>(bytes.size());
    }
    memory_.store_word(cell_addr, TaintedWord{0});
    cell_addr += 4;
  };
  emit_strings(argv);
  emit_strings(env);

  cpu_->regs().set(isa::kA0, TaintedWord{static_cast<uint32_t>(argv.size())});
  cpu_->regs().set(isa::kA1, TaintedWord{layout::kArgBase + 4});
  cpu_->regs().set(
      isa::kA2,
      TaintedWord{layout::kArgBase + 4 * (2 + static_cast<uint32_t>(argv.size()))});
}

void Machine::protect_symbol(const std::string& symbol, uint32_t len) {
  cpu_->protect_region(program_->symbols.at(symbol), len, symbol);
}

void Machine::apply_may_publish(bool strict) {
  if (config_.may_publish.empty()) return;
  cpu_->set_publish_ranges(
      analysis::resolve_publish_ranges(*program_, config_.may_publish,
                                       strict));
}

MachineSnapshot Machine::snapshot() {
  MachineSnapshot s;
  s.program = program_;
  s.memory = memory_;  // shares every page copy-on-write
  // The machine and the snapshot are page-identical right now; track the
  // divergence so restoring *back* to this snapshot is a delta.  Moves of
  // the snapshot (returning it, stashing it in a cache) preserve the
  // memory identity the tracking refers to.
  memory_.track_against(s.memory);
  s.cpu = cpu_->save_state();
  s.os = *os_;
  if (pipeline_) s.pipeline = *pipeline_;
  return s;
}

void Machine::restore(const MachineSnapshot& snapshot) {
  // Restoring the snapshot this memory last copied from drops just the
  // pages the machine dirtied; any other snapshot shares every page.
  if (!memory_.delta_restore(snapshot.memory)) memory_ = snapshot.memory;
  program_ = snapshot.program;
  // One rule for the derived code state, delta or not: the core swaps in
  // its code image for the program and re-decodes only text pages whose
  // page object changed (self-modifying code, another boot of the same
  // program).  A program it holds no image for gets a fresh one, and only
  // then is the elision proof installed — the machine's policy is fixed
  // by its config, so the program alone identifies the bitmap.
  const bool fresh_image = cpu_->restore_state(snapshot.cpu, program_);
  *os_ = snapshot.os;
  if (config_.pipeline_model) {
    // Pipeline state transfers only between same-shaped configs; restoring
    // a snapshot without pipeline state resets the timing model.
    if (snapshot.pipeline) {
      *pipeline_ = *snapshot.pipeline;
    } else {
      *pipeline_ = cpu::Pipeline(config_.pipeline);
    }
  }
  if (tracer_) tracer_->clear();
  if (profiler_) profiler_->reset();
  if (config_.static_elision && fresh_image) apply_static_elision();
  // The waiver ranges are config-derived (not snapshot state, like the
  // policy itself) and must track whatever program the restore installed.
  apply_may_publish(/*strict=*/false);
}

cpu::StopReason Machine::run_for(uint64_t n) {
  // Unlike run(), exhausting the budget here is not a stop condition — the
  // machine stays resumable for incremental driving.
  return cpu_->advance(n);
}

RunReport Machine::report() const {
  RunReport r;
  r.stop = cpu_->stop_reason();
  r.exit_status = cpu_->exit_status();
  r.alert = cpu_->alert();
  if (r.alert) r.alert_function = program_->symbol_for(r.alert->pc);
  r.fault = cpu_->fault_message();
  r.stdout_text = os_->stdout_text();
  r.stderr_text = os_->stderr_text();
  for (size_t i = 0; i < os_->net().session_count(); ++i) {
    r.net_transcripts.push_back(os_->net().transcript(i));
  }
  r.cpu_stats = cpu_->stats();
  r.taint_stats = cpu_->taint_unit().stats();
  r.os_stats = os_->stats();
  if (pipeline_) r.pipeline_stats = pipeline_->stats();
  r.tainted_memory_bytes = memory_.tainted_byte_count();
  if (tracer_) r.trace_tail = tracer_->format(program_.get());
  return r;
}

RunReport Machine::run() {
  cpu_->run(config_.max_instructions);
  return report();
}

}  // namespace ptaint::core
