#include "cpu/cpu.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <mutex>

#include "cpu/jit/jit_engine.hpp"
#include "cpu/superblock.hpp"

namespace ptaint::cpu {

using isa::Instruction;
using isa::Op;
using mem::TaintBits;
using mem::TaintedWord;

std::string SecurityAlert::to_string() const {
  char buf[200];
  if (kind == AlertKind::kAnnotatedRegionTainted) {
    std::snprintf(buf, sizeof buf,
                  "%x: %s\ttainted write into annotated region '%s'", pc,
                  disasm.c_str(), region.c_str());
  } else if (kind == AlertKind::kAddressLeak) {
    std::snprintf(buf, sizeof buf, "%x: %s\tleak of %s byte at 0x%x", pc,
                  disasm.c_str(), region.c_str(), reg_value);
  } else {
    std::snprintf(buf, sizeof buf, "%x: %s\t$%d=0x%x", pc, disasm.c_str(),
                  reg, reg_value);
  }
  return buf;
}

CodeImage::CodeImage() = default;
CodeImage::~CodeImage() = default;
CodeImage::CodeImage(CodeImage&&) noexcept = default;
CodeImage& CodeImage::operator=(CodeImage&&) noexcept = default;

void CodeImage::reset(CodeKey new_key, uint32_t begin, uint32_t end) {
  key = std::move(new_key);
  text_begin = begin;
  text_end = end;
  // Cap the cache so a pathological range (e.g. a raw core that never saw a
  // loader) cannot allocate gigabytes; fetches past the cap use the slow
  // path with identical semantics.
  constexpr uint32_t kMaxCachedInstructions = 4u << 20;
  const uint64_t span = end > begin ? (static_cast<uint64_t>(end) - begin) / 4
                                    : 0;
  const size_t n = static_cast<size_t>(
      span < kMaxCachedInstructions ? span : kMaxCachedInstructions);
  decode_cache.resize(n);  // entries are meaningful only where valid
  decode_valid.assign(n, 0);
  elide_bits.clear();
  leak_elide_bits.clear();
  leader_bits.clear();
  constexpr uint32_t kShift = mem::TaintedMemory::kPageShift;
  const size_t pages =
      n == 0 ? 0
             : ((begin + 4 * static_cast<uint32_t>(n - 1)) >> kShift) -
                   (begin >> kShift) + 1;
  text_pages.assign(pages, nullptr);
  blocks.clear();
  block_at.assign(n, nullptr);
}

Cpu::Cpu(mem::TaintedMemory& memory, const TaintPolicy& policy)
    : memory_(memory), policy_(policy), taint_unit_(policy) {
  // The stack pointer is the root of all stack-address provenance.
  regs_.set(isa::kSp,
            TaintedWord{isa::layout::kStackTop, mem::kStackAddrMask});
}

Cpu::~Cpu() = default;

namespace {
constexpr const char* kEngineNames[] = {"step", "superblock", "jit"};
}  // namespace

const char* to_string(Engine engine) {
  return kEngineNames[static_cast<size_t>(engine)];
}

std::optional<Engine> parse_engine(std::string_view name) {
  for (size_t i = 0; i < std::size(kEngineNames); ++i) {
    if (name == kEngineNames[i]) return static_cast<Engine>(i);
  }
  return std::nullopt;
}

Engine select_engine(Engine requested, bool jit_supported) {
  return requested == Engine::kJit && !jit_supported ? Engine::kSuperblock
                                                     : requested;
}

void Cpu::set_engine(Engine requested) {
  const Engine engine = select_engine(requested, JitEngine::supported());
  if (engine != requested) {
    static std::once_flag warned;
    std::call_once(warned, [] {
      std::fprintf(stderr,
                   "ptaint: jit engine not supported on this host; "
                   "falling back to superblock\n");
    });
  }
  engine_ = engine;
  if (engine != Engine::kStep && sb_ == nullptr) {
    sb_ = std::make_unique<SuperblockEngine>(*this);
  }
  if (engine == Engine::kJit) sb_->enable_jit();
  if (sb_) sb_->reset();
}

void Cpu::set_block_leaders(const std::vector<uint8_t>& leaders) {
  std::vector<uint8_t>& bits = code_.leader_bits;
  bits.assign(code_.decode_cache.size(), 0);
  const size_t n = std::min(leaders.size(), bits.size());
  for (size_t i = 0; i < n; ++i) bits[i] = leaders[i] ? 1 : 0;
  // Existing blocks were built against the old leader set; retranslate.
  if (sb_) sb_->flush_all();
}

const SuperblockStats& Cpu::superblock_stats() const {
  static const SuperblockStats kZero;
  return sb_ ? sb_->stats() : kZero;
}

const JitStats& Cpu::jit_stats() const {
  static const JitStats kZero;
  return sb_ ? sb_->jit_stats() : kZero;
}

void Cpu::request_exit(int status) {
  exit_status_ = status;
  stop_ = StopReason::kExit;
}

void Cpu::request_fault(std::string message) { fault(std::move(message)); }

void Cpu::fault(std::string message) {
  char buf[64];
  std::snprintf(buf, sizeof buf, " (pc=0x%x)", pc_);
  fault_message_ = std::move(message) + buf;
  stop_ = StopReason::kFault;
}

void Cpu::raise_alert(const Instruction& inst, uint8_t reg, TaintedWord value,
                      AlertKind kind) {
  SecurityAlert alert;
  alert.kind = kind;
  alert.pc = pc_;
  alert.inst = inst;
  alert.disasm = isa::disassemble(inst, pc_);
  alert.reg = reg;
  alert.reg_value = value.value;
  alert.taint = value.taint;
  alert_ = std::move(alert);
  stop_ = StopReason::kSecurityAlert;
}

void Cpu::protect_region(uint32_t addr, uint32_t len, std::string name) {
  protected_regions_.push_back({addr, addr + len, std::move(name)});
}

void Cpu::policy_changed() {
  if (sb_ != nullptr && engine_ == Engine::kJit) sb_->reset();
}

bool Cpu::use_code(CodeKey key, uint32_t begin, uint32_t end) {
  static_assert(kCodeImages >= 2, "the active image plus at least one");
  text_begin_ = begin;
  text_end_ = end;
  const auto is_image_for = [&](const CodeImage& image) {
    return key.program != nullptr && image.key == key &&
           image.text_begin == begin && image.text_end == end;
  };
  if (!is_image_for(code_)) {
    if (sb_) sb_->on_switch(code_);
    // The outgoing image goes to the slot the incoming one leaves: the
    // hit's, else — the cache full — the least recently active image's,
    // whose storage the fresh image then reuses, so a miss allocates
    // nothing.  Swaps: a switch moves three images whatever the capacity.
    code_.last_active = ++switches_;
    auto slot = std::find_if(stashed_.begin(), stashed_.end(), is_image_for);
    const bool found = slot != stashed_.end();
    if (!found && stashed_.size() + 1 >= kCodeImages) {
      slot = std::min_element(stashed_.begin(), stashed_.end(),
                              [](const CodeImage& a, const CodeImage& b) {
                                return a.last_active < b.last_active;
                              });
    }
    if (code_.key.program == nullptr) {
      // A raw core's image is never kept.
      if (found) {
        code_ = std::move(*slot);
        stashed_.erase(slot);
      }
    } else if (slot != stashed_.end()) {
      std::swap(code_, *slot);
    } else {
      stashed_.push_back(std::move(code_));
    }
    if (!found) {
      // Nothing decoded yet, so every text page is trivially in sync.
      code_.reset(std::move(key), begin, end);
      const uint32_t first = begin >> mem::TaintedMemory::kPageShift;
      for (size_t i = 0; i < code_.text_pages.size(); ++i) {
        code_.text_pages[i] =
            memory_.pin_page(first + static_cast<uint32_t>(i));
      }
      return true;
    }
  }
  // The one restore rule: decodes, bitmaps and translations stand on every
  // text page whose page object is still the one they were derived from.
  // A different object with the same text bytes (another boot of the
  // program) is adopted as is; any other page is re-derived lazily.
  constexpr uint32_t kShift = mem::TaintedMemory::kPageShift;
  const uint32_t first = begin >> kShift;
  const uint64_t covered = begin + 4 * uint64_t{code_.decode_cache.size()};
  for (size_t i = 0; i < code_.text_pages.size(); ++i) {
    const uint32_t idx = first + static_cast<uint32_t>(i);
    const mem::TaintedMemory::Page* now = memory_.page_at(idx);
    const mem::TaintedMemory::Page* was = code_.text_pages[i].get();
    if (now != nullptr && now == was) continue;
    const uint64_t page = uint64_t{idx} << kShift;
    const size_t lo = static_cast<size_t>(std::max<uint64_t>(page, begin) - page);
    const size_t hi = static_cast<size_t>(
        std::min<uint64_t>(page + mem::TaintedMemory::kPageSize, covered) -
        page);
    if (now == nullptr || was == nullptr ||
        !std::equal(was->data.begin() + lo, was->data.begin() + hi,
                    now->data.begin() + lo)) {
      invalidate_decode_range(idx << kShift, mem::TaintedMemory::kPageSize);
    }
    code_.text_pages[i] = memory_.pin_page(idx);
  }
  return false;
}

void Cpu::set_check_elision(const std::vector<uint8_t>& elision) {
  std::vector<uint8_t>& bits = code_.elide_bits;
  bits.assign(code_.decode_cache.size(), 0);
  const size_t n = std::min(elision.size(), bits.size());
  for (size_t i = 0; i < n; ++i) bits[i] = elision[i] ? 1 : 0;
  // Refresh entries that were already decoded under the previous bitmap.
  std::vector<uint8_t>& valid = code_.decode_valid;
  for (size_t i = 0; i < valid.size(); ++i) {
    if (valid[i] != 0) valid[i] = i < n && bits[i] ? 2 : 1;
  }
  // Cached superblocks baked the old verdicts into their micro-ops.
  if (sb_) sb_->flush_all();
}

void Cpu::invalidate_decode_range(uint32_t addr, uint32_t len) {
  CodeImage& code = code_;
  if (code.decode_valid.empty() || len == 0) return;
  if (addr >= text_end_ || addr + len <= text_begin_) return;
  const uint32_t lo = addr > text_begin_ ? addr : text_begin_;
  const uint32_t hi = addr + len < text_end_ ? addr + len : text_end_;
  for (uint32_t i = (lo - text_begin_) / 4; i <= (hi - 1 - text_begin_) / 4;
       ++i) {
    if (i >= code.decode_valid.size()) break;
    code.decode_valid[i] = 0;
  }
  // The static proofs hold for the program as assembled, as a whole: new
  // code anywhere can feed tainted values to a site proven clean elsewhere
  // (a patched add that folds input into a register later dereferenced),
  // so a change to the text voids every proof of this image.
  if (!code.elide_bits.empty() || !code.leak_elide_bits.empty()) {
    drop_elision();
  }
  // Whatever gets decoded on these pages from now on comes from their
  // current bytes, not from the page objects on record.
  constexpr uint32_t kShift = mem::TaintedMemory::kPageShift;
  const uint32_t first = text_begin_ >> kShift;
  for (uint32_t p = (lo >> kShift) - first;
       p <= ((hi - 1) >> kShift) - first && p < code.text_pages.size(); ++p) {
    code.text_pages[p] = nullptr;
  }
  if (sb_) sb_->on_invalidate(lo, hi - lo);
}

void Cpu::drop_elision() {
  code_.elide_bits.clear();
  code_.leak_elide_bits.clear();
  for (uint8_t& valid : code_.decode_valid) {
    if (valid == 2) valid = 1;
  }
  if (sb_) sb_->flush_all();  // blocks baked the old verdicts
}

Cpu::State Cpu::save_state() const {
  State s;
  s.regs = regs_;
  s.pc = pc_;
  s.stop = stop_;
  s.alert = alert_;
  s.fault_message = fault_message_;
  s.exit_status = exit_status_;
  s.stats = stats_;
  s.taint_stats = taint_unit_.stats();
  s.protected_regions = protected_regions_;
  s.text_begin = text_begin_;
  s.text_end = text_end_;
  return s;
}

bool Cpu::restore_state(const State& s, CodeKey key) {
  regs_ = s.regs;
  pc_ = s.pc;
  stop_ = s.stop;
  alert_ = s.alert;
  fault_message_ = s.fault_message;
  exit_status_ = s.exit_status;
  stats_ = s.stats;
  taint_unit_.set_stats(s.taint_stats);
  protected_regions_ = s.protected_regions;
  return use_code(std::move(key), s.text_begin, s.text_end);
}

void Cpu::set_leak_elision(const std::vector<uint8_t>& elision) {
  std::vector<uint8_t>& bits = code_.leak_elide_bits;
  bits.assign(code_.decode_cache.size(), 0);
  const size_t n = std::min(elision.size(), bits.size());
  for (size_t i = 0; i < n; ++i) bits[i] = elision[i] ? 1 : 0;
  // Leak elision is consulted at syscall time, not baked into decodes or
  // superblocks, so no cache flush is needed.
}

bool Cpu::kernel_output_leak(uint32_t addr, uint32_t len) {
  if (!policy_.leak_detection || len == 0) return false;
  if (policy_.mode == DetectionMode::kOff) return false;
  if (pc_ >= text_begin_) {
    const uint32_t idx = (pc_ - text_begin_) / 4;
    const std::vector<uint8_t>& bits = code_.leak_elide_bits;
    if (idx < bits.size() && bits[idx]) return false;
  }
  // §5.3-style annotation: output sites inside a may-publish function are
  // waived — the program is declared to publish pointers there on purpose.
  for (const auto& [begin, end] : publish_ranges_) {
    if (pc_ >= begin && pc_ < end) return false;
  }
  const uint8_t planes = memory_.addr_planes_in(addr, len);
  if (planes == 0) return false;
  std::string classes;
  if (planes & mem::kByteStackAddr) classes += "stack-addr";
  if (planes & mem::kByteHeapAddr) {
    classes += classes.empty() ? "heap-addr" : ",heap-addr";
  }
  if (planes & mem::kByteTextAddr) {
    classes += classes.empty() ? "text-addr" : ",text-addr";
  }
  TaintBits t = 0;
  if (planes & mem::kByteStackAddr) t |= mem::kStackAddrMask;
  if (planes & mem::kByteHeapAddr) t |= mem::kHeapAddrMask;
  if (planes & mem::kByteTextAddr) t |= mem::kTextAddrMask;
  SecurityAlert alert;
  alert.kind = AlertKind::kAddressLeak;
  alert.pc = pc_;
  alert.disasm = "syscall (output)";
  alert.reg = isa::kA1;
  alert.reg_value = memory_.first_addr_tainted(addr, len).value_or(addr);
  alert.taint = t;
  alert.region = std::move(classes);
  alert_ = std::move(alert);
  stop_ = StopReason::kSecurityAlert;
  return true;
}

bool Cpu::annotation_kernel_write(uint32_t addr, uint32_t len) {
  if (protected_regions_.empty() || len == 0) return false;
  if (policy_.mode == DetectionMode::kOff) return false;
  for (const auto& region : protected_regions_) {
    if (addr < region.end && addr + len > region.begin) {
      SecurityAlert alert;
      alert.kind = AlertKind::kAnnotatedRegionTainted;
      alert.pc = pc_;
      alert.disasm = "syscall (input copy)";
      alert.region = region.name;
      alert_ = std::move(alert);
      stop_ = StopReason::kSecurityAlert;
      return true;
    }
  }
  return false;
}

bool Cpu::detect_annotation(const Instruction& inst, uint32_t ea, uint32_t len,
                            TaintedWord value) {
  if (protected_regions_.empty() || !value.tainted()) return false;
  if (policy_.mode == DetectionMode::kOff) return false;
  for (const auto& region : protected_regions_) {
    if (ea < region.end && ea + len > region.begin) {
      SecurityAlert alert;
      alert.kind = AlertKind::kAnnotatedRegionTainted;
      alert.pc = pc_;
      alert.inst = inst;
      alert.disasm = isa::disassemble(inst, pc_);
      alert.reg = inst.rt;
      alert.reg_value = value.value;
      alert.taint = value.taint;
      alert.region = region.name;
      alert_ = std::move(alert);
      stop_ = StopReason::kSecurityAlert;
      return true;
    }
  }
  return false;
}

bool Cpu::detect_pointer(const Instruction& inst, uint8_t reg,
                         TaintedWord value, AlertKind kind) {
  if (!value.tainted()) return false;
  const bool is_control = kind == AlertKind::kTaintedJumpTarget;
  switch (policy_.mode) {
    case DetectionMode::kOff:
      return false;
    case DetectionMode::kControlDataOnly:
      if (!is_control) return false;
      break;
    case DetectionMode::kPointerTaint:
      break;
  }
  raise_alert(inst, reg, value, kind);
  return true;
}

void Cpu::alu_write(const Instruction& inst, uint8_t dest, uint32_t value,
                    TaintedWord a, TaintedWord b, bool b_imm) {
  TaintOpInputs in;
  in.inst = inst;
  in.a = a;
  in.b = b;
  in.b_is_immediate = b_imm;
  const TaintOpResult res = taint_unit_.propagate(in);
  if (res.untaint_sources) {
    // Table 1 compare rule: validated data is trusted afterwards.
    regs_.untaint(inst.rs);
    if (!b_imm) regs_.untaint(inst.rt);
    ++stats_.compare_untaints;
  }
  regs_.set(dest, TaintedWord{value, res.result_taint});
}

StopReason Cpu::step() {
  if (stop_ != StopReason::kRunning) return stop_;
  if (pc_ % 4 != 0) {
    fault("misaligned instruction fetch");
    return stop_;
  }
  if (policy_.nx_protection && (pc_ < text_begin_ || pc_ >= text_end_)) {
    SecurityAlert alert;
    alert.kind = AlertKind::kNxViolation;
    alert.pc = pc_;
    alert.disasm = "(fetch from non-executable memory)";
    alert.reg_value = pc_;
    alert_ = std::move(alert);
    stop_ = StopReason::kSecurityAlert;
    return stop_;
  }
  // Fetch through the decoded-instruction cache when the PC is inside the
  // cached text range; otherwise (shellcode on the stack, raw cores) decode
  // from memory with identical semantics.
  const uint32_t idx = (pc_ - text_begin_) / 4;
  CodeImage& code = code_;
  if (pc_ >= text_begin_ && idx < code.decode_cache.size()) {
    if (!code.decode_valid[idx]) {
      code.decode_cache[idx] = isa::decode(memory_.load_word(pc_).value);
      code.decode_valid[idx] =
          idx < code.elide_bits.size() && code.elide_bits[idx] ? 2 : 1;
    }
    const Instruction& inst = code.decode_cache[idx];
    if (inst.op == Op::kInvalid) {
      fault("invalid instruction encoding");
      return stop_;
    }
    return execute(inst, code.decode_valid[idx] == 2);
  }
  const uint32_t word = memory_.load_word(pc_).value;
  const Instruction inst = isa::decode(word);
  if (inst.op == Op::kInvalid) {
    fault("invalid instruction encoding");
    return stop_;
  }
  return execute(inst);
}

StopReason Cpu::run(uint64_t max_instructions) {
  advance(max_instructions);
  if (stop_ == StopReason::kRunning) stop_ = StopReason::kInstLimit;
  return stop_;
}

StopReason Cpu::advance(uint64_t max_instructions) {
  // Retire hooks (trace/profile/pipeline) need per-instruction events the
  // superblock and JIT handlers do not surface, so they force the reference
  // path.
  if (engine_ != Engine::kStep && sb_ != nullptr && !retire_hook_) {
    return sb_->advance(max_instructions);
  }
  for (uint64_t i = 0; i < max_instructions; ++i) {
    if (step() != StopReason::kRunning) return stop_;
  }
  return stop_;
}

StopReason Cpu::execute(const Instruction& inst, bool elide) {
  uint32_t next_pc = pc_ + 4;
  bool taken = false;
  bool is_mem = false;
  uint32_t ea = 0;

  const auto rs = regs_.get(inst.rs);
  const auto rt = regs_.get(inst.rt);
  const auto imm_word = [&](uint32_t v) { return TaintedWord{v}; };

  switch (inst.op) {
    // ---- shifts ----
    case Op::kSll:
      alu_write(inst, inst.rd, rt.value << inst.shamt, rt,
                imm_word(inst.shamt), true);
      ++stats_.alu_ops;
      break;
    case Op::kSrl:
      alu_write(inst, inst.rd, rt.value >> inst.shamt, rt,
                imm_word(inst.shamt), true);
      ++stats_.alu_ops;
      break;
    case Op::kSra:
      alu_write(inst, inst.rd,
                static_cast<uint32_t>(static_cast<int32_t>(rt.value) >>
                                      inst.shamt),
                rt, imm_word(inst.shamt), true);
      ++stats_.alu_ops;
      break;
    case Op::kSllv:
      alu_write(inst, inst.rd, rt.value << (rs.value & 31), rt, rs, false);
      ++stats_.alu_ops;
      break;
    case Op::kSrlv:
      alu_write(inst, inst.rd, rt.value >> (rs.value & 31), rt, rs, false);
      ++stats_.alu_ops;
      break;
    case Op::kSrav:
      alu_write(inst, inst.rd,
                static_cast<uint32_t>(static_cast<int32_t>(rt.value) >>
                                      (rs.value & 31)),
                rt, rs, false);
      ++stats_.alu_ops;
      break;

    // ---- three-register ALU ----
    case Op::kAdd:
    case Op::kAddu:
      alu_write(inst, inst.rd, rs.value + rt.value, rs, rt, false);
      ++stats_.alu_ops;
      break;
    case Op::kSub:
    case Op::kSubu:
      alu_write(inst, inst.rd, rs.value - rt.value, rs, rt, false);
      ++stats_.alu_ops;
      break;
    case Op::kAnd:
      alu_write(inst, inst.rd, rs.value & rt.value, rs, rt, false);
      ++stats_.alu_ops;
      break;
    case Op::kOr:
      alu_write(inst, inst.rd, rs.value | rt.value, rs, rt, false);
      ++stats_.alu_ops;
      break;
    case Op::kXor:
      alu_write(inst, inst.rd, rs.value ^ rt.value, rs, rt, false);
      ++stats_.alu_ops;
      break;
    case Op::kNor:
      alu_write(inst, inst.rd, ~(rs.value | rt.value), rs, rt, false);
      ++stats_.alu_ops;
      break;
    case Op::kSlt:
      alu_write(inst, inst.rd,
                static_cast<int32_t>(rs.value) < static_cast<int32_t>(rt.value)
                    ? 1
                    : 0,
                rs, rt, false);
      ++stats_.alu_ops;
      break;
    case Op::kSltu:
      alu_write(inst, inst.rd, rs.value < rt.value ? 1 : 0, rs, rt, false);
      ++stats_.alu_ops;
      break;

    // ---- multiply / divide ----
    case Op::kMult: {
      const int64_t p = static_cast<int64_t>(static_cast<int32_t>(rs.value)) *
                        static_cast<int64_t>(static_cast<int32_t>(rt.value));
      const TaintBits t = static_cast<TaintBits>(rs.taint | rt.taint);
      regs_.set_lo(TaintedWord{static_cast<uint32_t>(p), t});
      regs_.set_hi(TaintedWord{static_cast<uint32_t>(p >> 32), t});
      ++stats_.alu_ops;
      break;
    }
    case Op::kMultu: {
      const uint64_t p = static_cast<uint64_t>(rs.value) *
                         static_cast<uint64_t>(rt.value);
      const TaintBits t = static_cast<TaintBits>(rs.taint | rt.taint);
      regs_.set_lo(TaintedWord{static_cast<uint32_t>(p), t});
      regs_.set_hi(TaintedWord{static_cast<uint32_t>(p >> 32), t});
      ++stats_.alu_ops;
      break;
    }
    case Op::kDiv: {
      const auto [q, r] = signed_divide(rs.value, rt.value);
      const TaintBits t = static_cast<TaintBits>(rs.taint | rt.taint);
      regs_.set_lo(TaintedWord{q, t});
      regs_.set_hi(TaintedWord{r, t});
      ++stats_.alu_ops;
      break;
    }
    case Op::kDivu: {
      const TaintBits t = static_cast<TaintBits>(rs.taint | rt.taint);
      if (rt.value == 0) {
        regs_.set_lo(TaintedWord{0, t});
        regs_.set_hi(TaintedWord{0, t});
      } else {
        regs_.set_lo(TaintedWord{rs.value / rt.value, t});
        regs_.set_hi(TaintedWord{rs.value % rt.value, t});
      }
      ++stats_.alu_ops;
      break;
    }
    case Op::kMfhi:
      regs_.set(inst.rd, regs_.hi());
      ++stats_.alu_ops;
      break;
    case Op::kMflo:
      regs_.set(inst.rd, regs_.lo());
      ++stats_.alu_ops;
      break;
    case Op::kMthi:
      regs_.set_hi(rs);
      ++stats_.alu_ops;
      break;
    case Op::kMtlo:
      regs_.set_lo(rs);
      ++stats_.alu_ops;
      break;

    // ---- kernel tainting primitives (the Section 4.4 RT-register trick) --
    case Op::kTaintSet:
      regs_.set(inst.rd,
                TaintedWord{rs.value,
                            static_cast<TaintBits>(
                                mem::kAllTainted |
                                (rs.taint & mem::kAddrMask))});
      ++stats_.alu_ops;
      break;
    case Op::kTaintClr:
      regs_.set(inst.rd, TaintedWord{rs.value, mem::kUntainted});
      ++stats_.alu_ops;
      break;

    // ---- immediate ALU ----
    case Op::kAddi:
    case Op::kAddiu:
      alu_write(inst, inst.rt, rs.value + static_cast<uint32_t>(inst.imm), rs,
                imm_word(static_cast<uint32_t>(inst.imm)), true);
      ++stats_.alu_ops;
      break;
    case Op::kSlti:
      alu_write(inst, inst.rt,
                static_cast<int32_t>(rs.value) < inst.imm ? 1 : 0, rs,
                imm_word(static_cast<uint32_t>(inst.imm)), true);
      ++stats_.alu_ops;
      break;
    case Op::kSltiu:
      alu_write(inst, inst.rt,
                rs.value < static_cast<uint32_t>(inst.imm) ? 1 : 0, rs,
                imm_word(static_cast<uint32_t>(inst.imm)), true);
      ++stats_.alu_ops;
      break;
    case Op::kAndi:
      alu_write(inst, inst.rt, rs.value & (inst.imm & 0xffff), rs,
                imm_word(static_cast<uint32_t>(inst.imm & 0xffff)), true);
      ++stats_.alu_ops;
      break;
    case Op::kOri:
      alu_write(inst, inst.rt, rs.value | (inst.imm & 0xffff), rs,
                imm_word(static_cast<uint32_t>(inst.imm & 0xffff)), true);
      ++stats_.alu_ops;
      break;
    case Op::kXori:
      alu_write(inst, inst.rt, rs.value ^ (inst.imm & 0xffff), rs,
                imm_word(static_cast<uint32_t>(inst.imm & 0xffff)), true);
      ++stats_.alu_ops;
      break;
    case Op::kLui: {
      // `la label` in text expands to LUI/ORI of a code address: a constant
      // that lands in the executable range carries text provenance (the
      // ORI below OR-merges it through).
      const uint32_t v = static_cast<uint32_t>(inst.imm & 0xffff) << 16;
      const TaintBits t = text_begin_ != 0 && v >= text_begin_ && v < text_end_
                              ? mem::kTextAddrMask
                              : mem::kUntainted;
      regs_.set(inst.rt, TaintedWord{v, t});
      ++stats_.alu_ops;
      break;
    }

    // ---- loads ----
    case Op::kLb:
    case Op::kLbu:
    case Op::kLh:
    case Op::kLhu:
    case Op::kLw: {
      ea = rs.value + static_cast<uint32_t>(inst.imm);
      is_mem = true;
      ++stats_.loads;
      // Memory-access detector (after EX/MEM): the address word is the base
      // register; a tainted base means the attacker chose the address.
      if (!elide &&
          detect_pointer(inst, inst.rs, rs, AlertKind::kTaintedLoadAddress)) {
        return stop_;
      }
      TaintedWord result;
      if (inst.op == Op::kLw) {
        if (ea % 4 != 0) { fault("misaligned lw"); return stop_; }
        result = memory_.load_word(ea);
      } else if (inst.op == Op::kLh || inst.op == Op::kLhu) {
        if (ea % 2 != 0) { fault("misaligned lh"); return stop_; }
        const TaintedWord half = memory_.load_half(ea);
        if (inst.op == Op::kLh) {
          result.value = static_cast<uint32_t>(
              static_cast<int16_t>(half.value & 0xffff));
          // Sign extension makes every result byte depend on the loaded
          // half, so taint widens to the full word (per plane).
          result.taint = mem::widen_planes(half.taint);
        } else {
          result = half;
        }
      } else {
        const mem::TaintedByte b = memory_.load_byte(ea);
        if (inst.op == Op::kLb) {
          result.value =
              static_cast<uint32_t>(static_cast<int8_t>(b.value));
          result.taint = mem::widen_planes(mem::planes_to_word(b.planes, 0));
        } else {
          result.value = b.value;
          result.taint = mem::planes_to_word(b.planes, 0);
        }
      }
      if (policy_.per_word_taint) {
        result.taint = mem::widen_planes(result.taint);
      }
      if (result.tainted()) ++stats_.tainted_loads;
      regs_.set(inst.rt, result);
      break;
    }

    // ---- stores ----
    case Op::kSb:
    case Op::kSh:
    case Op::kSw: {
      ea = rs.value + static_cast<uint32_t>(inst.imm);
      is_mem = true;
      ++stats_.stores;
      if (!elide &&
          detect_pointer(inst, inst.rs, rs, AlertKind::kTaintedStoreAddress)) {
        return stop_;
      }
      const uint32_t store_len =
          inst.op == Op::kSw ? 4 : inst.op == Op::kSh ? 2 : 1;
      // Only the taint of the bytes actually stored counts (every plane).
      const TaintedWord stored{
          rt.value, static_cast<TaintBits>(
                        rt.taint & (((1u << store_len) - 1) * 0x1111u))};
      if (detect_annotation(inst, ea, store_len, stored)) return stop_;
      if (rt.tainted()) ++stats_.tainted_stores;
      if (ea < text_end_ && ea + store_len > text_begin_) {
        invalidate_decode_range(ea, store_len);
      }
      if (inst.op == Op::kSw) {
        if (ea % 4 != 0) { fault("misaligned sw"); return stop_; }
        memory_.store_word(ea, rt);
      } else if (inst.op == Op::kSh) {
        if (ea % 2 != 0) { fault("misaligned sh"); return stop_; }
        memory_.store_half(ea, rt);
      } else {
        memory_.store_byte(
            ea, {static_cast<uint8_t>(rt.value), mem::byte_planes(rt.taint, 0)});
      }
      break;
    }

    // ---- branches ----
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlez:
    case Op::kBgtz:
    case Op::kBltz:
    case Op::kBgez:
    case Op::kBltzal:
    case Op::kBgezal: {
      ++stats_.branches;
      const auto sval = static_cast<int32_t>(rs.value);
      switch (inst.op) {
        case Op::kBeq: taken = rs.value == rt.value; break;
        case Op::kBne: taken = rs.value != rt.value; break;
        case Op::kBlez: taken = sval <= 0; break;
        case Op::kBgtz: taken = sval > 0; break;
        case Op::kBltz: case Op::kBltzal: taken = sval < 0; break;
        default: taken = sval >= 0; break;
      }
      if (inst.op == Op::kBltzal || inst.op == Op::kBgezal) {
        regs_.set(isa::kRa, TaintedWord{pc_ + 4, mem::kTextAddrMask});
      }
      // Branches compare data against bounds; the Table 1 compare rule
      // trusts validated values afterwards.
      if (policy_.compare_untaints &&
          (rs.tainted() || regs_.get(inst.rt).tainted())) {
        regs_.untaint(inst.rs);
        if (inst.op == Op::kBeq || inst.op == Op::kBne) {
          regs_.untaint(inst.rt);
        }
        ++stats_.compare_untaints;
      }
      if (taken) {
        next_pc = pc_ + 4 + (static_cast<uint32_t>(inst.imm) << 2);
        ++stats_.taken_branches;
      }
      break;
    }

    // ---- jumps ----
    case Op::kJ:
      next_pc = inst.target;
      ++stats_.jumps;
      break;
    case Op::kJal:
      // Link addresses are text addresses — the root of text provenance.
      regs_.set(isa::kRa, TaintedWord{pc_ + 4, mem::kTextAddrMask});
      next_pc = inst.target;
      ++stats_.jumps;
      break;
    case Op::kJr:
      ++stats_.jumps;
      // Control-transfer detector (after ID/EX): tainted jump target.
      if (!elide &&
          detect_pointer(inst, inst.rs, rs, AlertKind::kTaintedJumpTarget)) {
        return stop_;
      }
      next_pc = rs.value;
      break;
    case Op::kJalr:
      ++stats_.jumps;
      if (!elide &&
          detect_pointer(inst, inst.rs, rs, AlertKind::kTaintedJumpTarget)) {
        return stop_;
      }
      regs_.set(inst.rd, TaintedWord{pc_ + 4, mem::kTextAddrMask});
      next_pc = rs.value;
      break;

    case Op::kSyscall:
      ++stats_.syscalls;
      if (os_ == nullptr) {
        fault("syscall without an OS");
        return stop_;
      }
      os_->syscall(*this);
      if (stop_ != StopReason::kRunning) {
        // The syscall still retired (exit/termination is its effect).
        ++stats_.instructions;
        if (retire_hook_) retire_hook_(inst, pc_, false, false, 0);
        return stop_;
      }
      break;

    case Op::kBreak:
      stop_ = StopReason::kBreak;
      ++stats_.instructions;
      if (retire_hook_) retire_hook_(inst, pc_, false, false, 0);
      return stop_;

    case Op::kInvalid:
      fault("invalid instruction");
      return stop_;
  }

  ++stats_.instructions;
  if (retire_hook_) retire_hook_(inst, pc_, taken, is_mem, ea);
  pc_ = next_pc;
  return stop_;
}

}  // namespace ptaint::cpu
