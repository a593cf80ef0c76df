#include "core/snapshot_io.hpp"

#include <cstring>

#include "asmgen/program_memo.hpp"

namespace ptaint::core {
namespace {

constexpr uint32_t kMetaMagic = 0x504e5350u;  // "PSNP"
constexpr uint32_t kMetaVersion = 1;

// --- little-endian byte stream ------------------------------------------

struct Writer {
  std::vector<uint8_t> out;

  void u8(uint8_t v) { out.push_back(v); }
  void u16(uint16_t v) {
    u8(static_cast<uint8_t>(v));
    u8(static_cast<uint8_t>(v >> 8));
  }
  void u32(uint32_t v) {
    u16(static_cast<uint16_t>(v));
    u16(static_cast<uint16_t>(v >> 16));
  }
  void u64(uint64_t v) {
    u32(static_cast<uint32_t>(v));
    u32(static_cast<uint32_t>(v >> 32));
  }
  void i32(int32_t v) { u32(static_cast<uint32_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  }
  void bytes(const std::vector<uint8_t>& v) {
    u32(static_cast<uint32_t>(v.size()));
    out.insert(out.end(), v.begin(), v.end());
  }
};

struct Reader {
  const uint8_t* p;
  const uint8_t* end;
  bool ok = true;

  bool need(size_t n) {
    if (!ok || static_cast<size_t>(end - p) < n) ok = false;
    return ok;
  }
  uint8_t u8() {
    if (!need(1)) return 0;
    return *p++;
  }
  uint16_t u16() {
    const uint16_t lo = u8();
    return static_cast<uint16_t>(lo | (static_cast<uint16_t>(u8()) << 8));
  }
  uint32_t u32() {
    const uint32_t lo = u16();
    return lo | (static_cast<uint32_t>(u16()) << 16);
  }
  uint64_t u64() {
    const uint64_t lo = u32();
    return lo | (static_cast<uint64_t>(u32()) << 32);
  }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  bool b() { return u8() != 0; }
  std::string str() {
    const uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(p), n);
    p += n;
    return s;
  }
  std::vector<uint8_t> bytes() {
    const uint32_t n = u32();
    if (!need(n)) return {};
    std::vector<uint8_t> v(p, p + n);
    p += n;
    return v;
  }
};

// --- component codecs ----------------------------------------------------

void write_program(Writer& w, const asmgen::Program& prog) {
  w.u32(static_cast<uint32_t>(prog.text.size()));
  for (uint32_t word : prog.text) w.u32(word);
  w.bytes(prog.data);
  w.u32(prog.entry);
  w.u32(prog.data_end);
  w.u32(static_cast<uint32_t>(prog.symbols.size()));
  for (const auto& [name, addr] : prog.symbols) {
    w.str(name);
    w.u32(addr);
  }
  w.u32(static_cast<uint32_t>(prog.text_locs.size()));
  for (const auto& [addr, loc] : prog.text_locs) {
    w.u32(addr);
    w.str(loc.file);
    w.i32(loc.line);
    w.i32(loc.col);
  }
  auto write_labels =
      [&](const std::vector<std::pair<uint32_t, std::string>>& labels) {
        w.u32(static_cast<uint32_t>(labels.size()));
        for (const auto& [addr, name] : labels) {
          w.u32(addr);
          w.str(name);
        }
      };
  write_labels(prog.text_labels);
  write_labels(prog.function_labels);
}

asmgen::Program read_program(Reader& r) {
  asmgen::Program prog;
  const uint32_t text = r.u32();
  if (!r.need(static_cast<size_t>(text) * 4)) return prog;
  prog.text.reserve(text);
  for (uint32_t i = 0; i < text; ++i) prog.text.push_back(r.u32());
  prog.data = r.bytes();
  prog.entry = r.u32();
  prog.data_end = r.u32();
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    std::string name = r.str();
    const uint32_t addr = r.u32();
    prog.symbols.emplace(std::move(name), addr);
  }
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    const uint32_t addr = r.u32();
    asmgen::SourceLoc loc;
    loc.file = r.str();
    loc.line = r.i32();
    loc.col = r.i32();
    prog.text_locs.emplace(addr, std::move(loc));
  }
  auto read_labels = [&](std::vector<std::pair<uint32_t, std::string>>& out) {
    for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
      const uint32_t addr = r.u32();
      out.emplace_back(addr, r.str());
    }
  };
  read_labels(prog.text_labels);
  read_labels(prog.function_labels);
  return prog;
}

void write_word(Writer& w, mem::TaintedWord word) {
  w.u32(word.value);
  w.u16(word.taint);
}

mem::TaintedWord read_word(Reader& r) {
  mem::TaintedWord word;
  word.value = r.u32();
  word.taint = r.u16();
  return word;
}

void write_cpu(Writer& w, const cpu::Cpu::State& s) {
  for (uint8_t i = 0; i < 32; ++i) write_word(w, s.regs.get(i));
  write_word(w, s.regs.hi());
  write_word(w, s.regs.lo());
  w.u32(s.pc);
  w.u8(static_cast<uint8_t>(s.stop));
  w.b(s.alert.has_value());
  if (s.alert) {
    const cpu::SecurityAlert& a = *s.alert;
    w.u8(static_cast<uint8_t>(a.kind));
    w.u32(a.pc);
    w.u8(static_cast<uint8_t>(a.inst.op));
    w.u8(a.inst.rs);
    w.u8(a.inst.rt);
    w.u8(a.inst.rd);
    w.u8(a.inst.shamt);
    w.i32(a.inst.imm);
    w.u32(a.inst.target);
    w.str(a.disasm);
    w.u8(a.reg);
    w.u32(a.reg_value);
    w.u16(a.taint);
    w.str(a.region);
  }
  w.str(s.fault_message);
  w.i32(s.exit_status);
  const cpu::CpuStats& c = s.stats;
  for (uint64_t v : {c.instructions, c.alu_ops, c.loads, c.stores, c.branches,
                     c.taken_branches, c.jumps, c.syscalls, c.tainted_loads,
                     c.tainted_stores, c.compare_untaints}) {
    w.u64(v);
  }
  const cpu::TaintUnit::Stats& t = s.taint_stats;
  for (uint64_t v : {t.evaluations, t.tainted_evaluations, t.compare_untaints,
                     t.and_zero_untaints, t.xor_self_untaints}) {
    w.u64(v);
  }
  w.u32(static_cast<uint32_t>(s.protected_regions.size()));
  for (const cpu::Cpu::ProtectedRegion& region : s.protected_regions) {
    w.u32(region.begin);
    w.u32(region.end);
    w.str(region.name);
  }
  w.u32(s.text_begin);
  w.u32(s.text_end);
}

cpu::Cpu::State read_cpu(Reader& r) {
  cpu::Cpu::State s;
  for (uint8_t i = 0; i < 32; ++i) {
    const mem::TaintedWord word = read_word(r);
    s.regs.set(i, word);  // $zero writes are dropped, matching save shape
  }
  s.regs.set_hi(read_word(r));
  s.regs.set_lo(read_word(r));
  s.pc = r.u32();
  s.stop = static_cast<cpu::StopReason>(r.u8());
  if (r.b()) {
    cpu::SecurityAlert a;
    a.kind = static_cast<cpu::AlertKind>(r.u8());
    a.pc = r.u32();
    a.inst.op = static_cast<isa::Op>(r.u8());
    a.inst.rs = r.u8();
    a.inst.rt = r.u8();
    a.inst.rd = r.u8();
    a.inst.shamt = r.u8();
    a.inst.imm = r.i32();
    a.inst.target = r.u32();
    a.disasm = r.str();
    a.reg = r.u8();
    a.reg_value = r.u32();
    a.taint = r.u16();
    a.region = r.str();
    s.alert = std::move(a);
  }
  s.fault_message = r.str();
  s.exit_status = r.i32();
  cpu::CpuStats& c = s.stats;
  for (uint64_t* v : {&c.instructions, &c.alu_ops, &c.loads, &c.stores,
                      &c.branches, &c.taken_branches, &c.jumps, &c.syscalls,
                      &c.tainted_loads, &c.tainted_stores,
                      &c.compare_untaints}) {
    *v = r.u64();
  }
  cpu::TaintUnit::Stats& t = s.taint_stats;
  for (uint64_t* v : {&t.evaluations, &t.tainted_evaluations,
                      &t.compare_untaints, &t.and_zero_untaints,
                      &t.xor_self_untaints}) {
    *v = r.u64();
  }
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    cpu::Cpu::ProtectedRegion region;
    region.begin = r.u32();
    region.end = r.u32();
    region.name = r.str();
    s.protected_regions.push_back(std::move(region));
  }
  s.text_begin = r.u32();
  s.text_end = r.u32();
  return s;
}

void write_os(Writer& w, const os::SimOs& sim) {
  const os::SimOs::Persist p = sim.persist();
  w.u32(static_cast<uint32_t>(p.vfs.files.size()));
  for (const auto& [path, contents] : p.vfs.files) {
    w.str(path);
    w.bytes(contents);
  }
  w.u32(static_cast<uint32_t>(p.vfs.open_files.size()));
  for (const auto& f : p.vfs.open_files) {
    w.str(f.path);
    w.u64(f.pos);
    w.b(f.writable);
    w.b(f.open);
  }
  w.u32(static_cast<uint32_t>(p.net.sessions.size()));
  for (const auto& s : p.net.sessions) {
    w.u32(static_cast<uint32_t>(s.requests.size()));
    for (const auto& chunk : s.requests) w.bytes(chunk);
    w.str(s.transcript);
    w.u64(s.next_chunk);
    w.b(s.accepted);
  }
  w.u64(p.net.next_accept);
  w.u32(static_cast<uint32_t>(p.fds.size()));
  for (const auto& [kind, handle] : p.fds) {
    w.u8(kind);
    w.i32(handle);
  }
  w.bytes(p.stdin_data);
  w.u64(p.stdin_pos);
  w.str(p.stdout_text);
  w.str(p.stderr_text);
  w.u32(static_cast<uint32_t>(p.exec_log.size()));
  for (const std::string& e : p.exec_log) w.str(e);
  w.b(p.taint_inputs);
  w.u32(p.brk);
  w.u32(p.uid);
  w.u64(p.stats.input_bytes_tainted);
  w.u64(p.stats.syscalls);
  w.u64(p.stats.reads);
  w.u64(p.stats.recvs);
}

void read_os(Reader& r, os::SimOs& sim) {
  os::SimOs::Persist p;
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    std::string path = r.str();
    p.vfs.files.emplace(std::move(path), r.bytes());
  }
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    os::Vfs::Persist::OpenFile f;
    f.path = r.str();
    f.pos = r.u64();
    f.writable = r.b();
    f.open = r.b();
    p.vfs.open_files.push_back(std::move(f));
  }
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    os::VirtualNetwork::Persist::Session s;
    for (uint32_t j = 0, m = r.u32(); r.ok && j < m; ++j) {
      s.requests.push_back(r.bytes());
    }
    s.transcript = r.str();
    s.next_chunk = r.u64();
    s.accepted = r.b();
    p.net.sessions.push_back(std::move(s));
  }
  p.net.next_accept = r.u64();
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    const uint8_t kind = r.u8();
    p.fds.emplace_back(kind, r.i32());
  }
  p.stdin_data = r.bytes();
  p.stdin_pos = r.u64();
  p.stdout_text = r.str();
  p.stderr_text = r.str();
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    p.exec_log.push_back(r.str());
  }
  p.taint_inputs = r.b();
  p.brk = r.u32();
  p.uid = r.u32();
  p.stats.input_bytes_tainted = r.u64();
  p.stats.syscalls = r.u64();
  p.stats.reads = r.u64();
  p.stats.recvs = r.u64();
  if (r.ok) sim.restore_persist(p);
}

}  // namespace

std::optional<StoredSnapshot> dehydrate_snapshot(MachineSnapshot& snapshot,
                                                 mem::PageStore& store) {
  if (snapshot.pipeline) return std::nullopt;
  StoredSnapshot stored;
  stored.pages = mem::intern_memory(store, snapshot.memory);
  Writer w;
  w.u32(kMetaMagic);
  w.u32(kMetaVersion);
  write_program(w, *snapshot.program);
  write_cpu(w, snapshot.cpu);
  write_os(w, snapshot.os);
  stored.meta = std::move(w.out);
  return stored;
}

std::optional<MachineSnapshot> hydrate_snapshot(const StoredSnapshot& stored,
                                                mem::PageStore& store) {
  Reader r{stored.meta.data(), stored.meta.data() + stored.meta.size()};
  if (r.u32() != kMetaMagic || r.u32() != kMetaVersion) return std::nullopt;
  MachineSnapshot snapshot;
  snapshot.program = asmgen::share(read_program(r));
  snapshot.cpu = read_cpu(r);
  read_os(r, snapshot.os);
  if (!r.ok) return std::nullopt;
  if (!mem::adopt_memory(store, snapshot.memory, stored.pages)) {
    return std::nullopt;
  }
  return snapshot;
}

std::vector<uint8_t> encode_stored_snapshot(const std::string& key,
                                            const StoredSnapshot& stored) {
  Writer w;
  w.u32(kMetaMagic);
  w.u32(kMetaVersion);
  w.str(key);
  w.u32(static_cast<uint32_t>(stored.pages.size()));
  for (const auto& [idx, page_key] : stored.pages) {
    w.u32(idx);
    w.u64(page_key.hash);
    w.u32(page_key.slot);
  }
  w.bytes(stored.meta);
  return w.out;
}

std::optional<std::pair<std::string, StoredSnapshot>> decode_stored_snapshot(
    const std::vector<uint8_t>& blob) {
  Reader r{blob.data(), blob.data() + blob.size()};
  if (r.u32() != kMetaMagic || r.u32() != kMetaVersion) return std::nullopt;
  std::string key = r.str();
  StoredSnapshot stored;
  for (uint32_t i = 0, n = r.u32(); r.ok && i < n; ++i) {
    const uint32_t idx = r.u32();
    mem::PageStore::Key page_key;
    page_key.hash = r.u64();
    page_key.slot = r.u32();
    stored.pages.emplace_back(idx, page_key);
  }
  stored.meta = r.bytes();
  if (!r.ok) return std::nullopt;
  return std::make_pair(std::move(key), std::move(stored));
}

}  // namespace ptaint::core
