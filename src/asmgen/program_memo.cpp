#include "asmgen/program_memo.hpp"

#include <cstring>
#include <string>
#include <utility>

namespace ptaint::asmgen {

namespace {

// ---- code digest -----------------------------------------------------------

struct Fnv {
  uint64_t h = 14695981039346656037ull;
  void mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

/// The deleter share() installs; its only job beyond deleting is to carry
/// the digest, which std::get_deleter recovers from any copy of the pointer.
struct DigestStamp {
  uint64_t digest = 0;
  void operator()(const Program* program) const { delete program; }
};

// ---- source digest ---------------------------------------------------------

constexpr uint64_t rotl(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

constexpr uint64_t fmix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Two independently mixed 64-bit lanes over the sources, eight bytes at a
/// time: a 128-bit key, so a collision between two source sets is not a
/// practical concern for an in-process memo.
struct SourceDigest {
  uint64_t a = 0x9e3779b97f4a7c15ull;
  uint64_t b = 0x6a09e667f3bcc909ull;

  void word(uint64_t w) {
    a = rotl(a ^ (w * 0x87c37b91114253d5ull), 31) * 0x4cf5ad432745937full;
    b = rotl(b + (w ^ 0x52dce729da3ed0f3ull), 29) * 0x9e3779b97f4a7c15ull +
        0x165667b19e3779f9ull;
  }
  void bytes(const std::string& s) {
    word(s.size());
    size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) {
      uint64_t w;
      std::memcpy(&w, s.data() + i, 8);
      word(w);
    }
    uint64_t tail = 0;
    std::memcpy(&tail, s.data() + i, s.size() - i);
    word(tail);
  }
  std::pair<uint64_t, uint64_t> finish() const {
    return {fmix(a ^ rotl(b, 17)), fmix(b ^ rotl(a, 43))};
  }
};

std::pair<uint64_t, uint64_t> source_key(const std::vector<Source>& sources) {
  SourceDigest d;
  d.word(sources.size());
  for (const Source& s : sources) {
    d.bytes(s.name);
    d.bytes(s.text);
  }
  return d.finish();
}

}  // namespace

uint64_t code_digest(const Program& program) {
  Fnv f;
  f.mix(program.entry);
  f.mix(program.text.size());
  for (uint32_t w : program.text) f.mix(w);
  // Label placement shapes the recovered CFG (leaders, indirect-jump
  // fanout, function attribution); names never reach the analyses.
  f.mix(program.text_labels.size());
  for (const auto& [pc, name] : program.text_labels) f.mix(pc);
  f.mix(program.function_labels.size());
  for (const auto& [pc, name] : program.function_labels) f.mix(pc);
  return f.h;
}

uint64_t code_digest(const std::shared_ptr<const Program>& program) {
  if (const DigestStamp* stamp = std::get_deleter<DigestStamp>(program)) {
    return stamp->digest;
  }
  return code_digest(*program);
}

std::shared_ptr<const Program> share(Program program) {
  const uint64_t digest = code_digest(program);
  return std::shared_ptr<const Program>(new Program(std::move(program)),
                                        DigestStamp{digest});
}

// ---- memo ------------------------------------------------------------------

ProgramMemo& ProgramMemo::instance() {
  static ProgramMemo memo;
  return memo;
}

ProgramMemoStats ProgramMemo::stats() const {
  const auto s = memo_.stats();
  return {s.lookups, s.hits, s.builds, s.evictions, s.entries};
}

std::shared_ptr<const Program> ProgramMemo::assemble(
    const std::vector<Source>& sources) {
  return memo_.get(source_key(sources),
                   [&] { return share(asmgen::assemble(sources)); });
}

}  // namespace ptaint::asmgen
