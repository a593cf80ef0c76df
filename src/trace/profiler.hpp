// Per-function execution profiler (sim-profile style): attributes every
// retired instruction to the enclosing guest function, giving the hot-spot
// breakdown the paper-era SimpleScalar tooling provided.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asmgen/assembler.hpp"
#include "isa/isa.hpp"

namespace ptaint::trace {

class Profiler {
 public:
  /// The program slot supplies the function-label map; the profiler reads
  /// whatever program it currently holds (a machine swaps it on load and
  /// restore), so the slot must outlive the profiler and never be null.
  explicit Profiler(const std::shared_ptr<const asmgen::Program>& program);

  void record(uint32_t pc);

  struct Row {
    std::string function;
    uint64_t instructions = 0;
    double share = 0.0;  // of all retired instructions
  };

  /// Rows sorted by instruction count, descending.
  std::vector<Row> hottest(size_t max_rows = 16) const;

  uint64_t total() const { return total_; }

  /// Formats a flat profile table.
  std::string format(size_t max_rows = 16) const;

  /// Drops all counts (machine restore support).
  void reset() {
    counts_.clear();
    total_ = 0;
    cached_begin_ = cached_end_ = 0;
    cached_count_ = nullptr;
  }

 private:
  const std::shared_ptr<const asmgen::Program>& program_;
  // Counts keyed by function start address (resolved lazily to names).
  std::map<uint32_t, uint64_t> counts_;
  uint64_t total_ = 0;
  // One-entry cache: retirement is strongly local.
  uint32_t cached_begin_ = 0;
  uint32_t cached_end_ = 0;
  uint64_t* cached_count_ = nullptr;
};

}  // namespace ptaint::trace
