#include "trace/profiler.hpp"

#include <algorithm>
#include <cstdio>

namespace ptaint::trace {

Profiler::Profiler(const std::shared_ptr<const asmgen::Program>& program)
    : program_(program) {}

void Profiler::record(uint32_t pc) {
  ++total_;
  if (cached_count_ && pc >= cached_begin_ && pc < cached_end_) {
    ++*cached_count_;
    return;
  }
  // Find the enclosing function span in the sorted label list.
  const auto& labels = program_->function_labels;
  uint32_t begin = 0;
  uint32_t end = 0xffffffff;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i].first > pc) {
      end = labels[i].first;
      break;
    }
    begin = labels[i].first;
  }
  cached_begin_ = begin;
  cached_end_ = end;
  cached_count_ = &counts_[begin];
  ++*cached_count_;
}

std::vector<Profiler::Row> Profiler::hottest(size_t max_rows) const {
  std::vector<Row> rows;
  rows.reserve(counts_.size());
  for (const auto& [addr, count] : counts_) {
    Row row;
    row.function = program_->symbol_for(addr);
    if (row.function.empty()) row.function = "<unknown>";
    row.instructions = count;
    row.share = total_ == 0 ? 0.0 : static_cast<double>(count) / total_;
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.instructions > b.instructions;
  });
  if (rows.size() > max_rows) rows.resize(max_rows);
  return rows;
}

std::string Profiler::format(size_t max_rows) const {
  std::string out;
  char line[96];
  std::snprintf(line, sizeof line, "%-20s %14s %8s\n", "function",
                "instructions", "share");
  out += line;
  for (const Row& row : hottest(max_rows)) {
    std::snprintf(line, sizeof line, "%-20s %14llu %7.2f%%\n",
                  row.function.c_str(),
                  static_cast<unsigned long long>(row.instructions),
                  100.0 * row.share);
    out += line;
  }
  return out;
}

}  // namespace ptaint::trace
