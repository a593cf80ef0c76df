// Verdict oracle: every served row must match a reference run of the same
// spec on the step engine without check elision, on verdict, stop reason,
// alert line and retired instruction count.  References run outside the
// timed windows, one per distinct reference key.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve_load.hpp"
#include "workloads.hpp"

namespace e2e {

struct OracleResult {
  uint64_t references = 0;   // reference runs made
  uint64_t checked = 0;      // rows compared
  uint64_t mismatches = 0;   // rows differing from their reference
  uint64_t failed_rows = 0;  // rows that ended in harness error or timeout
  std::vector<std::string> examples;  // first few mismatches, for the log
};

OracleResult check_rows(const SpecStream& stream, const std::vector<Row>& rows,
                        int threads);

}  // namespace e2e
