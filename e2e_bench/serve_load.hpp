// Load generation over the daemon's NDJSON socket protocol.
//
// Closed loop: `connections` client threads, each keeping one batch of
// streaming submits in flight, until the deadline.  Open loop: one sender
// thread submits single jobs on a fixed schedule, alternating over the
// connections, and one reader thread per connection collects the replies;
// each job's latency is timed from when it was due, so a stall is charged
// to every job it delays.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace e2e {

/// The fields of a verdict row the benchmark checks or aggregates.
struct Row {
  uint64_t index = 0;  // position in the spec stream
  std::string status, verdict, stop, alert;
  uint64_t instructions = 0;
  uint64_t dirty_pages = 0;
  double wall_ms = 0, build_ms = 0, restore_ms = 0, run_ms = 0, judge_ms = 0;
};

/// Parses a to_json_row object (bare or inside a verdict event).
Row parse_row(const std::string& json);

struct PhaseResult {
  uint64_t attempted = 0;  // jobs submitted
  uint64_t errors = 0;     // error replies, rejected or lost jobs
  double wall_s = 0.0;
  std::vector<Row> rows;
  /// Per row, seconds from the phase start: when the verdict arrived
  /// (closed loop) or when the job was due (open loop).
  std::vector<double> at_s;
  // Open loop only, one entry per verdict (ms).
  std::vector<double> latency_ms;  // verdict arrival - due time
  std::vector<double> ack_ms;      // accepted reply - send
  std::vector<double> outside_ms;  // verdict arrival - send - row wall_ms
  std::vector<double> lag_ms;      // send - due time, every job sent
};

/// Stops at the deadline or after `max_jobs` jobs (0 = no limit), and
/// waits for the batches in flight.
PhaseResult run_closed_loop(const std::string& socket, const SpecStream& stream,
                            uint64_t first_index, int batch, int connections,
                            double seconds, uint64_t max_jobs = 0);

PhaseResult run_open_loop(const std::string& socket, const SpecStream& stream,
                          uint64_t first_index, double rate, int connections,
                          double seconds);

/// Median round trip of `n` sequential pings on an idle connection (us).
double ping_rtt_us(const std::string& socket, int n);

/// One request/reply exchange (status, shutdown).
std::string request(const std::string& socket, const std::string& line);

double percentile(std::vector<double> v, double q);
double json_number(const std::string& json, const std::string& key);

}  // namespace e2e
