// bench_e2e: served-job throughput and latency of an in-process ptaint-serve
// daemon, driven through the real NDJSON socket protocol (README.md).
//
//   bench_e2e --workload W --seed N --seconds S [--trace 0|1]
//             [--setup-only] [--run-dir DIR] [--rev REV]
//
// Untraced (--trace 0): set-up (daemon start, corpus memoisation, warm-up),
// an open-loop phase at the workload's fixed offered rate, then a
// closed-loop phase; end-to-end metrics.  Traced (--trace 1): an open-loop
// phase for the socket-side numbers and the daemon's counters, then an
// interleaved untraced/traced in-process replay of the served jobs plus
// first-sight probes; per-layer metrics.  Either way every verdict row is
// checked against a step-engine reference run.  The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics", "host", ...}.
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/report.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "serve/server.hpp"
#include "serve_load.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using e2e::percentile;

constexpr int kShards = 2;
constexpr int kConnections = 2;
/// Untraced runs split --seconds between the open and the closed loop.
constexpr double kOpenShare = 0.45;
constexpr double kClosedShare = 0.55;
/// An open loop whose sends ran late by more than one send interval (and at
/// least this) at p99 did not offer the load it claims; the run is marked
/// invalid in its result.
constexpr double kMinLagBoundMs = 0.5;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string run_dir = ".";
  std::string rev = "unknown";
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "bench_e2e: %s\n", msg);
  std::exit(4);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      o.trace = value() != "0";
    } else if (arg == "--setup-only") {
      o.setup_only = true;
    } else if (arg == "--run-dir") {
      o.run_dir = value();
    } else if (arg == "--rev") {
      o.rev = value();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0.0)) usage("--seconds must be positive");
  return o;
}

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Phases are cut into equal time segments.  Host interference (a stall, a
/// burst of hypervisor steal) only ever slows the program down, so a phase
/// reports its fast quartile: the upper quartile of the segments' rates and
/// the lower quartile of the segments' latencies.  A slowdown of the program
/// itself moves every segment; steal that hits up to three quarters of them
/// barely moves the reported value.  The open loop gets one segment per
/// ~200 latency samples (about 100 ms on attack-warm), at least 7.
constexpr int kClosedSegments = 11;
constexpr double kFastQuartile = 0.25;
/// Caps the traced replay (~13 spans a job) so a fast workload's span file
/// stays a few MB.
constexpr uint64_t kMaxReplayJobs = 4000;

int open_segments(size_t samples) {
  const int n = static_cast<int>(std::clamp<size_t>(samples / 200, 7, 255));
  return n | 1;
}

/// Rows bucketed by their phase time `at_s` into `segments` equal parts of
/// [0, window_s); rows outside the window are left out.
std::vector<std::vector<size_t>> segment_rows(const std::vector<double>& at_s,
                                              double window_s, int segments) {
  std::vector<std::vector<size_t>> out(static_cast<size_t>(segments));
  for (size_t i = 0; i < at_s.size(); ++i) {
    const double k = at_s[i] / window_s * segments;
    if (k >= 0.0 && k < segments) out[static_cast<size_t>(k)].push_back(i);
  }
  return out;
}

/// Upper quartile over segments of the per-second rate of `weight(row)`.
template <typename F>
double segment_rate(const char* name, const e2e::PhaseResult& p,
                    double window_s, int segments, F weight) {
  std::vector<double> rates;
  for (const auto& rows : segment_rows(p.at_s, window_s, segments)) {
    double sum = 0.0;
    for (size_t i : rows) sum += weight(p.rows[i]);
    rates.push_back(sum / (window_s / segments));
  }
  std::fprintf(stderr, "%s per segment:", name);
  for (double r : rates) std::fprintf(stderr, " %.4g", r);
  std::fprintf(stderr, "\n");
  return percentile(rates, 1.0 - kFastQuartile);
}

/// Lower quartile over segments of the q-quantile of open-loop latency.
double segment_latency(const e2e::PhaseResult& p, double window_s,
                       int segments, double q) {
  std::vector<double> per_segment;
  for (const auto& rows : segment_rows(p.at_s, window_s, segments)) {
    std::vector<double> ms;
    for (size_t i : rows) ms.push_back(p.latency_ms[i]);
    if (!ms.empty()) per_segment.push_back(percentile(ms, q));
  }
  std::fprintf(stderr, "latency_p%.0f_ms per segment:", q * 100);
  for (double ms : per_segment) std::fprintf(stderr, " %.4g", ms);
  std::fprintf(stderr, "\n");
  return percentile(per_segment, kFastQuartile);
}

std::string proc_field(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      const size_t begin = line.find_first_not_of(" \t", colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "";
}

/// Hypervisor steal as a share of all CPU time between two readings of
/// /proc/stat's "cpu" line: context for a noisy run.
struct CpuTimes {
  double steal = 0.0;
  double total = 0.0;
};

CpuTimes cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTimes t;
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double peak_rss_mib() {
  return std::strtod(proc_field("/proc/self/status", "VmHWM").c_str(),
                     nullptr) /
         1024.0;
}

std::string json_str(const std::string& s) {
  return "\"" + ptaint::campaign::json_escape(s) + "\"";
}

std::string host_json(const Options& o) {
  std::ostringstream ss;
  ss << "{\"cpu\": " << json_str(proc_field("/proc/cpuinfo", "model name"))
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_str(E2E_COMPILER)
     << ", \"build_type\": " << json_str(E2E_BUILD_TYPE)
     << ", \"rev\": " << json_str(o.rev) << ", \"workload\": "
     << json_str(o.workload) << ", \"seed\": " << o.seed
     << ", \"seconds\": " << o.seconds << "}";
  return ss.str();
}

/// A scratch directory for the socket and journal, removed on every exit
/// path.  The process works inside it, so the socket path stays short.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/run.XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp: " + std::string(std::strerror(errno)));
    }
    path_ = std::filesystem::absolute(tmpl).string();
    old_cwd_ = std::filesystem::current_path();
    std::filesystem::current_path(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::current_path(old_cwd_, ec);
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  std::string path_;
  std::filesystem::path old_cwd_;
};

/// The status reply's object following `"key": `, for counters whose names
/// repeat across sections.
std::string section(const std::string& status, const std::string& key) {
  const size_t p = status.find("\"" + key + "\": {");
  return p == std::string::npos ? "" : status.substr(p);
}

/// Self time per span: its duration minus the time its children cover.
/// Children of one span never overlap in the single-threaded replay.
std::vector<double> self_us(const std::vector<e2e::Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e3;
  }
  for (const e2e::Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<size_t>(s.parent)] -=
          static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    }
  }
  return self;
}

std::string layer_of(const std::string& name) {
  if (name == "job") return "unattributed";
  return name.substr(0, name.find('.'));
}

struct Served {
  e2e::PhaseResult warm, closed, open;
  double setup_s = 0.0;
  double rss_mib = 0.0;
  double rtt_us = 0.0;
  std::string status;
  uint64_t next_index = 0;
};

/// Starts the daemon, warms it, runs the timed phases the mode asks for,
/// then shuts it down.
Served serve(const Options& o, const e2e::Workload& w,
             const e2e::SpecStream& stream) {
  Served s;
  const auto setup_start = Clock::now();
  ptaint::serve::ServeDaemon::Config config;
  config.socket_path = "d.sock";
  config.journal_path = "d.journal";
  config.workers = kShards;
  config.snapshot_store = w.snapshot_store;
  ptaint::serve::ServeDaemon daemon(config);
  daemon.start();
  const uint64_t warm_jobs =
      stream.round_size() * static_cast<uint64_t>(w.warmup_rounds);
  s.warm = e2e::run_closed_loop(config.socket_path, stream, 0, w.closed_batch,
                                kConnections, 1e9, warm_jobs);
  s.next_index = s.warm.attempted;
  s.setup_s = seconds_since(setup_start);

  if (!o.setup_only && !o.trace) {
    // The open loop serves a fixed number of jobs, so the memory peak read
    // after it does not grow with throughput (session-cold's snapshot cache
    // keeps every boot it inserts).
    s.open = e2e::run_open_loop(config.socket_path, stream, s.next_index,
                                w.open_rate, kConnections,
                                kOpenShare * o.seconds);
    s.next_index += s.open.attempted;
    s.rss_mib = peak_rss_mib();
    s.closed = e2e::run_closed_loop(config.socket_path, stream, s.next_index,
                                    w.closed_batch, kConnections,
                                    kClosedShare * o.seconds);
    s.next_index += s.closed.attempted;
  } else if (o.trace) {
    s.rtt_us = e2e::ping_rtt_us(config.socket_path, 200);
    s.open = e2e::run_open_loop(config.socket_path, stream, s.next_index,
                                w.open_rate, kConnections, 0.4 * o.seconds);
    s.next_index += s.open.attempted;
    s.status = e2e::request(config.socket_path, "{\"cmd\": \"status\"}");
  }
  e2e::request(config.socket_path, "{\"cmd\": \"shutdown\"}");
  daemon.wait();
  return s;
}

void add_traced_metrics(std::vector<Metric>& m, const Served& s,
                        const e2e::ReplayResult& replay,
                        const e2e::SpanLog& log) {
  const auto& spans = log.spans();
  const std::vector<double> self = self_us(spans);
  std::map<std::string, std::vector<double>> dur_us;
  std::vector<double> insert_us;
  std::vector<bool> has_child(spans.size());
  for (const e2e::Span& sp : spans) {
    if (sp.parent >= 0) has_child[static_cast<size_t>(sp.parent)] = true;
  }
  std::map<std::string, double> layer_self;
  double job_us = 0.0, build_us = 0.0, restore_us = 0.0, run_us = 0.0;
  uint64_t jobs = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const e2e::Span& sp = spans[i];
    const double d = static_cast<double>(sp.end_ns - sp.start_ns) / 1e3;
    dur_us[std::string(sp.name)].push_back(d);
    if (sp.name == "campaign.build" && has_child[i]) insert_us.push_back(self[i]);
    if (sp.job == 0) continue;  // probes: not part of any job's time
    layer_self[layer_of(std::string(sp.name))] += self[i];
    if (sp.name == "job") {
      job_us += d;
      ++jobs;
    } else if (sp.name == "campaign.build") {
      build_us += d;
    } else if (sp.name == "core.restore") {
      restore_us += d;
    } else if (sp.name == "cpu.run") {
      run_us += d;
    }
  }
  auto median = [&](const char* name) { return percentile(dur_us[name], 0.5); };
  auto share = [&](double us) { return 100.0 * ratio(us, job_us); };
  auto per_job = [&](double us) { return ratio(us, static_cast<double>(jobs)); };

  std::vector<double> row_ms[4], dirty;
  for (const e2e::Row& r : s.open.rows) {
    row_ms[0].push_back(r.build_ms);
    row_ms[1].push_back(r.restore_ms);
    row_ms[2].push_back(r.run_ms);
    row_ms[3].push_back(r.judge_ms);
    dirty.push_back(static_cast<double>(r.dirty_pages));
  }
  std::vector<double> wait_ms;
  for (size_t i = 0; i < s.open.outside_ms.size(); ++i) {
    wait_ms.push_back(s.open.outside_ms[i] - s.open.ack_ms[i]);
  }
  const std::string& st = s.status;
  const std::string snap = section(st, "snapshot_cache");
  const std::string store = section(st, "store");
  const std::string analysis = section(st, "analysis_cache");
  using e2e::json_number;
  const double snap_lookups =
      json_number(snap, "hits") + json_number(snap, "misses");
  const double builds = json_number(st, "machine_builds");
  const double reuses = json_number(st, "machine_reuses");
  const e2e::EngineTotals& e = replay.engines;

  m.push_back({"serve.rtt_us", s.rtt_us, "us"});
  m.push_back({"serve.ack_ms.p50", percentile(s.open.ack_ms, 0.5), "ms"});
  m.push_back({"serve.outside_job_ms.p50", percentile(s.open.outside_ms, 0.5),
               "ms"});
  m.push_back({"json.parse_us", median("serve.parse"), "us"});
  m.push_back({"queue.submit_us", median("serve.queue_submit"), "us"});
  m.push_back({"queue.complete_us", median("serve.queue_complete"), "us"});
  m.push_back({"queue.wait_ms.p50", percentile(wait_ms, 0.5), "ms"});
  m.push_back({"judge.jobs_per_batch",
               ratio(json_number(st, "jobs_done"),
                     json_number(st, "judge_batches")),
               "count"});
  m.push_back({"campaign.make_job_us", median("campaign.make_job"), "us"});
  m.push_back({"campaign.build_ms", mean(row_ms[0]), "ms"});
  m.push_back({"campaign.restore_ms", mean(row_ms[1]), "ms"});
  m.push_back({"campaign.run_ms", mean(row_ms[2]), "ms"});
  m.push_back({"campaign.judge_ms", mean(row_ms[3]), "ms"});
  m.push_back({"report.row_us", median("campaign.row"), "us"});
  m.push_back({"snapcache.hit_ratio",
               ratio(json_number(snap, "hits"), snap_lookups), "ratio"});
  m.push_back({"snapcache.lookups", snap_lookups, "count"});
  m.push_back({"snapcache.insert_us", percentile(insert_us, 0.5), "us"});
  m.push_back({"pool.reuse_ratio", ratio(reuses, builds + reuses), "ratio"});
  m.push_back({"guest.link_us", median("guest.link"), "us"});
  m.push_back({"asmgen.assemble_ms", median("asmgen.assemble") / 1e3, "ms"});
  m.push_back({"core.load_ms", median("core.load") / 1e3, "ms"});
  m.push_back({"core.snapshot_us", median("core.snapshot"), "us"});
  m.push_back({"analysis.cold_ms", median("analysis.cold") / 1e3, "ms"});
  m.push_back({"analysis.hit_us", median("analysis.hit"), "us"});
  m.push_back({"analysis.cold_misses", json_number(analysis, "cold_misses"),
               "count"});
  m.push_back({"analysis.hits", json_number(analysis, "hits"), "count"});
  m.push_back({"mem.dirty_pages", mean(dirty), "count"});
  m.push_back({"mem.cow_copy_us", median("mem.cow_copy"), "us"});
  m.push_back({"store.dedup_ratio",
               ratio(json_number(store, "interned_refs"),
                     json_number(store, "canonical_pages")),
               "ratio"});
  m.push_back({"store.compression_ratio",
               ratio(json_number(store, "uncompressed_bytes"),
                     json_number(store, "compressed_bytes")),
               "ratio"});
  m.push_back({"cpu.superblock.minst_per_s",
               ratio(static_cast<double>(e.superblock_instructions),
                     e.superblock_run_ms * 1e3),
               "Minst/s"});
  m.push_back({"cpu.jit.minst_per_s",
               ratio(static_cast<double>(e.jit_instructions),
                     e.jit_run_ms * 1e3),
               "Minst/s"});
  m.push_back({"cpu.superblock.step_fallback_ratio",
               ratio(static_cast<double>(e.step_retired),
                     static_cast<double>(e.step_retired + e.block_retired)),
               "ratio"});
  m.push_back({"cpu.jit.host_ratio",
               ratio(static_cast<double>(e.host_retired),
                     static_cast<double>(e.jit_instructions)),
               "ratio"});
  m.push_back({"cpu.jit.blocks_compiled",
               static_cast<double>(e.blocks_compiled), "count"});
  m.push_back({"cpu.jit.bailouts", static_cast<double>(e.bailouts), "count"});
  m.push_back({"loadgen.lag_ms.p99", percentile(s.open.lag_ms, 0.99), "ms"});
  m.push_back({"loadgen.latency_ms.p99", percentile(s.open.latency_ms, 0.99),
               "ms"});
  m.push_back({"trace.overhead_pct",
               100.0 * (ratio(replay.traced_job_us, replay.untraced_job_us) -
                        1.0),
               "%"});
  m.push_back({"trace.job_us", per_job(job_us), "us"});
  for (const char* layer : {"serve", "campaign", "core", "cpu"}) {
    m.push_back({std::string("self.") + layer + "_us",
                 per_job(layer_self[layer]), "us"});
  }
  m.push_back({"share.serve_pct", share(layer_self["serve"]), "%"});
  m.push_back({"share.build_pct", share(build_us), "%"});
  m.push_back({"share.restore_pct", share(restore_us), "%"});
  m.push_back({"share.run_pct", share(run_us), "%"});
  m.push_back({"trace.unattributed_pct", share(layer_self["unattributed"]),
               "%"});

  std::fprintf(stderr, "\nlayer self time per traced job (%llu jobs, "
               "%.1f us each):\n", static_cast<unsigned long long>(jobs),
               per_job(job_us));
  for (const auto& [layer, us] : layer_self) {
    std::fprintf(stderr, "  %-13s %10.2f us  %5.1f%%\n", layer.c_str(),
                 per_job(us), share(us));
  }
}

int run(const Options& o) {
  const e2e::Workload w = e2e::make_workload(o.workload);
  const e2e::SpecStream stream(w, o.seed);
  std::filesystem::create_directories(o.run_dir);
  const std::string run_dir = std::filesystem::absolute(o.run_dir).string();
  ScratchDir scratch(run_dir + "/tmp");

  const CpuTimes cpu_before = cpu_times();
  const Served s = serve(o, w, stream);
  std::vector<Metric> metrics;
  std::vector<e2e::Row> rows = s.warm.rows;
  uint64_t attempted = s.warm.attempted;
  uint64_t errors = s.warm.errors;
  bool trace_written = true;
  std::string notes;
  const double lag_p99 = percentile(s.open.lag_ms, 0.99);
  const bool valid =
      lag_p99 <= std::max(kMinLagBoundMs, 1e3 / w.open_rate);

  if (o.setup_only) {
    metrics.push_back({"setup_s", s.setup_s, "s"});
  } else if (!o.trace) {
    for (const auto* phase : {&s.closed, &s.open}) {
      rows.insert(rows.end(), phase->rows.begin(), phase->rows.end());
      attempted += phase->attempted;
      errors += phase->errors;
    }
    const double closed_s = kClosedShare * o.seconds;
    const double open_s = kOpenShare * o.seconds;
    metrics.push_back(
        {"jobs_per_s",
         segment_rate("jobs_per_s", s.closed, closed_s, kClosedSegments,
                      [](const e2e::Row&) { return 1.0; }),
         "jobs/s"});
    metrics.push_back(
        {"guest_minst_per_s",
         segment_rate("guest_minst_per_s", s.closed, closed_s,
                      kClosedSegments, [](const e2e::Row& r) {
                        return static_cast<double>(r.instructions) / 1e6;
                      }),
         "Minst/s"});
    const int segments = open_segments(s.open.latency_ms.size());
    metrics.push_back({"latency_p50_ms",
                       segment_latency(s.open, open_s, segments, 0.50), "ms"});
    std::fprintf(stderr, "latency_p99_ms over the open loop: %.4g\n",
                 percentile(s.open.latency_ms, 0.99));
    metrics.push_back({"setup_s", s.setup_s, "s"});
    metrics.push_back({"peak_rss_mib", s.rss_mib, "MiB"});
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "closed %zu jobs in %.2fs (batch %d x %d connections); "
                  "open %zu jobs at %.0f/s, lag p99 %.3f ms",
                  s.closed.rows.size(), s.closed.wall_s, w.closed_batch,
                  kConnections, s.open.rows.size(), w.open_rate, lag_p99);
    notes = buf;
  } else {
    rows.insert(rows.end(), s.open.rows.begin(), s.open.rows.end());
    attempted += s.open.attempted;
    errors += s.open.errors;
    // Replay the served open-loop jobs; the warm pass uses a disjoint part
    // of the stream so first-sight jobs stay first-sight.
    const uint64_t first = s.next_index - s.open.attempted;
    const uint64_t warm = 1ULL << 40;
    e2e::SpanLog log;
    const e2e::ReplayResult replayed =
        e2e::replay(w, stream, first, warm, 0.5 * o.seconds,
                    kMaxReplayJobs, log);
    e2e::probe_first_sight(w, 3, log);
    rows.insert(rows.end(), replayed.rows.begin(), replayed.rows.end());
    attempted += replayed.rows.size();
    add_traced_metrics(metrics, s, replayed, log);
    const std::string trace_path = run_dir + "/trace-" + o.workload +
                                   "-seed" + std::to_string(o.seed) +
                                   ".jsonl";
    if (!log.write_jsonl(trace_path)) {
      std::fprintf(stderr, "bench_e2e: cannot write %s\n", trace_path.c_str());
      trace_written = false;
    }
    notes = "spans: " + trace_path;
  }

  const e2e::OracleResult oracle = e2e::check_rows(
      stream, rows, static_cast<int>(std::max(
                        1u, std::min(4u, std::thread::hardware_concurrency()))));
  errors += oracle.mismatches + oracle.failed_rows;
  for (const std::string& ex : oracle.examples) {
    std::fprintf(stderr, "bench_e2e: verdict mismatch: %s\n", ex.c_str());
  }
  if (!o.trace && !o.setup_only) {
    metrics.push_back(
        {"success_ratio",
         1.0 - ratio(static_cast<double>(errors), static_cast<double>(attempted)),
         "ratio"});
  }
  const bool correct = trace_written && oracle.mismatches == 0 && errors == 0;
  const CpuTimes cpu_after = cpu_times();
  const double steal_pct = 100.0 * ratio(cpu_after.steal - cpu_before.steal,
                                         cpu_after.total - cpu_before.total);
  if (!valid) {
    std::fprintf(stderr, "bench_e2e: INVALID run: open-loop send lag p99 "
                 "%.3f ms exceeds its bound\n", lag_p99);
  }

  std::fprintf(stderr, "\n%s  seed %llu  %s\n", o.workload.c_str(),
               static_cast<unsigned long long>(o.seed), notes.c_str());
  std::fprintf(stderr, "oracle: %llu rows vs %llu step-engine references, "
               "%llu mismatches, %llu failed rows\n",
               static_cast<unsigned long long>(oracle.checked),
               static_cast<unsigned long long>(oracle.references),
               static_cast<unsigned long long>(oracle.mismatches),
               static_cast<unsigned long long>(oracle.failed_rows));
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << errors
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::fprintf(stderr, "  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (i ? ", " : "") << json_str(m.name) << ": {\"value\": " << value
        << ", \"unit\": " << json_str(m.unit) << "}";
  }
  char tail[128];
  std::snprintf(tail, sizeof tail,
                ", \"valid\": %s, \"lag_p99_ms\": %.4f, \"steal_pct\": %.2f",
                valid ? "true" : "false", lag_p99, steal_pct);
  out << "}, \"host\": " << host_json(o) << tail << "}";
  std::printf("%s\n", out.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 3;
  }
}
