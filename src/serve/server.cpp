#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "analysis/summary_cache.hpp"
#include "campaign/campaigns.hpp"
#include "campaign/report.hpp"
#include "serve/json.hpp"

namespace ptaint::serve {

using campaign::json_escape;

namespace {

/// Writes one protocol line (terminator appended).  MSG_NOSIGNAL: a peer
/// that hung up must surface as an error here, not as SIGPIPE.
bool write_line(int fd, const std::string& line) {
  std::string out = line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + off, out.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one newline-terminated line into `line`; false on EOF/error.
bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    buffer.append(chunk, static_cast<size_t>(n));
  }
}

std::string error_line(const std::string& message) {
  return "{\"event\": \"error\", \"message\": \"" + json_escape(message) +
         "\"}";
}

std::string verdict_line(uint64_t id, const std::string& row) {
  return "{\"event\": \"verdict\", \"id\": " + std::to_string(id) +
         ", \"result\": " + row + "}";
}

/// Config flags layered over the environment: either source attaches the
/// store, an explicit --snapshot-dir wins over PTAINT_SNAPSHOT_DIR.
campaign::StoreOptions resolve_store(const ServeDaemon::Config& config) {
  campaign::StoreOptions opts = campaign::StoreOptions::from_env();
  if (config.snapshot_store) opts.enabled = true;
  if (!config.snapshot_dir.empty()) {
    opts.enabled = true;
    opts.disk_dir = config.snapshot_dir;
  }
  return opts;
}

}  // namespace

ServeDaemon::ServeDaemon(Config config)
    : config_(std::move(config)), cache_(resolve_store(config_)) {}

ServeDaemon::~ServeDaemon() {
  if (running_.load()) stop();
  wait();
}

void ServeDaemon::start() {
  queue_ = std::make_unique<JobQueue>(
      JobQueue::Config{config_.journal_path, config_.tenant_quota});
  if (config_.workers < 1) config_.workers = 1;

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (config_.socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + config_.socket_path);
  }
  std::strncpy(addr.sun_path, config_.socket_path.c_str(),
               sizeof addr.sun_path - 1);
  ::unlink(config_.socket_path.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
      0) {
    throw std::runtime_error("bind " + config_.socket_path + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) < 0) {
    throw std::runtime_error(std::string("listen: ") + std::strerror(errno));
  }

  running_.store(true);
  active_workers_.store(config_.workers);
  for (int i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this]() { worker_main(); });
  }
  judge_ = std::thread([this]() { judge_main(); });
  listener_ = std::thread([this]() { listener_main(); });
}

void ServeDaemon::stop() {
  if (!running_.exchange(false)) {
    if (queue_) queue_->stop();
    return;
  }
  queue_->stop();
  // Unblocks accept() on Linux (returns EINVAL); the fd itself is closed
  // in wait() after the listener thread is joined.
  ::shutdown(listen_fd_, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (auto& [serial, conn] : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  {
    std::lock_guard<std::mutex> lock(subs_mutex_);
    for (auto& [id, sink] : subs_) {
      std::lock_guard<std::mutex> sl(sink->mutex);
      sink->dead = true;
      sink->cv.notify_all();
    }
  }
  judge_cv_.notify_all();
}

void ServeDaemon::wait() {
  if (listener_.joinable()) listener_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  if (judge_.joinable()) judge_.join();
  // Handlers exit once their fd is shut down; entries stay until here so
  // fd reuse can never alias a live map key.
  for (;;) {
    std::map<uint64_t, Conn> conns;
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns.swap(conns_);
    }
    if (conns.empty()) break;
    for (auto& [serial, conn] : conns) {
      if (conn.thread.joinable()) conn.thread.join();
    }
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(config_.socket_path.c_str());
  }
  // Make every queued page/blob durable before the process exits, so a
  // restarted daemon's disk scan sees the full warm set.
  cache_.flush_disk();
}

ServeDaemon::Stats ServeDaemon::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

uint64_t ServeDaemon::replayed() const {
  return queue_ ? queue_->status().replayed : 0;
}

void ServeDaemon::listener_main() {
  uint64_t serial = 0;
  while (running_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (!running_.load()) return;
      continue;
    }
    std::lock_guard<std::mutex> lock(conns_mutex_);
    const uint64_t key = serial++;
    Conn& conn = conns_[key];
    conn.fd = fd;
    conn.thread = std::thread([this, fd, key]() {
      connection_main(fd);
      std::lock_guard<std::mutex> l(conns_mutex_);
      auto it = conns_.find(key);
      if (it != conns_.end()) it->second.fd = -1;  // closed; don't re-shutdown
      ::close(fd);
    });
  }
}

void ServeDaemon::connection_main(int fd) {
  std::string buffer, line;
  auto sink = std::make_shared<StreamSink>();
  std::vector<uint64_t> subscribed;

  auto drain_stream = [&]() -> bool {
    // Write subscribed events as the judge publishes them, until every
    // awaited id has reported (or the connection/daemon died).
    for (;;) {
      std::deque<std::string> lines;
      bool done = false;
      {
        std::unique_lock<std::mutex> sl(sink->mutex);
        sink->cv.wait(sl, [&]() {
          return !sink->lines.empty() || sink->awaiting == 0 || sink->dead;
        });
        lines.swap(sink->lines);
        done = (sink->awaiting == 0 && lines.empty()) || sink->dead;
      }
      for (const std::string& l : lines) {
        if (!write_line(fd, l)) return false;
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.events_streamed;
      }
      if (done) return true;
    }
  };

  while (read_line(fd, buffer, line)) {
    if (line.empty()) continue;
    JsonValue req;
    try {
      req = JsonValue::parse(line);
    } catch (const JsonError& e) {
      if (!write_line(fd, error_line(std::string("bad request: ") + e.what())))
        return;
      continue;
    }
    const std::string cmd = req.get_string("cmd");
    std::string reply;
    bool stream = false;
    try {
      if (cmd == "submit") {
        stream = req.get_bool("stream");
        reply = handle_submit(req, stream ? sink : nullptr, subscribed);
      } else if (cmd == "status") {
        reply = handle_status();
      } else if (cmd == "result") {
        reply = handle_result(req);
      } else if (cmd == "cancel") {
        reply = handle_cancel(req);
      } else if (cmd == "drain") {
        reply = handle_drain();
      } else if (cmd == "ping") {
        reply = "{\"event\": \"pong\"}";
      } else if (cmd == "shutdown") {
        write_line(fd, "{\"event\": \"bye\"}");
        stop();
        break;
      } else {
        reply = error_line("unknown cmd: " + cmd);
      }
    } catch (const QuotaError& e) {
      reply = error_line(e.what());
    } catch (const std::exception& e) {
      reply = error_line(e.what());
    }
    if (!write_line(fd, reply)) break;
    if (stream && !drain_stream()) break;
  }

  // Unregister any ids still pointing at this connection's sink, so the
  // judge stops buffering events nobody will read.
  if (!subscribed.empty()) {
    std::lock_guard<std::mutex> lock(subs_mutex_);
    for (uint64_t id : subscribed) {
      auto it = subs_.find(id);
      if (it != subs_.end() && it->second == sink) subs_.erase(it);
    }
  }
}

campaign::Job ServeDaemon::build_job(const JobSpec& spec) {
  std::optional<cpu::Engine> engine;
  if (!spec.engine.empty()) {
    engine = cpu::parse_engine(spec.engine);
    if (!engine) throw std::invalid_argument("unknown engine: " + spec.engine);
  }
  campaign::Job job;
  if (spec.app == "guest") {
    job = campaign::make_session_job(spec.payload, spec.session,
                                     spec.stdin_text, spec.policy, cache_,
                                     spec.elide, engine);
  } else {
    job = campaign::make_cell_job({spec.app, spec.payload, spec.policy},
                                  cache_, config_.spec_scale, spec.elide,
                                  engine);
  }
  if (spec.max_instructions != 0) job.max_instructions = spec.max_instructions;
  job.timeout = std::chrono::milliseconds(
      spec.timeout_ms != 0 ? spec.timeout_ms : config_.default_timeout_ms);
  // A shard briefly descheduled under load is not a verdict; each attempt
  // gets the full deadline, bounded by the worker's single retry.
  job.retry_on_timeout = true;
  return job;
}

void ServeDaemon::worker_main() {
  campaign::MachinePool machines;
  const campaign::WorkerConfig worker_config{config_.slice_instructions,
                                             /*max_retries=*/1};
  while (auto acquired = queue_->acquire()) {
    campaign::JobResult result;
    try {
      const campaign::Job job = build_job(acquired->spec);
      result = campaign::run_job(job, acquired->id, worker_config, machines,
                                 fork_counters_);
    } catch (const std::exception& e) {
      // The spec itself was unbuildable (unknown payload/policy/engine):
      // report it as a harness error verdict, never kill the shard.
      result.index = acquired->id;
      result.app = acquired->spec.app;
      result.payload = acquired->spec.payload;
      result.policy = acquired->spec.policy;
      result.attempts = 1;
      result.status = campaign::JobStatus::kHarnessError;
      result.error = e.what();
    }
    finish_job(acquired->id, std::move(result));
  }
  if (active_workers_.fetch_sub(1) == 1) judge_cv_.notify_all();
}

void ServeDaemon::finish_job(uint64_t id, campaign::JobResult result) {
  {
    std::lock_guard<std::mutex> lock(judge_mutex_);
    judge_queue_.push_back(Finished{id, std::move(result)});
  }
  judge_cv_.notify_one();
}

void ServeDaemon::judge_main() {
  const campaign::ReportOptions row_options{/*with_timing=*/true};
  for (;;) {
    std::deque<Finished> batch;
    {
      std::unique_lock<std::mutex> lock(judge_mutex_);
      judge_cv_.wait(lock, [&]() {
        return !judge_queue_.empty() ||
               (active_workers_.load() == 0 && !running_.load());
      });
      batch.swap(judge_queue_);
    }
    if (batch.empty()) {
      if (active_workers_.load() == 0 && !running_.load()) return;
      continue;
    }
    for (Finished& f : batch) {
      const std::string row = campaign::to_json_row(f.result, row_options);
      queue_->complete(f.id, row);
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.jobs_done;
        if (f.result.status == campaign::JobStatus::kHarnessError) {
          ++stats_.jobs_failed;
        }
      }
      publish(f.id, verdict_line(f.id, row));
    }
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.judge_batches;
  }
}

void ServeDaemon::publish(uint64_t id, const std::string& line) {
  std::shared_ptr<StreamSink> sink;
  {
    std::lock_guard<std::mutex> lock(subs_mutex_);
    auto it = subs_.find(id);
    if (it == subs_.end()) return;
    sink = it->second;
    subs_.erase(it);
  }
  std::lock_guard<std::mutex> sl(sink->mutex);
  if (!sink->dead) sink->lines.push_back(line);
  if (sink->awaiting > 0) --sink->awaiting;
  sink->cv.notify_all();
}

std::string ServeDaemon::handle_submit(
    const JsonValue& req, const std::shared_ptr<StreamSink>& sink,
    std::vector<uint64_t>& subscribed) {
  const std::string default_tenant = req.get_string("tenant", "default");
  std::vector<JobSpec> specs;
  if (const JsonValue* jobs = req.get("jobs")) {
    for (const JsonValue& j : jobs->as_array()) {
      JobSpec spec = JobSpec::from_json(j);
      if (j.get("tenant") == nullptr) spec.tenant = default_tenant;
      specs.push_back(std::move(spec));
    }
  } else if (const JsonValue* j = req.get("job")) {
    JobSpec spec = JobSpec::from_json(*j);
    if (j->get("tenant") == nullptr) spec.tenant = default_tenant;
    specs.push_back(std::move(spec));
  }
  if (specs.empty()) return error_line("submit needs \"jobs\" or \"job\"");

  std::vector<uint64_t> ids;
  ids.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    uint64_t id = 0;
    try {
      id = queue_->submit(spec);
    } catch (const std::exception& e) {
      // Partial batch: everything before the failure is accepted and will
      // run; report both halves.
      std::ostringstream ss;
      ss << "{\"event\": \"error\", \"message\": \"" << json_escape(e.what())
         << "\", \"accepted\": [";
      for (size_t i = 0; i < ids.size(); ++i) {
        ss << (i ? ", " : "") << ids[i];
      }
      ss << "]}";
      finish_partial_subscription(sink, subscribed, ids);
      return ss.str();
    }
    ids.push_back(id);
  }
  finish_partial_subscription(sink, subscribed, ids);

  std::ostringstream ss;
  ss << "{\"event\": \"accepted\", \"ids\": [";
  for (size_t i = 0; i < ids.size(); ++i) ss << (i ? ", " : "") << ids[i];
  ss << "]}";
  return ss.str();
}

void ServeDaemon::finish_partial_subscription(
    const std::shared_ptr<StreamSink>& sink,
    std::vector<uint64_t>& subscribed, const std::vector<uint64_t>& ids) {
  if (sink == nullptr || ids.empty()) return;
  {
    std::lock_guard<std::mutex> sl(sink->mutex);
    sink->awaiting += ids.size();
  }
  {
    std::lock_guard<std::mutex> lock(subs_mutex_);
    for (uint64_t id : ids) subs_[id] = sink;
  }
  subscribed.insert(subscribed.end(), ids.begin(), ids.end());
  // A job can already be done (another tenant's identical ids cannot, but
  // a fast shard can) — publish() may have fired between submit and the
  // registration above for *earlier* ids in the batch.  Sweep once: any
  // already-done id still registered gets its event synthesized here,
  // exactly once, because both paths erase the registration first.
  for (uint64_t id : ids) {
    const auto row = queue_->result_json(id);
    if (!row) continue;
    std::shared_ptr<StreamSink> s;
    {
      std::lock_guard<std::mutex> lock(subs_mutex_);
      auto it = subs_.find(id);
      if (it != subs_.end() && it->second == sink) {
        s = sink;
        subs_.erase(it);
      }
    }
    if (s) {
      std::lock_guard<std::mutex> sl(s->mutex);
      if (!s->dead) s->lines.push_back(verdict_line(id, *row));
      if (s->awaiting > 0) --s->awaiting;
      s->cv.notify_all();
    }
  }
}

std::string ServeDaemon::handle_status() { return status_json(); }

std::string ServeDaemon::status_json() {
  const JobQueue::Status qs = queue_->status();
  const campaign::SnapshotCache::Stats cs = cache_.stats();
  const Stats st = stats();
  std::ostringstream ss;
  ss << "{\"event\": \"status\""
     << ", \"accepting\": " << (qs.accepting ? "true" : "false")
     << ", \"queued\": " << qs.total.queued
     << ", \"running\": " << qs.total.running
     << ", \"done\": " << qs.total.done
     << ", \"cancelled\": " << qs.total.cancelled
     << ", \"replayed\": " << qs.replayed
     << ", \"workers\": " << config_.workers
     << ", \"jobs_done\": " << st.jobs_done
     << ", \"jobs_failed\": " << st.jobs_failed
     << ", \"judge_batches\": " << st.judge_batches
     << ", \"events_streamed\": " << st.events_streamed
     << ", \"machine_builds\": "
     << fork_counters_.machine_builds.load(std::memory_order_relaxed)
     << ", \"machine_reuses\": "
     << fork_counters_.machine_reuses.load(std::memory_order_relaxed)
     << ", \"snapshot_cache\": {\"builds\": " << cs.builds
     << ", \"hits\": " << cs.hits << ", \"misses\": " << cs.misses
     << ", \"hit_rate\": ";
  char buf[32];
  const uint64_t requests = cs.hits + cs.misses;
  std::snprintf(buf, sizeof buf, "%.4f",
                requests ? static_cast<double>(cs.hits) / requests : 0.0);
  ss << buf << ", \"build_ms\": ";
  std::snprintf(buf, sizeof buf, "%.3f", cs.build_ms);
  ss << buf << ", \"snapshot_pages\": " << cs.snapshot_pages
     << ", \"shared_pages\": " << cs.shared_pages
     << ", \"dehydrations\": " << cs.dehydrations
     << ", \"rehydrations\": " << cs.rehydrations
     << ", \"disk_rehydrations\": " << cs.disk_rehydrations
     << ", \"stored_snapshots\": " << cs.stored_snapshots
     << ", \"hydrated_snapshots\": " << cs.hydrated_snapshots
     << ", \"store_enabled\": " << (cs.store_enabled ? "true" : "false");
  if (cs.store_enabled) {
    const mem::PageStore::Stats& ps = cs.store;
    ss << ", \"store\": {\"canonical_pages\": " << ps.canonical_pages
       << ", \"interned_refs\": " << ps.interned_refs
       << ", \"dedup_hits\": " << ps.dedup_hits
       << ", \"hot_pages\": " << ps.hot_pages
       << ", \"compressed_pages\": " << ps.compressed_pages
       << ", \"disk_pages\": " << ps.disk_pages
       << ", \"uncompressed_bytes\": " << ps.uncompressed_bytes
       << ", \"compressed_bytes\": " << ps.compressed_bytes
       << ", \"evictions\": " << ps.evictions
       << ", \"decompressions\": " << ps.decompressions
       << ", \"disk_reads\": " << ps.disk_reads
       << ", \"disk_writes\": " << ps.disk_writes << "}";
  }
  ss << "}"
     << ", \"analysis_cache\": "
     << analysis::SummaryCache::instance().stats().json()
     << ", \"tenants\": {";
  bool first = true;
  for (const auto& [tenant, c] : qs.tenants) {
    ss << (first ? "" : ", ") << "\"" << json_escape(tenant)
       << "\": {\"queued\": " << c.queued << ", \"running\": " << c.running
       << ", \"done\": " << c.done << ", \"cancelled\": " << c.cancelled
       << "}";
    first = false;
  }
  ss << "}}";
  return ss.str();
}

std::string ServeDaemon::handle_result(const JsonValue& req) {
  const uint64_t id = req.get_u64("id");
  if (id == 0) return error_line("result needs \"id\"");
  const JobQueue::State state = queue_->state(id);
  const char* name = "unknown";
  switch (state) {
    case JobQueue::State::kQueued: name = "queued"; break;
    case JobQueue::State::kRunning: name = "running"; break;
    case JobQueue::State::kDone: name = "done"; break;
    case JobQueue::State::kCancelled: name = "cancelled"; break;
    case JobQueue::State::kUnknown: name = "unknown"; break;
  }
  std::ostringstream ss;
  ss << "{\"event\": \"result\", \"id\": " << id << ", \"state\": \"" << name
     << "\"";
  if (const auto row = queue_->result_json(id)) {
    ss << ", \"result\": " << *row;
  }
  ss << "}";
  return ss.str();
}

std::string ServeDaemon::handle_cancel(const JsonValue& req) {
  const uint64_t id = req.get_u64("id");
  if (id == 0) return error_line("cancel needs \"id\"");
  const bool cancelled = queue_->cancel(id);
  if (cancelled) {
    publish(id, "{\"event\": \"cancelled\", \"id\": " + std::to_string(id) +
                    "}");
  }
  return "{\"event\": \"cancel\", \"id\": " + std::to_string(id) +
         ", \"cancelled\": " + (cancelled ? "true" : "false") + "}";
}

std::string ServeDaemon::handle_drain() {
  queue_->close_submissions();
  queue_->wait_idle();
  const JobQueue::Status qs = queue_->status();
  return "{\"event\": \"drained\", \"done\": " +
         std::to_string(qs.total.done) +
         ", \"cancelled\": " + std::to_string(qs.total.cancelled) + "}";
}

}  // namespace ptaint::serve
