#include "serve/queue.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "campaign/report.hpp"
#include "serve/json.hpp"

namespace ptaint::serve {

using campaign::json_escape;

std::string JobSpec::to_json() const {
  std::ostringstream ss;
  ss << "{\"tenant\": \"" << json_escape(tenant) << "\""
     << ", \"app\": \"" << json_escape(app) << "\""
     << ", \"payload\": \"" << json_escape(payload) << "\""
     << ", \"policy\": \"" << json_escape(policy) << "\"";
  if (!engine.empty()) ss << ", \"engine\": \"" << json_escape(engine) << "\"";
  if (elide) ss << ", \"elide\": true";
  if (!session.empty()) {
    ss << ", \"session\": [";
    for (size_t i = 0; i < session.size(); ++i) {
      ss << (i ? ", " : "") << "\"" << json_escape(session[i]) << "\"";
    }
    ss << "]";
  }
  if (!stdin_text.empty()) {
    ss << ", \"stdin\": \"" << json_escape(stdin_text) << "\"";
  }
  if (max_instructions != 0) {
    ss << ", \"max_instructions\": " << max_instructions;
  }
  if (timeout_ms != 0) ss << ", \"timeout_ms\": " << timeout_ms;
  ss << "}";
  return ss.str();
}

JobSpec JobSpec::from_json(const JsonValue& v) {
  JobSpec spec;
  spec.tenant = v.get_string("tenant", "default");
  spec.app = v.get_string("app");
  spec.payload = v.get_string("payload");
  spec.policy = v.get_string("policy", "paper");
  spec.engine = v.get_string("engine");
  spec.elide = v.get_bool("elide");
  if (const JsonValue* s = v.get("session")) {
    for (const JsonValue& line : s->as_array()) {
      spec.session.push_back(line.as_string());
    }
  }
  spec.stdin_text = v.get_string("stdin");
  spec.max_instructions = v.get_u64("max_instructions");
  spec.timeout_ms = v.get_u64("timeout_ms");
  if (spec.app.empty() || spec.payload.empty()) {
    throw std::invalid_argument("job spec needs \"app\" and \"payload\"");
  }
  if (spec.timeout_ms > kMaxTimeoutMs) {
    throw std::invalid_argument("\"timeout_ms\" exceeds one day");
  }
  if (spec.tenant.empty()) spec.tenant = "default";
  return spec;
}

JobQueue::JobQueue(Config config) : config_(std::move(config)) {
  replay();
  journal_fd_ = ::open(config_.journal_path.c_str(),
                       O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (journal_fd_ < 0) {
    throw std::runtime_error("cannot open journal " + config_.journal_path +
                             ": " + std::strerror(errno));
  }
}

JobQueue::~JobQueue() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

void JobQueue::replay() {
  std::ifstream in(config_.journal_path);
  if (!in) return;  // first start: no journal yet
  std::string line;
  // First pass collects terminal records so a submit already done or
  // cancelled is not re-enqueued (exactly-once), then pending submits are
  // queued in original id order.
  std::vector<std::pair<uint64_t, JobSpec>> submits;
  std::map<uint64_t, std::string> done_rows;
  std::map<uint64_t, bool> cancelled;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue rec;
    try {
      rec = JsonValue::parse(line);
    } catch (const JsonError&) {
      // A torn final line from a crash mid-append; everything before it
      // is intact (records are appended with single writes).
      continue;
    }
    const std::string kind = rec.get_string("rec");
    try {
      const uint64_t id = rec.get_u64("id");
      if (id == 0) continue;
      if (id >= next_id_) next_id_ = id + 1;
      if (kind == "submit") {
        if (const JsonValue* spec = rec.get("spec")) {
          submits.emplace_back(id, JobSpec::from_json(*spec));
        }
      } else if (kind == "done") {
        // Keep the verdict row verbatim: everything after the `"result": `
        // marker up to the record's closing brace.  `result` is always the
        // last field of a done record, so no JSON re-serialization needed.
        const std::string marker = "\"result\": ";
        const size_t at = line.find(marker);
        if (at != std::string::npos && line.size() > at + marker.size()) {
          done_rows[id] = line.substr(at + marker.size(),
                                      line.size() - at - marker.size() - 1);
        } else {
          done_rows[id] = "{}";
        }
      } else if (kind == "cancel") {
        cancelled[id] = true;
      }
    } catch (const std::exception&) {
      continue;  // one bad record must not poison the replay
    }
  }
  for (auto& [id, spec] : submits) {
    if (cancelled.count(id)) {
      cancelled_[id] = spec.tenant;
      ++tenant_counts(spec.tenant).cancelled;
      continue;
    }
    if (auto it = done_rows.find(id); it != done_rows.end()) {
      done_[id] = it->second;
      done_tenant_[id] = spec.tenant;
      ++tenant_counts(spec.tenant).done;
      continue;
    }
    // Accepted but unfinished at crash time: re-enqueue.  A job that was
    // mid-run when the daemon died re-executes from its snapshot — the
    // guest is deterministic, so the eventual (single) verdict row is the
    // one the lost run would have produced.
    queues_[spec.tenant].push_back(id);
    ++tenant_counts(spec.tenant).queued;
    pending_[id] = Pending{std::move(spec)};
    ++replayed_;
  }
}

void JobQueue::append_record(const std::string& line) {
  // One write() per record: an O_APPEND write of a short line lands whole,
  // so kill -9 can tear at most the final record (replay skips it).  Data
  // reaches the kernel page cache immediately — surviving process death —
  // without an fsync per job (power-loss durability is out of scope).
  std::string out = line;
  out += '\n';
  size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(journal_fd_, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("journal write failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
}

JobQueue::Counts& JobQueue::tenant_counts(const std::string& tenant) {
  return tenants_[tenant];
}

uint64_t JobQueue::submit(const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!accepting_ || stopping_) {
    throw std::runtime_error("queue is draining; submissions closed");
  }
  if (config_.tenant_quota > 0) {
    const Counts& c = tenant_counts(spec.tenant);
    if (c.queued + c.running >=
        static_cast<uint64_t>(config_.tenant_quota)) {
      throw QuotaError("tenant \"" + spec.tenant + "\" is over quota (" +
                       std::to_string(config_.tenant_quota) + " live jobs)");
    }
  }
  const uint64_t id = next_id_++;
  append_record("{\"rec\": \"submit\", \"id\": " + std::to_string(id) +
                ", \"spec\": " + spec.to_json() + "}");
  queues_[spec.tenant].push_back(id);
  ++tenant_counts(spec.tenant).queued;
  pending_[id] = Pending{spec};
  work_cv_.notify_one();
  return id;
}

bool JobQueue::cancel(uint64_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = pending_.find(id);
  if (it == pending_.end()) return false;
  const std::string tenant = it->second.spec.tenant;
  append_record("{\"rec\": \"cancel\", \"id\": " + std::to_string(id) + "}");
  auto& q = queues_[tenant];
  for (auto qit = q.begin(); qit != q.end(); ++qit) {
    if (*qit == id) {
      q.erase(qit);
      break;
    }
  }
  pending_.erase(it);
  Counts& c = tenant_counts(tenant);
  --c.queued;
  ++c.cancelled;
  cancelled_[id] = tenant;
  idle_cv_.notify_all();
  return true;
}

std::optional<JobQueue::Acquired> JobQueue::acquire() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Fair pick: the first tenant strictly after the cursor with queued
    // work, wrapping — a round-robin over tenant names.
    auto pick = [&]() -> std::deque<uint64_t>* {
      if (queues_.empty()) return nullptr;
      auto it = queues_.upper_bound(fair_cursor_);
      for (size_t i = 0; i < queues_.size() + 1; ++i) {
        if (it == queues_.end()) it = queues_.begin();
        if (!it->second.empty()) {
          fair_cursor_ = it->first;
          return &it->second;
        }
        ++it;
      }
      return nullptr;
    };
    if (std::deque<uint64_t>* q = pick()) {
      const uint64_t id = q->front();
      q->pop_front();
      auto it = pending_.find(id);
      Acquired out{id, std::move(it->second.spec)};
      pending_.erase(it);
      Counts& c = tenant_counts(out.spec.tenant);
      --c.queued;
      ++c.running;
      running_[id] = out.spec.tenant;
      return out;
    }
    if (stopping_) return std::nullopt;
    work_cv_.wait(lock);
  }
}

void JobQueue::complete(uint64_t id, const std::string& result_json) {
  std::lock_guard<std::mutex> lock(mutex_);
  append_record("{\"rec\": \"done\", \"id\": " + std::to_string(id) +
                ", \"result\": " + result_json + "}");
  auto it = running_.find(id);
  const std::string tenant = it != running_.end() ? it->second : "default";
  if (it != running_.end()) running_.erase(it);
  Counts& c = tenant_counts(tenant);
  if (c.running > 0) --c.running;
  ++c.done;
  done_[id] = result_json;
  done_tenant_[id] = tenant;
  idle_cv_.notify_all();
}

void JobQueue::close_submissions() {
  std::lock_guard<std::mutex> lock(mutex_);
  accepting_ = false;
}

void JobQueue::stop() {
  std::lock_guard<std::mutex> lock(mutex_);
  stopping_ = true;
  accepting_ = false;
  work_cv_.notify_all();
  idle_cv_.notify_all();
}

void JobQueue::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&]() {
    return pending_.empty() && running_.empty();
  });
}

JobQueue::State JobQueue::state(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_.count(id)) return State::kQueued;
  if (running_.count(id)) return State::kRunning;
  if (done_.count(id)) return State::kDone;
  if (cancelled_.count(id)) return State::kCancelled;
  return State::kUnknown;
}

std::optional<std::string> JobQueue::result_json(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = done_.find(id);
  if (it == done_.end()) return std::nullopt;
  return it->second;
}

JobQueue::Status JobQueue::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Status out;
  out.tenants = tenants_;
  out.replayed = replayed_;
  out.accepting = accepting_ && !stopping_;
  for (const auto& [tenant, c] : tenants_) {
    out.total.queued += c.queued;
    out.total.running += c.running;
    out.total.done += c.done;
    out.total.cancelled += c.cancelled;
  }
  return out;
}

}  // namespace ptaint::serve
