#include "serve_load.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "serve/client.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;
using ptaint::serve::Client;

namespace {

double ms_since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Raw (still escaped) contents of the first `"key": "..."` in `json`.
/// Escaped quotes inside other string fields cannot match the pattern, so
/// the first occurrence is the field itself.
std::string json_string(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const size_t p = json.find(pat);
  if (p == std::string::npos) return "";
  size_t i = p + pat.size();
  const size_t begin = i;
  while (i < json.size() && json[i] != '"') i += json[i] == '\\' ? 2 : 1;
  return json.substr(begin, std::min(i, json.size()) - begin);
}

std::vector<uint64_t> accepted_ids(const std::string& line) {
  std::vector<uint64_t> ids;
  const size_t p = line.find("\"ids\": [");
  if (p == std::string::npos) return ids;
  const char* s = line.c_str() + p + 8;
  while (*s != '\0' && *s != ']') {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s) break;
    ids.push_back(v);
    s = end;
    while (*s == ',' || *s == ' ') ++s;
  }
  return ids;
}

bool is_event(const std::string& line, const char* event) {
  return line.find(std::string("\"event\": \"") + event + "\"") !=
         std::string::npos;
}

std::string submit_line(const std::string& jobs) {
  return "{\"cmd\": \"submit\", \"stream\": true, \"jobs\": [" + jobs + "]}";
}

}  // namespace

double json_number(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const size_t p = json.find(pat);
  if (p == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + p + pat.size(), nullptr);
}

Row parse_row(const std::string& json) {
  Row r;
  r.status = json_string(json, "status");
  r.verdict = json_string(json, "verdict");
  r.stop = json_string(json, "stop");
  r.alert = json_string(json, "alert");
  r.instructions = static_cast<uint64_t>(json_number(json, "instructions"));
  r.dirty_pages = static_cast<uint64_t>(json_number(json, "dirty_pages"));
  r.wall_ms = json_number(json, "wall_ms");
  r.build_ms = json_number(json, "build_ms");
  r.restore_ms = json_number(json, "restore_ms");
  r.run_ms = json_number(json, "run_ms");
  r.judge_ms = json_number(json, "judge_ms");
  return r;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

PhaseResult run_closed_loop(const std::string& socket, const SpecStream& stream,
                            uint64_t first_index, int batch, int connections,
                            double seconds, uint64_t max_jobs) {
  PhaseResult out;
  const uint64_t end_index =
      max_jobs == 0 ? ~0ULL : first_index + max_jobs;
  std::mutex merge;
  std::atomic<uint64_t> next{first_index};
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  Clock::time_point last = t0;

  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&]() {
      std::vector<Row> rows;
      std::vector<double> at_s;
      uint64_t attempted = 0, errors = 0;
      Clock::time_point local_last = t0;
      try {
        Client client(socket);
        while (Clock::now() < deadline) {
          const uint64_t begin = next.fetch_add(static_cast<uint64_t>(batch));
          if (begin >= end_index) break;
          std::string jobs;
          for (int k = 0; k < batch; ++k) {
            if (k) jobs += ", ";
            jobs += stream.json(begin + static_cast<uint64_t>(k));
          }
          client.send_line(submit_line(jobs));
          attempted += static_cast<uint64_t>(batch);
          std::vector<uint64_t> ids;
          int seen = 0;
          while (seen < batch) {
            const auto line = client.read_line();
            if (!line) {
              errors += static_cast<uint64_t>(batch - seen);
              throw std::runtime_error("daemon hung up");
            }
            if (is_event(*line, "verdict")) {
              Row r = parse_row(*line);
              const auto id = static_cast<uint64_t>(json_number(*line, "id"));
              const auto at = std::find(ids.begin(), ids.end(), id);
              r.index = begin + static_cast<uint64_t>(at - ids.begin());
              if (at == ids.end()) ++errors;
              rows.push_back(std::move(r));
              ++seen;
              local_last = Clock::now();
              at_s.push_back(ms_since(t0, local_last) / 1e3);
            } else if (is_event(*line, "accepted")) {
              ids = accepted_ids(*line);
            } else {
              errors += static_cast<uint64_t>(batch - seen);
              break;
            }
          }
        }
      } catch (const std::exception&) {
        ++errors;
      }
      std::lock_guard<std::mutex> lock(merge);
      out.attempted += attempted;
      out.errors += errors;
      out.rows.insert(out.rows.end(), rows.begin(), rows.end());
      out.at_s.insert(out.at_s.end(), at_s.begin(), at_s.end());
      last = std::max(last, local_last);
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = std::chrono::duration<double>(last - t0).count();
  return out;
}

PhaseResult run_open_loop(const std::string& socket, const SpecStream& stream,
                          uint64_t first_index, double rate, int connections,
                          double seconds) {
  PhaseResult out;
  const uint64_t n = std::max<uint64_t>(
      1, static_cast<uint64_t>(rate * seconds));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < connections; ++c) {
    clients.push_back(std::make_unique<Client>(socket));
  }
  // Send instants, written by the sender before the request leaves and read
  // by a reader only after that request's reply arrived.
  std::vector<std::atomic<int64_t>> sent_ns(n);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](uint64_t i) { return t0 + interval * static_cast<int64_t>(i); };
  auto ns_of = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
        .count();
  };

  std::mutex merge;
  Clock::time_point last = t0;
  std::vector<std::thread> readers;
  for (int c = 0; c < connections; ++c) {
    readers.emplace_back([&, c]() {
      PhaseResult local;
      Clock::time_point local_last = t0;
      Client& client = *clients[static_cast<size_t>(c)];
      // A connection serves its requests strictly in order: the accepted
      // reply, then that job's verdict, then the next request.
      for (uint64_t j = static_cast<uint64_t>(c); j < n;
           j += static_cast<uint64_t>(connections)) {
        auto line = client.read_line();
        if (!line) {
          local.errors += (n - j + static_cast<uint64_t>(connections) - 1) /
                          static_cast<uint64_t>(connections);
          break;
        }
        if (!is_event(*line, "accepted")) {
          ++local.errors;
          continue;
        }
        const auto acked = Clock::now();
        line = client.read_line();
        const auto arrived = Clock::now();
        if (!line || !is_event(*line, "verdict")) {
          ++local.errors;
          if (!line) break;
          continue;
        }
        Row r = parse_row(*line);
        r.index = first_index + j;
        const double sent_ms =
            static_cast<double>(sent_ns[j].load(std::memory_order_acquire)) /
            1e6;
        const double arrived_ms = static_cast<double>(ns_of(arrived)) / 1e6;
        local.latency_ms.push_back(ms_since(due(j), arrived));
        local.at_s.push_back(ms_since(t0, due(j)) / 1e3);
        local.ack_ms.push_back(static_cast<double>(ns_of(acked)) / 1e6 -
                               sent_ms);
        local.outside_ms.push_back(arrived_ms - sent_ms - r.wall_ms);
        local.rows.push_back(std::move(r));
        local_last = arrived;
      }
      std::lock_guard<std::mutex> lock(merge);
      out.errors += local.errors;
      out.rows.insert(out.rows.end(), local.rows.begin(), local.rows.end());
      out.at_s.insert(out.at_s.end(), local.at_s.begin(), local.at_s.end());
      out.latency_ms.insert(out.latency_ms.end(), local.latency_ms.begin(),
                            local.latency_ms.end());
      out.ack_ms.insert(out.ack_ms.end(), local.ack_ms.begin(),
                        local.ack_ms.end());
      out.outside_ms.insert(out.outside_ms.end(), local.outside_ms.begin(),
                            local.outside_ms.end());
      last = std::max(last, local_last);
    });
  }

  out.lag_ms.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(due(i));
    const auto now = Clock::now();
    out.lag_ms.push_back(ms_since(due(i), now));
    sent_ns[i].store(ns_of(now), std::memory_order_release);
    try {
      clients[i % static_cast<uint64_t>(connections)]->send_line(
          submit_line(stream.json(first_index + i)));
    } catch (const std::exception&) {
      // The reader of this connection sees the hang-up and counts the rest.
    }
  }
  out.attempted = n;
  for (auto& t : readers) t.join();
  out.wall_s = std::chrono::duration<double>(last - t0).count();
  return out;
}

double ping_rtt_us(const std::string& socket, int n) {
  Client client(socket);
  std::vector<double> us;
  for (int i = 0; i < n; ++i) {
    const auto t = Clock::now();
    client.request("{\"cmd\": \"ping\"}");
    us.push_back(ms_since(t, Clock::now()) * 1000.0);
  }
  return percentile(us, 0.5);
}

std::string request(const std::string& socket, const std::string& line) {
  Client client(socket);
  return client.request(line);
}

}  // namespace e2e
