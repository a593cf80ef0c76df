#include "replay.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "analysis/summary_cache.hpp"
#include "asmgen/assembler.hpp"
#include "campaign/campaigns.hpp"
#include "campaign/report.hpp"
#include "campaign/worker.hpp"
#include "core/machine.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"
#include "mem/tainted_memory.hpp"
#include "serve/json.hpp"
#include "serve/queue.hpp"

namespace e2e {

namespace campaign = ptaint::campaign;
namespace core = ptaint::core;
using ptaint::serve::JobSpec;

int SpanLog::open(const char* name, uint64_t job) {
  spans_.push_back(Span{name, now_ns(), 0, current(), job});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int id) {
  spans_[static_cast<size_t>(id)].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

int SpanLog::add(const char* name, int64_t start_ns, int64_t end_ns,
                 int parent, uint64_t job) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, job});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%.*s\", \"start_us\": %.3f, "
                  "\"end_us\": %.3f, \"parent\": %d, \"job\": %llu}\n",
                  static_cast<int>(s.name.size()), s.name.data(), static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns) / 1e3, s.parent,
                  static_cast<unsigned long long>(s.job));
    out << line;
  }
  return static_cast<bool>(out);
}

namespace {

campaign::StoreOptions store_options(const Workload& w) {
  campaign::StoreOptions opts;
  opts.enabled = w.snapshot_store;
  return opts;
}

/// make_session_job's snapshot builder, split into its public calls so each
/// gets a span.  Same key scheme, so identical sessions would share a boot.
std::function<std::shared_ptr<const core::MachineSnapshot>()> traced_session_boot(
    const JobSpec& spec, campaign::SnapshotCache& cache, SpanLog* log,
    uint64_t id) {
  std::string key = "guest:" + spec.payload;
  for (const std::string& line : spec.session) key += "\x1f" + line;
  key += "\x1e" + spec.stdin_text;
  return [&cache, spec, key, log, id]() {
    Scope build(log, "campaign.build", id);
    return cache.get(key, [&]() {
      std::vector<ptaint::asmgen::Source> sources;
      {
        Scope s(log, "guest.link", id);
        sources = ptaint::guest::link_with_runtime(
            ptaint::guest::apps::find_app(spec.payload)->make());
      }
      ptaint::asmgen::Program program;
      {
        Scope s(log, "asmgen.assemble", id);
        program = ptaint::asmgen::assemble(sources);
      }
      std::unique_ptr<core::Machine> m;
      {
        Scope s(log, "core.load", id);
        m = std::make_unique<core::Machine>(core::MachineConfig{});
        m->load_program(std::move(program));
      }
      {
        Scope s(log, "core.arm", id);
        if (!spec.session.empty()) m->os().net().add_session(spec.session);
        if (!spec.stdin_text.empty()) m->os().set_stdin(spec.stdin_text);
      }
      Scope s(log, "core.snapshot", id);
      core::MachineSnapshot snapshot = m->snapshot();
      m.reset();  // the boot machine's teardown belongs to this span
      return snapshot;
    });
  };
}

std::string submit_line(const std::string& job) {
  return "{\"cmd\": \"submit\", \"stream\": true, \"jobs\": [" + job +
         "]}";
}

uint64_t delta(uint64_t after, uint64_t before, bool same_machine) {
  return same_machine && after >= before ? after - before : after;
}

struct ReplayState {
  ReplayState(const Workload& w, const std::string& journal)
      : cache(store_options(w)) {
    ::unlink(journal.c_str());
    queue = std::make_unique<ptaint::serve::JobQueue>(
        ptaint::serve::JobQueue::Config{journal, 0});
  }
  campaign::SnapshotCache cache;
  campaign::MachinePool pool;
  campaign::ForkCounters counters;
  std::unique_ptr<ptaint::serve::JobQueue> queue;
};

/// One job through the daemon's per-job calls, inside a "job" span; returns
/// the verdict event the daemon would stream.  `log` may be null.
std::string serve_one(ReplayState& st, const std::string& line, uint64_t id,
                      SpanLog* log, EngineTotals& engines) {
  Scope job_span(log, "job", id);
  JobSpec spec;
  {
    Scope s(log, "serve.parse", id);
    const ptaint::serve::JsonValue req = ptaint::serve::JsonValue::parse(line);
    spec = JobSpec::from_json(req.get("jobs")->as_array().at(0));
  }
  {
    Scope s(log, "serve.queue_submit", id);
    st.queue->submit(spec);
  }
  std::optional<ptaint::serve::JobQueue::Acquired> acquired;
  {
    Scope s(log, "serve.queue_acquire", id);
    acquired = st.queue->acquire();
  }
  campaign::Job job;
  {
    Scope s(log, "campaign.make_job", id);
    job = job_for_spec(acquired->spec, st.cache, engine_of(acquired->spec),
                       acquired->spec.elide);
    if (acquired->spec.app == "guest") {
      job.get_snapshot = traced_session_boot(acquired->spec, st.cache, log, id);
    } else if (log != nullptr) {
      job.get_snapshot = [inner = job.get_snapshot, log, id]() {
        Scope build(log, "campaign.build", id);
        return inner();
      };
    }
  }

  core::Machine* before = st.pool.find(job.machine_key);
  ptaint::cpu::SuperblockStats sb0;
  ptaint::cpu::JitStats jit0;
  if (before != nullptr) {
    sb0 = before->cpu().superblock_stats();
    jit0 = before->cpu().jit_stats();
  }
  const int run_span = log ? log->open("campaign.run_job", id) : -1;
  const size_t first_child = log ? log->spans().size() : 0;
  const campaign::JobResult result = campaign::run_job(
      job, acquired->id, campaign::WorkerConfig{}, st.pool, st.counters);
  if (log != nullptr) {
    log->close(run_span);
    // Place the phases run_job reports after the resolve span it opened.
    const Span& run = log->spans()[static_cast<size_t>(run_span)];
    const int64_t run_end = run.end_ns;
    int64_t t = run.start_ns;
    for (size_t i = first_child; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      if (s.parent == run_span && s.name == "campaign.build") t = s.end_ns;
    }
    const std::pair<const char*, double> phases[] = {
        {"core.restore", result.restore_ms},
        {"cpu.run", result.run_ms},
        {"campaign.judge", result.judge_ms}};
    for (const auto& [name, ms] : phases) {
      const int64_t end =
          std::min(run_end, t + static_cast<int64_t>(ms * 1e6));
      log->add(name, t, end, run_span, id);
      t = end;
    }
  }
  if (core::Machine* after = st.pool.find(job.machine_key)) {
    const bool same = after == before;
    const auto& sb1 = after->cpu().superblock_stats();
    const auto& jit1 = after->cpu().jit_stats();
    const uint64_t instructions = result.report.cpu_stats.instructions;
    if (after->cpu().engine() == ptaint::cpu::Engine::kJit) {
      engines.jit_instructions += instructions;
      engines.jit_run_ms += result.run_ms;
      engines.host_retired +=
          delta(jit1.host_retired, jit0.host_retired, same);
      engines.blocks_compiled +=
          delta(jit1.blocks_compiled, jit0.blocks_compiled, same);
      engines.bailouts +=
          delta(jit1.bailout_syscall + jit1.bailout_break +
                    jit1.bailout_arena_full,
                jit0.bailout_syscall + jit0.bailout_break +
                    jit0.bailout_arena_full,
                same);
    } else if (after->cpu().engine() == ptaint::cpu::Engine::kSuperblock) {
      engines.superblock_instructions += instructions;
      engines.superblock_run_ms += result.run_ms;
      engines.block_retired +=
          delta(sb1.block_retired, sb0.block_retired, same);
      engines.step_retired += delta(sb1.step_retired, sb0.step_retired, same);
    }
  }

  std::string row;
  {
    Scope s(log, "campaign.row", id);
    row = campaign::to_json_row(result, campaign::ReportOptions{true});
  }
  {
    Scope s(log, "serve.queue_complete", id);
    st.queue->complete(acquired->id, row);
  }
  std::string event;
  {
    Scope s(log, "serve.event", id);
    event = "{\"event\": \"verdict\", \"id\": " +
            std::to_string(acquired->id) + ", \"result\": " + row + "}";
  }
  return event;
}

}  // namespace

ReplayResult replay(const Workload& workload, const SpecStream& stream,
                    uint64_t first_index, uint64_t warm_index, double seconds,
                    uint64_t max_jobs, SpanLog& log) {
  ReplayState untraced(workload, "replay-untraced.journal");
  ReplayState traced(workload, "replay-traced.journal");
  EngineTotals discarded;  // untraced and warm-pass engine counters
  const uint64_t warm_jobs = stream.round_size() *
                             static_cast<uint64_t>(workload.warmup_rounds);
  uint64_t id = 0;
  for (uint64_t k = 0; k < warm_jobs; ++k) {
    const std::string line = submit_line(stream.json(warm_index + k));
    serve_one(untraced, line, ++id, nullptr, discarded);
    serve_one(traced, line, id, nullptr, discarded);
  }

  using Clock = std::chrono::steady_clock;
  ReplayResult out;
  double untraced_us = 0.0, traced_us = 0.0;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    const uint64_t index = first_index + out.jobs;
    const std::string line = submit_line(stream.json(index));
    ++id;
    // Alternate which mode goes first, so neither always runs on the
    // caches the other just warmed.
    for (int pass = 0; pass < 2; ++pass) {
      const bool trace = (pass == 0) == (out.jobs % 2 == 0);
      const auto t0 = Clock::now();
      const std::string event =
          trace ? serve_one(traced, line, id, &log, out.engines)
                : serve_one(untraced, line, id, nullptr, discarded);
      (trace ? traced_us : untraced_us) +=
          std::chrono::duration<double, std::micro>(Clock::now() - t0)
              .count();
      Row r = parse_row(event);
      r.index = index;
      out.rows.push_back(std::move(r));
    }
    ++out.jobs;
  } while (Clock::now() < deadline && out.jobs < max_jobs);
  out.untraced_job_us = untraced_us / static_cast<double>(out.jobs);
  out.traced_job_us = traced_us / static_cast<double>(out.jobs);
  return out;
}

void probe_first_sight(const Workload& workload, int rounds, SpanLog& log) {
  for (int r = 0; r < rounds; ++r) {
    // Fresh caches each round, so every boot inserts and every analysis
    // starts cold.
    campaign::SnapshotCache cache(store_options(workload));
    ptaint::analysis::SummaryCache analyses;
    for (const auto& [app, policy_name] : workload.probe_apps) {
      const auto policy = campaign::policy_by_name(policy_name);
      std::shared_ptr<const core::MachineSnapshot> snapshot;
      {
        Scope root(&log, "probe.boot", 0);
        Scope build(&log, "campaign.build", 0);
        snapshot = cache.get("probe:" + app, [&]() {
          std::vector<ptaint::asmgen::Source> sources;
          {
            Scope s(&log, "guest.link", 0);
            sources = ptaint::guest::link_with_runtime(
                ptaint::guest::apps::find_app(app)->make());
          }
          ptaint::asmgen::Program program;
          {
            Scope s(&log, "asmgen.assemble", 0);
            program = ptaint::asmgen::assemble(sources);
          }
          std::unique_ptr<core::Machine> m;
          {
            Scope s(&log, "core.load", 0);
            m = std::make_unique<core::Machine>(core::MachineConfig{});
            m->load_program(std::move(program));
          }
          Scope s(&log, "core.snapshot", 0);
          core::MachineSnapshot snap = m->snapshot();
          m.reset();
          return snap;
        });
      }
      {
        // A restore shares the snapshot's pages copy-on-write; this is
        // that copy (and its release) on its own.
        Scope root(&log, "probe.fork", 0);
        Scope s(&log, "mem.cow_copy", 0);
        ptaint::mem::TaintedMemory fork(snapshot->memory);
      }
      Scope root(&log, "probe.analysis", 0);
      {
        Scope s(&log, "analysis.cold", 0);
        analyses.analyze(snapshot->program, *policy);
      }
      Scope s(&log, "analysis.hit", 0);
      analyses.analyze(snapshot->program, *policy);
    }
  }
}

}  // namespace e2e
