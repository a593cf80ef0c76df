#include "campaign/worker.hpp"

#include <chrono>
#include <exception>

namespace ptaint::campaign {

using Clock = std::chrono::steady_clock;

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

void JobInput::install(core::Machine& machine) const {
  machine.os().net().clear_sessions();
  if (!session.empty()) machine.os().net().add_session(session);
  machine.os().set_stdin(stdin_text);
}

core::Machine* MachinePool::find(const std::string& key) {
  for (auto& [k, m] : entries_) {
    if (k == key) return m.get();
  }
  return nullptr;
}

void MachinePool::put(const std::string& key,
                      std::unique_ptr<core::Machine> machine) {
  if (entries_.size() >= kCapacity) entries_.pop_front();
  entries_.emplace_back(key, std::move(machine));
}

void MachinePool::drop(const std::string& key) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->first == key) {
      entries_.erase(it);
      return;
    }
  }
}

JobResult run_job(const Job& job, size_t index, const WorkerConfig& config,
                  MachinePool& machines, ForkCounters& counters) {
  JobResult result;
  result.index = index;
  result.app = job.app;
  result.payload = job.payload;
  result.policy = job.policy;

  const uint64_t slice_instructions =
      config.slice_instructions == 0 ? 250'000 : config.slice_instructions;

  for (int attempt = 1;; ++attempt) {
    result.attempts = attempt;
    result.error.clear();
    result.verdict.clear();
    result.detail.clear();
    // Each attempt reports from a clean slate: after a retry the timings
    // and COW counters describe the successful attempt only.
    result.build_ms = result.restore_ms = result.run_ms = result.judge_ms = 0;
    result.dirty_pages = result.shared_pages = 0;
    const auto start = Clock::now();
    bool timed_out = false;
    try {
      const std::shared_ptr<const core::MachineSnapshot> snapshot =
          job.get_snapshot();  // cold cache = the guest boots here
      const auto resolved_at = Clock::now();
      result.build_ms = ms_between(start, resolved_at);
      core::Machine* machine = machines.find(job.machine_key);
      if (machine == nullptr) {
        core::MachineConfig machine_config;
        machine_config.engine = job.engine;
        auto fresh = std::make_unique<core::Machine>(machine_config);
        machine = fresh.get();
        machines.put(job.machine_key, std::move(fresh));
        counters.machine_builds.fetch_add(1, std::memory_order_relaxed);
      } else {
        counters.machine_reuses.fetch_add(1, std::memory_order_relaxed);
      }
      // Repeat restores from one snapshot take the COW delta path inside
      // Machine::restore — O(pages the previous run dirtied) — and a
      // restore to another recently run program reuses its code image,
      // whatever the job's policy.
      machine->restore(*snapshot, job.settings);
      if (job.input) job.input->install(*machine);
      const auto armed_at = Clock::now();
      result.restore_ms = ms_between(resolved_at, armed_at);
      const auto deadline = start + job.timeout;
      uint64_t budget = job.max_instructions;
      cpu::StopReason reason = cpu::StopReason::kRunning;
      while (budget > 0) {
        const uint64_t slice =
            budget < slice_instructions ? budget : slice_instructions;
        reason = machine->run_for(slice);
        budget -= slice;
        if (reason != cpu::StopReason::kRunning) break;
        if (Clock::now() >= deadline) {
          timed_out = true;
          break;
        }
      }
      if (!timed_out && reason == cpu::StopReason::kRunning) {
        // Budget exhausted: mirror Machine::run's kInstLimit stop so the
        // report (and any classifier) sees exactly what a serial run saw.
        machine->cpu().mark_inst_limit();
        reason = cpu::StopReason::kInstLimit;
      }
      const auto stopped_at = Clock::now();
      result.run_ms = ms_between(armed_at, stopped_at);
      result.dirty_pages = machine->memory().dirty_page_count();
      result.shared_pages = machine->memory().shared_page_count();
      result.report = machine->report();
      if (timed_out) {
        result.status = JobStatus::kTimeout;
        result.verdict = "TIMEOUT";
      } else if (reason == cpu::StopReason::kFault) {
        result.status = JobStatus::kGuestFault;
      } else if (reason == cpu::StopReason::kInstLimit) {
        result.status = JobStatus::kBudgetExhausted;
      } else {
        result.status = JobStatus::kOk;
      }
      // Classify guest-side endings (including faults and exhausted
      // budgets — serial harnesses judge those too); skip only timeouts,
      // where the run is incomplete by the harness's own hand.
      if (!timed_out && job.classify) {
        job.classify(*machine, result.report, result);
      }
      result.judge_ms = ms_between(stopped_at, Clock::now());
    } catch (const std::exception& e) {
      result.status = JobStatus::kHarnessError;
      result.error = e.what();
    } catch (...) {
      result.status = JobStatus::kHarnessError;
      result.error = "unknown exception";
    }
    result.wall_ms = ms_between(start, Clock::now());
    const bool retryable =
        result.status == JobStatus::kHarnessError ||
        (result.status == JobStatus::kTimeout && job.retry_on_timeout);
    if (!retryable || attempt > config.max_retries) {
      return result;
    }
    // One bounded retry on a harness-side failure (spurious by definition:
    // the guest never got to run its deterministic course) or, when the
    // job opted in, on a wall-clock timeout (transient host overload — a
    // daemon shard under load wants another go, a batch bench does not).
    // A kept machine may be mid-restore or mid-run — rebuild from scratch.
    machines.drop(job.machine_key);
  }
}

}  // namespace ptaint::campaign
