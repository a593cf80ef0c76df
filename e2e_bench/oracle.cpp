#include "oracle.hpp"

#include <atomic>
#include <map>
#include <memory>
#include <thread>

#include "campaign/report.hpp"
#include "campaign/worker.hpp"

namespace e2e {

using ptaint::serve::JobSpec;

namespace {

Row reference_row(const JobSpec& spec, ptaint::campaign::SnapshotCache& cache,
                  ptaint::campaign::MachinePool& pool) {
  ptaint::campaign::ForkCounters counters;
  const ptaint::campaign::Job job = job_for_spec(
      spec, cache, ptaint::cpu::Engine::kStep, /*elide=*/false);
  const ptaint::campaign::JobResult result = ptaint::campaign::run_job(
      job, 0, ptaint::campaign::WorkerConfig{}, pool, counters);
  return parse_row(ptaint::campaign::to_json_row(result, {}));
}

}  // namespace

OracleResult check_rows(const SpecStream& stream, const std::vector<Row>& rows,
                        int threads) {
  std::map<std::string, JobSpec> distinct;
  std::vector<std::string> row_keys;
  row_keys.reserve(rows.size());
  for (const Row& row : rows) {
    const JobSpec spec = stream.spec(row.index);
    row_keys.push_back(reference_key(spec));
    distinct.emplace(row_keys.back(), spec);
  }
  std::vector<const std::pair<const std::string, JobSpec>*> work;
  for (const auto& entry : distinct) work.push_back(&entry);
  std::vector<Row> refs(work.size());

  std::atomic<size_t> next{0};
  std::vector<std::thread> pool_threads;
  for (int t = 0; t < threads; ++t) {
    pool_threads.emplace_back([&]() {
      // Cell jobs share boots, so one cache and pool serve a whole thread.
      // Session jobs never share a boot; each gets a fresh cache and pool so
      // references do not pile up snapshots.
      auto cache = std::make_unique<ptaint::campaign::SnapshotCache>(
          ptaint::campaign::StoreOptions{});
      auto pool = std::make_unique<ptaint::campaign::MachinePool>();
      for (size_t i = next++; i < work.size(); i = next++) {
        const JobSpec& spec = work[i]->second;
        if (!spec.session.empty()) {
          pool = std::make_unique<ptaint::campaign::MachinePool>();
          cache = std::make_unique<ptaint::campaign::SnapshotCache>(
              ptaint::campaign::StoreOptions{});
        }
        refs[i] = reference_row(spec, *cache, *pool);
      }
    });
  }
  for (auto& t : pool_threads) t.join();

  std::map<std::string, const Row*> by_key;
  for (size_t i = 0; i < work.size(); ++i) by_key[work[i]->first] = &refs[i];

  OracleResult out;
  out.references = work.size();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    const Row& ref = *by_key.at(row_keys[i]);
    ++out.checked;
    if (row.status == "harness-error" || row.status == "timeout") {
      ++out.failed_rows;
      continue;
    }
    if (row.verdict != ref.verdict || row.stop != ref.stop ||
        row.alert != ref.alert || row.instructions != ref.instructions) {
      ++out.mismatches;
      if (out.examples.size() < 5) {
        out.examples.push_back(
            row_keys[i] + ": served " + row.verdict + "/" + row.stop + "/" +
            std::to_string(row.instructions) + " vs reference " +
            ref.verdict + "/" + ref.stop + "/" +
            std::to_string(ref.instructions));
      }
    }
  }
  return out;
}

}  // namespace e2e
