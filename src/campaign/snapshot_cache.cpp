#include "campaign/snapshot_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "core/settings.hpp"

namespace ptaint::campaign {
namespace {

uint64_t fnv64(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Disk name of a key's snapshot blob.  The hash only names the file; the
/// authoritative key string is stored inside the blob.
std::string blob_name(const std::string& key) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%016llx.blob",
                static_cast<unsigned long long>(fnv64(key)));
  return buf;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

StoreOptions StoreOptions::from_env() {
  const core::Settings& env = core::settings();
  StoreOptions opts;
  opts.enabled = env.snapshot_store || !env.snapshot_dir.empty();
  opts.disk_dir = env.snapshot_dir;
  if (env.snapshot_hot) opts.hot_snapshots = *env.snapshot_hot;
  return opts;
}

SnapshotCache::SnapshotCache() : SnapshotCache(StoreOptions::from_env()) {}

SnapshotCache::SnapshotCache(const StoreOptions& options)
    : options_(options),
      hot_(options.enabled ? options.hot_snapshots
                           : decltype(hot_)::kUnbounded) {
  if (!options_.enabled) return;
  mem::PageStore::Config config;
  config.disk_dir = options_.disk_dir;
  store_ = std::make_unique<mem::PageStore>(std::move(config));
  if (!options_.disk_dir.empty()) load_disk_blobs();
}

void SnapshotCache::load_disk_blobs() {
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(options_.disk_dir, ec)) {
    const std::string name = dirent.path().filename().string();
    if (name.rfind("snap-", 0) != 0 || name.size() < 6 ||
        name.substr(name.size() - 5) != ".blob") {
      continue;
    }
    std::ifstream in(dirent.path(), std::ios::binary);
    if (!in) continue;
    std::vector<uint8_t> bytes{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
    auto decoded = core::decode_stored_snapshot(bytes);
    if (!decoded) continue;
    auto& [key, stored] = *decoded;
    // A blob referencing pages whose files were lost is discarded (the key
    // just rebuilds on first use).
    const bool complete = std::all_of(
        stored.pages.begin(), stored.pages.end(),
        [this](const auto& ref) { return store_->contains(ref.second); });
    if (!complete) continue;
    stored_[key] = Stored{
        std::make_shared<const core::StoredSnapshot>(std::move(stored)), true};
  }
}

std::shared_ptr<const core::MachineSnapshot> SnapshotCache::get(
    const std::string& key, const Builder& build) {
  bool resolved = false;
  auto snapshot = hot_.get(key, [&] {
    resolved = true;
    return resolve(key, build);
  });
  // The hot set may just have evicted a snapshot and left its store blocks
  // sole-owned; compress the cold ones.
  if (resolved && store_) store_->evict_cold();
  return snapshot;
}

std::shared_ptr<const core::MachineSnapshot> SnapshotCache::resolve(
    const std::string& key, const Builder& build) {
  Stored stored;
  if (store_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = stored_.find(key); it != stored_.end()) stored = it->second;
  }
  if (stored.snapshot) {
    // Rehydrate from store pages — a hit: nothing is rebuilt.
    const auto t0 = std::chrono::steady_clock::now();
    auto hydrated = core::hydrate_snapshot(*stored.snapshot, *store_);
    std::lock_guard<std::mutex> lock(mutex_);
    if (hydrated) {
      ++stats_.rehydrations;
      stats_.hydrate_ms += ms_since(t0);
      if (stored.from_disk) {
        ++stats_.disk_rehydrations;
        stored_[key].from_disk = false;
      }
      return std::make_shared<const core::MachineSnapshot>(
          std::move(*hydrated));
    }
    // Page file lost/corrupt: fall back to a full rebuild below.
    stored_.erase(key);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
  }
  const auto t0 = std::chrono::steady_clock::now();
  core::MachineSnapshot built = build();
  const double built_ms = ms_since(t0);
  // Dehydrate before publishing: interning swaps the snapshot's blocks for
  // canonical store duplicates (content-identical), then the snapshot is
  // frozen behind a const pointer.  The blob is queued after its pages'
  // interns, so the write-behind FIFO makes it durable last (a blob on disk
  // always finds its pages).  Pipeline-bearing snapshots return nullopt and
  // keep no stored form.
  std::optional<core::StoredSnapshot> dehydrated;
  if (store_) {
    dehydrated = core::dehydrate_snapshot(built, *store_);
    if (dehydrated && !options_.disk_dir.empty()) {
      store_->queue_blob(blob_name(key),
                         core::encode_stored_snapshot(key, *dehydrated));
    }
  }
  auto snapshot =
      std::make_shared<const core::MachineSnapshot>(std::move(built));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.builds;
  stats_.build_ms += built_ms;
  if (dehydrated) {
    stored_[key] = Stored{
        std::make_shared<const core::StoredSnapshot>(std::move(*dehydrated)),
        false};
  }
  return snapshot;
}

SnapshotCache::Stats SnapshotCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  const auto hot = hot_.stats();
  out.hits = hot.hits + stats_.rehydrations;
  out.dehydrations += hot.evictions;
  out.stored_snapshots = stored_.size();
  out.entries = stored_.size();
  hot_.for_each([&](const std::string& key,
                    const core::MachineSnapshot& snapshot) {
    if (stored_.count(key) == 0) ++out.entries;
    ++out.hydrated_snapshots;
    out.snapshot_pages += snapshot.memory.mapped_pages();
    out.shared_pages += snapshot.memory.shared_page_count();
  });
  if (store_) {
    out.store_enabled = true;
    out.store = store_->stats();
  }
  return out;
}

void SnapshotCache::drop_hydrated() {
  if (!store_) return;
  const size_t dropped = hot_.clear();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.dehydrations += dropped;
  }
  store_->evict_cold();
}

void SnapshotCache::flush_disk() {
  if (store_) store_->flush();
}

}  // namespace ptaint::campaign
