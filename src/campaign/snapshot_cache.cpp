#include "campaign/snapshot_cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
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

SnapshotCache::SnapshotCache(const StoreOptions& options) : options_(options) {
  if (!options_.enabled) return;
  mem::PageStore::Config config;
  config.hot_page_budget = options_.hot_pages;
  config.disk_dir = options_.disk_dir;
  store_ = std::make_unique<mem::PageStore>(std::move(config));
  if (!options_.disk_dir.empty()) load_disk_blobs();
}

SnapshotCache::~SnapshotCache() = default;

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
    // Adopt one pin per page ref; a blob referencing pages whose files were
    // lost is discarded (the key just rebuilds on first use).
    size_t pinned = 0;
    bool ok = true;
    for (const auto& [idx, page_key] : stored.pages) {
      (void)idx;
      if (!store_->pin(page_key)) {
        ok = false;
        break;
      }
      ++pinned;
    }
    if (!ok) {
      for (size_t i = 0; i < pinned; ++i) {
        store_->release(stored.pages[i].second);
      }
      continue;
    }
    auto entry = std::make_shared<Entry>();
    entry->stored = std::move(stored);
    entry->from_disk = true;
    entries_[key] = std::move(entry);  // ctor context: no locking needed
  }
}

std::shared_ptr<const core::MachineSnapshot> SnapshotCache::get(
    const std::string& key, const Builder& build) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = entries_[key];
    if (!slot) slot = std::make_shared<Entry>();
    entry = slot;
  }
  std::lock_guard<std::mutex> build_lock(entry->build_mutex);
  bool has_stored = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entry->snapshot) {
      ++stats_.hits;
      entry->last_touch = ++tick_;
      return entry->snapshot;
    }
    has_stored = entry->stored.has_value();
  }
  if (has_stored && store_) {
    // Rehydrate from store pages — a hit: nothing is rebuilt.  `stored` is
    // only mutated under build_mutex (held), so reading it unlocked is safe.
    const auto t0 = std::chrono::steady_clock::now();
    auto hydrated = core::hydrate_snapshot(*entry->stored, *store_);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (hydrated) {
      auto snapshot =
          std::make_shared<const core::MachineSnapshot>(std::move(*hydrated));
      std::lock_guard<std::mutex> lock(mutex_);
      entry->snapshot = snapshot;
      entry->last_touch = ++tick_;
      ++stats_.hits;
      ++stats_.rehydrations;
      stats_.hydrate_ms += ms;
      if (entry->from_disk && !entry->disk_counted) {
        ++stats_.disk_rehydrations;
        entry->disk_counted = true;
      }
      dehydrate_lru_locked();
      return snapshot;
    }
    // Page file lost/corrupt: fall back to a full rebuild below.
    std::lock_guard<std::mutex> lock(mutex_);
    entry->stored.reset();
    entry->from_disk = false;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
  }
  // Build outside mutex_ so unrelated keys boot concurrently; only callers
  // of this key serialize on build_mutex.
  const auto t0 = std::chrono::steady_clock::now();
  core::MachineSnapshot built = build();
  const double built_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  // Dehydrate before publishing: interning swaps the snapshot's blocks for
  // canonical store duplicates (content-identical), then the snapshot is
  // frozen behind a const pointer.  The blob is queued after its pages'
  // interns, so the write-behind FIFO makes it durable last (a blob on disk
  // always finds its pages).  Pipeline-bearing snapshots return nullopt and
  // stay hydrated forever.
  std::optional<core::StoredSnapshot> stored;
  if (store_) {
    stored = core::dehydrate_snapshot(built, *store_);
    if (stored && !options_.disk_dir.empty()) {
      store_->queue_blob(blob_name(key),
                         core::encode_stored_snapshot(key, *stored));
    }
  }
  auto snapshot =
      std::make_shared<const core::MachineSnapshot>(std::move(built));
  // Publish under mutex_ as well: stats() walks entries_ without taking
  // per-entry build mutexes.
  std::lock_guard<std::mutex> lock(mutex_);
  entry->snapshot = snapshot;
  entry->stored = std::move(stored);
  entry->last_touch = ++tick_;
  ++stats_.builds;
  stats_.build_ms += built_ms;
  dehydrate_lru_locked();
  return snapshot;
}

void SnapshotCache::dehydrate_lru_locked() {
  if (!store_) return;
  // Hydrated entries WITH a dehydrated form beyond the hot budget drop
  // their materialized snapshot, coldest first.  Entries without one
  // (pipeline-bearing) are never dropped — they could not come back.
  std::vector<Entry*> droppable;
  for (const auto& [key, entry] : entries_) {
    if (entry && entry->snapshot && entry->stored) {
      droppable.push_back(entry.get());
    }
  }
  if (droppable.size() <= options_.hot_snapshots) return;
  std::sort(droppable.begin(), droppable.end(),
            [](const Entry* a, const Entry* b) {
              return a->last_touch < b->last_touch;
            });
  const size_t excess = droppable.size() - options_.hot_snapshots;
  for (size_t i = 0; i < excess; ++i) {
    droppable[i]->snapshot.reset();
    ++stats_.dehydrations;
  }
  // Dropping cache references may have left store blocks sole-owned;
  // compress the cold ones.  (PageStore has its own lock; no ordering
  // cycle — the store never calls back into the cache.)
  store_->evict_cold();
}

SnapshotCache::Stats SnapshotCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.entries = entries_.size();
  for (const auto& [key, entry] : entries_) {
    if (!entry) continue;
    if (entry->stored) ++out.stored_snapshots;
    if (!entry->snapshot) continue;
    ++out.hydrated_snapshots;
    out.snapshot_pages += entry->snapshot->memory.mapped_pages();
    out.shared_pages += entry->snapshot->memory.shared_page_count();
  }
  if (store_) {
    out.store_enabled = true;
    out.store = store_->stats();
  }
  return out;
}

void SnapshotCache::drop_hydrated() {
  if (!store_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) {
    if (entry && entry->snapshot && entry->stored) {
      entry->snapshot.reset();
      ++stats_.dehydrations;
    }
  }
  store_->evict_cold();
}

void SnapshotCache::flush_disk() {
  if (store_) store_->flush();
}

}  // namespace ptaint::campaign
