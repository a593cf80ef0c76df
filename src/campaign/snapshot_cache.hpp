// Keyed cache of machine snapshots shared across campaign jobs.
//
// The point of the campaign engine: boot a guest once (assemble, load, arm
// inputs, optionally run to a post-init point), snapshot it, and let every
// job that shares the boot fork from the snapshot instead of re-assembling.
// Thread-safe: the first job to ask for a key builds the snapshot while
// other workers asking for the same key wait; distinct keys build
// concurrently.
//
// The hydrated snapshots are a util::Memo hot set: single flight, O(1) LRU,
// one lock on a hit.  Without a store it is unbounded.  With a store
// attached (StoreOptions::enabled — PTAINT_SNAPSHOT_STORE=1 /
// PTAINT_SNAPSHOT_DIR=<dir> in the default constructor), the cache is
// re-platformed on the content-addressed mem::PageStore (DESIGN.md §13):
// every built snapshot is dehydrated — its pages interned for cross-key
// dedup, the rest serialized to a meta blob — and the hot set keeps only
// the `hot_snapshots` most recently used entries hydrated.  A get() that
// misses the hot set rehydrates from store pages (counted as a hit: nothing
// is rebuilt).  With a disk tier, snapshot blobs are written behind, and a
// restarted process finds them at construction and serves warm keys
// without rebuilding.  Pipeline-bearing snapshots are not dehydratable:
// once evicted, they are rebuilt on their next get().
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/machine.hpp"
#include "core/snapshot_io.hpp"
#include "mem/page_store.hpp"
#include "util/memo.hpp"

namespace ptaint::campaign {

/// Store attachment for a SnapshotCache.
struct StoreOptions {
  bool enabled = false;
  /// Hydrated snapshots kept per cache; least-recently-used entries beyond
  /// this are dropped to their dehydrated (store-page) form.
  size_t hot_snapshots = 32;
  /// Disk-tier directory (empty = memory-only store).  One live cache per
  /// directory: two processes sharing a directory concurrently is
  /// unsupported (the write-behind files would race).
  std::string disk_dir;

  /// The process settings (core/settings.hpp): PTAINT_SNAPSHOT_STORE=1
  /// enables a memory-only store; PTAINT_SNAPSHOT_DIR=<dir> enables the
  /// store with a disk tier; PTAINT_SNAPSHOT_HOT=<n> overrides
  /// hot_snapshots.  Used by the default SnapshotCache constructor, so the
  /// whole test/bench/tool surface can be flipped store-backed externally.
  static StoreOptions from_env();
};

class SnapshotCache {
 public:
  using Builder = std::function<core::MachineSnapshot()>;

  /// Store attachment resolved from the environment (see StoreOptions).
  SnapshotCache();
  explicit SnapshotCache(const StoreOptions& options);

  /// Returns the snapshot for `key`, invoking `build` once per key (even
  /// under concurrent callers) while the key stays cached.  If the builder
  /// throws, the error propagates to its caller and nothing is cached, so
  /// the next caller of that key re-attempts the build.  With a store, a
  /// dehydrated entry is rehydrated from store pages instead of rebuilt
  /// (still a hit).
  std::shared_ptr<const core::MachineSnapshot> get(const std::string& key,
                                                   const Builder& build);

  struct Stats {
    uint64_t builds = 0;  // snapshots actually built
    uint64_t hits = 0;    // requests served from the cache
    uint64_t misses = 0;  // requests that had to build (≥ builds: a
                          // throwing builder is a miss but not a build)
    double build_ms = 0.0;        // wall time spent inside builders
    uint64_t entries = 0;         // keys the cache holds
    uint64_t snapshot_pages = 0;  // mapped pages across hydrated snapshots
    uint64_t shared_pages = 0;    // of those, pages currently shared (COW)
    // --- store-backed operation (zeros without a store) ---
    uint64_t dehydrations = 0;    // hydrated entries dropped from the hot set
    uint64_t rehydrations = 0;    // hits served by hydrating store pages
    uint64_t disk_rehydrations = 0;  // entries revived from a prior
                                     // process's disk tier (once per entry)
    uint64_t stored_snapshots = 0;   // entries with a dehydrated form
    uint64_t hydrated_snapshots = 0;  // entries currently materialized
    double hydrate_ms = 0.0;      // wall time spent rehydrating
    bool store_enabled = false;
    mem::PageStore::Stats store;  // page-level dedup/compression/disk
  };
  /// builds/hits/misses/…_ms and the (re|de)hydration counters are running
  /// counters; page counts and store occupancies are recomputed at call
  /// time (shared_pages is a point-in-time reading that depends on which
  /// forks are alive).  Hit *rate* is hits / (hits + misses), computed by
  /// display code.  Programmatic mirror of the --time console line: the
  /// serve daemon's `status` reply and the tests read these directly
  /// instead of parsing stderr.
  Stats stats() const;

  /// The attached page store (nullptr without one) — bench/test hook for
  /// drop_caches()/flush()-style tier forcing.
  mem::PageStore* store() { return store_.get(); }

  /// Drops every hydrated snapshot, then evicts cold store pages — forces
  /// the next get() of each key through the store path.  Bench/test hook;
  /// no-op without a store.
  void drop_hydrated();

  /// Blocks until the store's write-behind queue is durable.  Call before
  /// a planned process exit so a restart sees every warm snapshot.
  void flush_disk();

 private:
  /// A key's dehydrated form.
  struct Stored {
    std::shared_ptr<const core::StoredSnapshot> snapshot;
    bool from_disk = false;  // a prior process's blob, not yet rehydrated
  };

  void load_disk_blobs();
  /// The hot set's builder: rehydrates `key`'s stored form when there is
  /// one, and otherwise builds, dehydrates and queues the blob.
  std::shared_ptr<const core::MachineSnapshot> resolve(const std::string& key,
                                                       const Builder& build);

  StoreOptions options_;
  std::unique_ptr<mem::PageStore> store_;  // null when !options_.enabled
  util::Memo<std::string, core::MachineSnapshot> hot_;

  // Guards stored_ and stats_.  Taken before hot_'s lock, never under it:
  // hot_ runs resolve() unlocked.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Stored> stored_;
  Stats stats_;  // the counters resolve() and drop_hydrated() keep
};

}  // namespace ptaint::campaign
