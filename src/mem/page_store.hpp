// Content-addressed page store: dedup, cold-page compression, disk tier.
//
// DESIGN.md §13.  `SnapshotCache` holds one page set per key; at service
// scale (thousands of app x policy x engine configs) the near-identical
// page images across keys dominate memory, not restore latency.  Pages are
// immutable ref-counted blocks (COW since PR 4), so identical content can
// be stored once, period:
//
//   * interning — each page is hashed (FNV-1a 64 over data + taint bitmap
//     + address-provenance nibbles) into a dedup index; an intern of
//     already-known content returns the existing canonical block.  Hash
//     collisions are handled by full-content compare
//     within the bucket, so dedup is exact, never probabilistic.
//   * compression — pages evicted from the hot working set (LRU beyond
//     `hot_page_budget`, and only once the store holds the last reference)
//     are kept as PackBits-style RLE images.  Guest pages are mostly
//     zeros/text, so ratios are large.  A later fetch() inflates lazily.
//   * disk tier — with `disk_dir` set, every interned page is also written
//     behind (compress + write-to-temp + rename on a dedicated thread), so
//     a restarted process can rehydrate warm snapshots instead of
//     rebuilding machines.  A missing/corrupt page file simply fails the
//     fetch; callers fall back to building from scratch.
//
// Thread-safe: all public methods may be called from any thread.  Page
// bytes are only ever read (pages are immutable once interned — writers
// clone first because the store's reference keeps use_count > 1), so the
// write-behind thread can compress without holding the index lock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/tainted_memory.hpp"

namespace ptaint::mem {

struct PageStoreConfig {
  /// Canonical pages kept materialized (uncompressed).  Eviction beyond
  /// the budget compresses least-recently-touched pages whose only
  /// remaining reference is the store's.
  size_t hot_page_budget = 1u << 16;
  /// Disk-tier directory; empty = memory-only store.  The directory is
  /// created if missing; page files found in it at construction are
  /// registered (a restarted daemon's warm state).
  std::string disk_dir;
};

class PageStore {
 public:
  using Page = TaintedMemory::Page;
  using Config = PageStoreConfig;

  /// Bytes of page content covered by the hash and the codec: data plane,
  /// taint bitmap, aprov nibbles (summaries are derived, not stored).
  static constexpr size_t kPlaneBytes =
      sizeof(Page{}.data) + sizeof(Page{}.taint) + sizeof(Page{}.aprov);

  /// Stable content address of an interned page.  `slot` disambiguates
  /// full-hash collisions (almost always 0) and is stable across restarts
  /// because it is part of the on-disk file name.
  struct Key {
    uint64_t hash = 0;
    uint32_t slot = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.hash ^ (k.hash >> 32) ^ k.slot);
    }
  };

  struct Stats {
    uint64_t canonical_pages = 0;   // distinct page contents interned
    uint64_t interned_refs = 0;     // intern() calls (logical pages)
    uint64_t dedup_hits = 0;        // of those, served by existing content
    uint64_t hot_pages = 0;         // currently materialized
    uint64_t compressed_pages = 0;  // with an in-memory compressed image
    uint64_t disk_pages = 0;        // durable in the disk tier
    uint64_t uncompressed_bytes = 0;  // kPlaneBytes per compressed page
    uint64_t compressed_bytes = 0;    // their RLE image sizes
    uint64_t evictions = 0;       // hot blocks dropped to compressed-only
    uint64_t decompressions = 0;  // fetches served by inflating
    uint64_t disk_reads = 0;      // fetches that had to touch a page file
    uint64_t disk_writes = 0;     // page/blob files made durable
  };

  explicit PageStore(Config config = {});
  ~PageStore();  // drains the write-behind queue

  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Interns `page` by content: returns the canonical block for that
  /// content (which is `page` itself the first time) and its key.  With a
  /// disk tier, new content is queued for write-behind.  May evict cold
  /// pages beyond the hot budget.
  std::pair<std::shared_ptr<Page>, Key> intern(std::shared_ptr<Page> page);

  /// Materializes the page for `key`: the hot block, else inflate the
  /// compressed image, else read + inflate the disk tier's page file.
  /// Returns nullptr when the key is unknown or its page file is
  /// missing/corrupt (callers rebuild from scratch).
  std::shared_ptr<Page> fetch(const Key& key);

  /// Whether `key` names interned content (checking the page refs found in
  /// an on-disk snapshot blob).
  bool contains(const Key& key) const;

  /// Compresses + drops materialized pages beyond the hot budget, coldest
  /// first, skipping pages still shared with a live snapshot.  Called
  /// internally by intern(); public for benches/tests that model memory
  /// pressure directly.
  void evict_cold();

  /// Drops every droppable materialized block and, when `compressed_images`
  /// and the disk tier is on, the in-memory compressed images too — a
  /// bench/test hook to force the next fetch through a chosen tier.
  void drop_caches(bool compressed_images);

  /// Queues an opaque blob for durable write-behind into the disk tier
  /// (`<disk_dir>/<name>`).  Ordered after everything already queued, so a
  /// snapshot blob queued after its pages' interns lands after them.
  /// No-op without a disk tier.
  void queue_blob(const std::string& name, std::vector<uint8_t> bytes);

  /// Blocks until the write-behind queue is drained and durable.
  void flush();

  Stats stats() const;
  const Config& config() const { return config_; }

  /// FNV-1a 64 over the three content planes.
  static uint64_t hash_page(const Page& page);

  /// PackBits-style RLE over the concatenated planes.  decompress_page
  /// recomputes the summaries; returns nullptr on a corrupt image.
  static std::vector<uint8_t> compress_page(const Page& page);
  static std::shared_ptr<Page> decompress_page(const uint8_t* data,
                                               size_t size);

 private:
  struct Slot {
    bool present = false;           // slot id is used (files create gaps)
    std::shared_ptr<Page> hot;      // materialized canonical block
    std::vector<uint8_t> compressed;  // RLE image ("" = not compressed yet)
    uint64_t last_touch = 0;
    bool on_disk = false;   // page file durable (or known from startup scan)
    bool queued = false;    // write-behind in flight
  };

  struct PendingWrite {
    std::string name;              // file name within disk_dir
    std::shared_ptr<Page> page;    // page write: compress then persist
    std::vector<uint8_t> bytes;    // blob write: persist as-is
    Key key;                       // page writes: slot to mark on_disk
  };

  Slot* find_slot(const Key& key);
  const Slot* find_slot(const Key& key) const;
  void evict_cold_locked(std::unique_lock<std::mutex>& lock);
  void writer_main();
  std::shared_ptr<Page> load_from_disk(const Key& key);

  Config config_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, std::vector<Slot>> index_;
  uint64_t tick_ = 0;
  size_t hot_count_ = 0;
  Stats stats_;

  std::mutex write_mutex_;
  std::condition_variable write_cv_;
  std::deque<PendingWrite> write_queue_;
  size_t writes_in_flight_ = 0;
  bool write_stop_ = false;
  std::thread writer_;
};

/// Interns every page of `memory` into `store`, swapping each block for
/// its canonical duplicate, and returns the (page index, key) list
/// describing the image.
std::vector<std::pair<uint32_t, PageStore::Key>> intern_memory(
    PageStore& store, TaintedMemory& memory);

/// Rebuilds `memory` from store-resident pages — the inverse of
/// intern_memory.  Returns false (leaving `memory` in an
/// unspecified but valid state) when any page cannot be fetched.
bool adopt_memory(PageStore& store, TaintedMemory& memory,
                  const std::vector<std::pair<uint32_t, PageStore::Key>>& refs);

}  // namespace ptaint::mem
