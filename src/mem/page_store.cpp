#include "mem/page_store.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

namespace ptaint::mem {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t fnv1a(uint64_t h, const uint8_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

// Page-file header: magic, format version, raw size, compressed size.
constexpr uint32_t kPageMagic = 0x47505450u;  // "PTPG"
constexpr uint32_t kPageVersion = 1;

/// PackBits-style RLE: control byte c < 128 emits c+1 literal bytes,
/// c >= 128 repeats the next byte 257-c times (2..129 capped to 128).
void pack(const uint8_t* src, size_t n, std::vector<uint8_t>& out) {
  size_t i = 0;
  while (i < n) {
    size_t run = 1;
    while (i + run < n && src[i + run] == src[i] && run < 128) ++run;
    if (run >= 2) {
      out.push_back(static_cast<uint8_t>(257 - run));
      out.push_back(src[i]);
      i += run;
      continue;
    }
    size_t lit = 1;
    while (i + lit < n && lit < 128) {
      if (i + lit + 2 < n && src[i + lit] == src[i + lit + 1] &&
          src[i + lit] == src[i + lit + 2]) {
        break;  // an upcoming run of >= 3 ends the literal stretch
      }
      ++lit;
    }
    out.push_back(static_cast<uint8_t>(lit - 1));
    out.insert(out.end(), src + i, src + i + lit);
    i += lit;
  }
}

bool unpack(const uint8_t* src, size_t n, uint8_t* dst, size_t dst_size) {
  size_t i = 0, o = 0;
  while (i < n) {
    const uint8_t c = src[i++];
    if (c < 128) {
      const size_t lit = static_cast<size_t>(c) + 1;
      if (i + lit > n || o + lit > dst_size) return false;
      std::memcpy(dst + o, src + i, lit);
      i += lit;
      o += lit;
    } else {
      const size_t run = 257 - static_cast<size_t>(c);
      if (i >= n || o + run > dst_size) return false;
      std::memset(dst + o, src[i++], run);
      o += run;
    }
  }
  return o == dst_size;
}

std::string page_file_name(const PageStore::Key& key) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "p-%016llx-%u.page",
                static_cast<unsigned long long>(key.hash), key.slot);
  return buf;
}

/// Write-to-temp + rename: a crash mid-write leaves a stale .tmp file,
/// never a torn page/blob (readers treat absent/corrupt files as a miss).
bool durable_write(const std::filesystem::path& path,
                   const std::vector<uint8_t>& bytes) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) return false;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  return !ec;
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t get_u32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint64_t PageStore::hash_page(const Page& page) {
  uint64_t h = kFnvOffset;
  h = fnv1a(h, page.data.data(), page.data.size());
  h = fnv1a(h, page.taint.data(), page.taint.size());
  h = fnv1a(h, page.aprov.data(), page.aprov.size());
  return h;
}

std::vector<uint8_t> PageStore::compress_page(const Page& page) {
  std::vector<uint8_t> out;
  out.reserve(256);
  pack(page.data.data(), page.data.size(), out);
  pack(page.taint.data(), page.taint.size(), out);
  pack(page.aprov.data(), page.aprov.size(), out);
  return out;
}

std::shared_ptr<PageStore::Page> PageStore::decompress_page(
    const uint8_t* data, size_t size) {
  // The three plane streams were packed back to back; unpack them as one
  // buffer (PackBits never emits a control byte without its payload, so
  // the concatenation round-trips).
  std::vector<uint8_t> raw(kPlaneBytes);
  if (!unpack(data, size, raw.data(), raw.size())) return nullptr;
  auto page = std::make_shared<Page>();
  const uint8_t* p = raw.data();
  std::memcpy(page->data.data(), p, page->data.size());
  p += page->data.size();
  std::memcpy(page->taint.data(), p, page->taint.size());
  p += page->taint.size();
  std::memcpy(page->aprov.data(), p, page->aprov.size());
  // Summaries are derived state: recompute instead of trusting the image.
  uint32_t tainted = 0;
  for (uint8_t b : page->taint) tainted += std::popcount(b);
  page->tainted_bytes = tainted;
  uint32_t addr = 0;
  for (uint8_t b : page->aprov) {
    addr += (b & 0x0f) != 0;
    addr += (b & 0xf0) != 0;
  }
  page->addr_bytes = addr;
  return page;
}

PageStore::PageStore(Config config) : config_(std::move(config)) {
  if (config_.disk_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(config_.disk_dir, ec);
  // Register page files from a previous run: content stays on disk until
  // fetched, so a warm restart costs an index entry per page, not a read.
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.disk_dir, ec)) {
    unsigned long long hash = 0;
    unsigned slot = 0;
    const std::string name = entry.path().filename().string();
    if (std::sscanf(name.c_str(), "p-%16llx-%u.page", &hash, &slot) != 2 ||
        name.size() < 7 || name.substr(name.size() - 5) != ".page") {
      continue;
    }
    auto& bucket = index_[hash];
    if (bucket.size() <= slot) bucket.resize(slot + 1);
    bucket[slot].present = true;
    bucket[slot].on_disk = true;
  }
  writer_ = std::thread([this] { writer_main(); });
}

PageStore::~PageStore() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(write_mutex_);
      write_stop_ = true;
    }
    write_cv_.notify_all();
    writer_.join();  // the writer drains the queue before exiting
  }
}

const PageStore::Slot* PageStore::find_slot(const Key& key) const {
  auto it = index_.find(key.hash);
  if (it == index_.end() || key.slot >= it->second.size()) return nullptr;
  const Slot& slot = it->second[key.slot];
  return slot.present ? &slot : nullptr;
}

PageStore::Slot* PageStore::find_slot(const Key& key) {
  return const_cast<Slot*>(std::as_const(*this).find_slot(key));
}

std::shared_ptr<PageStore::Page> PageStore::load_from_disk(const Key& key) {
  const std::filesystem::path path =
      std::filesystem::path(config_.disk_dir) / page_file_name(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  if (bytes.size() < 16) return nullptr;
  if (get_u32(bytes.data()) != kPageMagic ||
      get_u32(bytes.data() + 4) != kPageVersion ||
      get_u32(bytes.data() + 8) != kPlaneBytes) {
    return nullptr;
  }
  const uint32_t comp = get_u32(bytes.data() + 12);
  if (bytes.size() != 16 + static_cast<size_t>(comp)) return nullptr;
  return decompress_page(bytes.data() + 16, comp);
}

std::pair<std::shared_ptr<PageStore::Page>, PageStore::Key> PageStore::intern(
    std::shared_ptr<Page> page) {
  const uint64_t hash = hash_page(*page);
  std::unique_lock<std::mutex> lock(mutex_);
  ++stats_.interned_refs;
  auto& bucket = index_[hash];
  for (uint32_t i = 0; i < bucket.size(); ++i) {
    Slot& slot = bucket[i];
    if (!slot.present) continue;
    const Key key{hash, i};
    // Materialize for the exact-content compare (bucket scans are almost
    // always a single hot slot; inflating here is the rare collision or
    // evicted-content path, and the block is about to be referenced anyway).
    std::shared_ptr<Page> canon = slot.hot;
    if (!canon && !slot.compressed.empty()) {
      canon = decompress_page(slot.compressed.data(), slot.compressed.size());
      ++stats_.decompressions;
    }
    if (!canon && slot.on_disk) {
      canon = load_from_disk(key);
      ++stats_.disk_reads;
    }
    if (!canon) continue;  // unreadable page file: treat as vacant content
    if (canon->data != page->data || canon->taint != page->taint ||
        canon->aprov != page->aprov) {
      continue;  // full-hash collision: try the next slot
    }
    if (!slot.hot) {
      slot.hot = canon;
      ++hot_count_;
    }
    slot.last_touch = ++tick_;
    ++stats_.dedup_hits;
    return {slot.hot, key};
  }
  // New content: claim a vacant slot id or append one.
  uint32_t slot_id = static_cast<uint32_t>(bucket.size());
  for (uint32_t i = 0; i < bucket.size(); ++i) {
    if (!bucket[i].present) {
      slot_id = i;
      break;
    }
  }
  if (slot_id == bucket.size()) bucket.emplace_back();
  Slot& slot = bucket[slot_id];
  slot = Slot{};
  slot.present = true;
  slot.hot = page;
  slot.last_touch = ++tick_;
  ++hot_count_;
  const Key key{hash, slot_id};
  if (!config_.disk_dir.empty()) {
    slot.queued = true;
    PendingWrite w;
    w.name = page_file_name(key);
    w.page = page;
    w.key = key;
    {
      std::lock_guard<std::mutex> wlock(write_mutex_);
      write_queue_.push_back(std::move(w));
    }
    write_cv_.notify_all();
  }
  evict_cold_locked(lock);
  return {std::move(page), key};
}

std::shared_ptr<PageStore::Page> PageStore::fetch(const Key& key) {
  std::unique_lock<std::mutex> lock(mutex_);
  Slot* slot = find_slot(key);
  if (!slot) return nullptr;
  slot->last_touch = ++tick_;
  if (slot->hot) return slot->hot;
  if (!slot->compressed.empty()) {
    slot->hot =
        decompress_page(slot->compressed.data(), slot->compressed.size());
    ++stats_.decompressions;
  } else if (slot->on_disk) {
    slot->hot = load_from_disk(key);
    ++stats_.disk_reads;
  }
  if (slot->hot) ++hot_count_;
  return slot->hot;
}

bool PageStore::contains(const Key& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return find_slot(key) != nullptr;
}

void PageStore::evict_cold() {
  std::unique_lock<std::mutex> lock(mutex_);
  evict_cold_locked(lock);
}

void PageStore::evict_cold_locked(std::unique_lock<std::mutex>& lock) {
  (void)lock;
  if (hot_count_ <= config_.hot_page_budget) return;
  // Coldest-first over evictable blocks: materialized, and the store holds
  // the only reference (a block shared with a hydrated snapshot or a live
  // machine stays hot — compressing it would save nothing).
  std::vector<std::pair<uint64_t, Slot*>> victims;
  for (auto& [hash, bucket] : index_) {
    for (Slot& slot : bucket) {
      if (slot.present && slot.hot && slot.hot.use_count() == 1) {
        victims.emplace_back(slot.last_touch, &slot);
      }
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [touch, slot] : victims) {
    if (hot_count_ <= config_.hot_page_budget) break;
    if (slot->compressed.empty()) {
      slot->compressed = compress_page(*slot->hot);
    }
    slot->hot.reset();
    --hot_count_;
    ++stats_.evictions;
  }
}

void PageStore::drop_caches(bool compressed_images) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [hash, bucket] : index_) {
    for (Slot& slot : bucket) {
      if (!slot.present) continue;
      if (slot.hot && slot.hot.use_count() == 1) {
        if (slot.compressed.empty() && !slot.on_disk) {
          slot.compressed = compress_page(*slot.hot);
        }
        slot.hot.reset();
        --hot_count_;
        ++stats_.evictions;
      }
      if (compressed_images && slot.on_disk && !slot.queued) {
        slot.compressed.clear();
        slot.compressed.shrink_to_fit();
      }
    }
  }
}

void PageStore::queue_blob(const std::string& name,
                           std::vector<uint8_t> bytes) {
  if (config_.disk_dir.empty()) return;
  PendingWrite w;
  w.name = name;
  w.bytes = std::move(bytes);
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    write_queue_.push_back(std::move(w));
  }
  write_cv_.notify_all();
}

void PageStore::flush() {
  std::unique_lock<std::mutex> lock(write_mutex_);
  write_cv_.wait(lock, [this] {
    return write_queue_.empty() && writes_in_flight_ == 0;
  });
}

void PageStore::writer_main() {
  for (;;) {
    PendingWrite w;
    {
      std::unique_lock<std::mutex> lock(write_mutex_);
      write_cv_.wait(lock,
                     [this] { return !write_queue_.empty() || write_stop_; });
      if (write_queue_.empty()) return;  // stop requested and drained
      w = std::move(write_queue_.front());
      write_queue_.pop_front();
      ++writes_in_flight_;
    }
    // Compress and write without any lock held: page bytes are immutable
    // once interned (the store's own reference keeps writers cloning).
    std::vector<uint8_t> bytes;
    if (w.page) {
      const std::vector<uint8_t> comp = compress_page(*w.page);
      bytes.reserve(16 + comp.size());
      put_u32(bytes, kPageMagic);
      put_u32(bytes, kPageVersion);
      put_u32(bytes, static_cast<uint32_t>(kPlaneBytes));
      put_u32(bytes, static_cast<uint32_t>(comp.size()));
      bytes.insert(bytes.end(), comp.begin(), comp.end());
    } else {
      bytes = std::move(w.bytes);
    }
    const bool ok = durable_write(
        std::filesystem::path(config_.disk_dir) / w.name, bytes);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (ok) ++stats_.disk_writes;
      if (w.page) {
        if (Slot* slot = find_slot(w.key)) {
          slot->queued = false;
          if (ok) slot->on_disk = true;
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(write_mutex_);
      --writes_in_flight_;
    }
    write_cv_.notify_all();
  }
}

PageStore::Stats PageStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  for (const auto& [hash, bucket] : index_) {
    for (const Slot& slot : bucket) {
      if (!slot.present) continue;
      ++out.canonical_pages;
      if (slot.hot) ++out.hot_pages;
      if (!slot.compressed.empty()) {
        ++out.compressed_pages;
        out.uncompressed_bytes += kPlaneBytes;
        out.compressed_bytes += slot.compressed.size();
      }
      if (slot.on_disk) ++out.disk_pages;
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, PageStore::Key>> intern_memory(
    PageStore& store, TaintedMemory& memory) {
  std::vector<std::pair<uint32_t, PageStore::Key>> refs;
  auto blocks = memory.page_blocks();
  refs.reserve(blocks.size());
  for (auto& [idx, block] : blocks) {
    auto [canon, key] = store.intern(block);
    if (canon.get() != block.get()) memory.replace_page_block(idx, canon);
    refs.emplace_back(idx, key);
  }
  return refs;
}

bool adopt_memory(PageStore& store, TaintedMemory& memory,
                  const std::vector<std::pair<uint32_t, PageStore::Key>>&
                      refs) {
  std::vector<std::pair<uint32_t, std::shared_ptr<TaintedMemory::Page>>>
      blocks;
  blocks.reserve(refs.size());
  for (const auto& [idx, key] : refs) {
    std::shared_ptr<TaintedMemory::Page> page = store.fetch(key);
    if (!page) return false;
    blocks.emplace_back(idx, std::move(page));
  }
  memory.adopt_page_blocks(std::move(blocks));
  return true;
}

}  // namespace ptaint::mem
