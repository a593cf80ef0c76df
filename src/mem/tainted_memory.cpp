#include "mem/tainted_memory.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>

namespace ptaint::mem {
namespace {

constexpr uint32_t page_offset(uint32_t addr) {
  return addr & (TaintedMemory::kPageSize - 1);
}

bool get_bit(const std::array<uint8_t, TaintedMemory::kPageSize / 8>& bits,
             uint32_t i) {
  return (bits[i >> 3] >> (i & 7)) & 1;
}

void set_bit(std::array<uint8_t, TaintedMemory::kPageSize / 8>& bits,
             uint32_t i, bool v) {
  if (v) {
    bits[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
  } else {
    bits[i >> 3] &= static_cast<uint8_t>(~(1u << (i & 7)));
  }
}

uint8_t get_aprov(const std::array<uint8_t, TaintedMemory::kPageSize / 2>& a,
                  uint32_t i) {
  return static_cast<uint8_t>((a[i >> 1] >> ((i & 1) * 4)) & kByteAddrMask);
}

uint64_t next_memory_id() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

TaintedMemory::TaintedMemory() : id_(next_memory_id()) {}

void TaintedMemory::share_from(const TaintedMemory& other) {
  pages_ = other.pages_;  // every page shared, copy-on-write from here on
  tainted_total_ = other.tainted_total_;
  addr_total_ = other.addr_total_;
  tainted_pages_ = other.tainted_pages_;
  base_id_ = other.id_;
  tracking_ = true;
  dirty_.clear();
  memo_index_ = kNoPage;
  memo_page_ = nullptr;
  wmemo_index_ = kNoPage;
  wmemo_page_ = nullptr;
  qstats_ = {};
  ++cstats_.shares;
  // The source's pages are shared now, so its write memo (which promises
  // exclusive ownership) must go.  Conditional so that copying *from* an
  // immutable snapshot — the concurrent campaign case — never writes to it.
  if (other.wmemo_index_ != kNoPage) {
    other.wmemo_index_ = kNoPage;
    other.wmemo_page_ = nullptr;
  }
}

void TaintedMemory::deep_copy_from(const TaintedMemory& other) {
  if (this == &other) return;
  pages_.clear();
  pages_.reserve(other.pages_.size());
  for (const auto& [idx, page] : other.pages_) {
    pages_.emplace(idx, std::make_shared<Page>(*page));
  }
  // Page summaries deep-copy with the pages; the rollups transfer directly.
  tainted_total_ = other.tainted_total_;
  addr_total_ = other.addr_total_;
  tainted_pages_ = other.tainted_pages_;
  base_id_ = 0;
  tracking_ = false;
  dirty_.clear();
  memo_index_ = kNoPage;
  memo_page_ = nullptr;
  wmemo_index_ = kNoPage;
  wmemo_page_ = nullptr;
  qstats_ = {};
}

bool TaintedMemory::delta_restore(const TaintedMemory& base) {
  if (!tracking_ || base_id_ != base.id_ || this == &base) return false;
  for (uint32_t idx : dirty_) {
    const auto it = base.pages_.find(idx);
    if (it == base.pages_.end()) {
      pages_.erase(idx);  // page created after the copy: unmap it again
    } else {
      pages_[idx] = it->second;  // diverged page: drop back to the shared block
    }
  }
  cstats_.pages_delta_restored += dirty_.size();
  dirty_.clear();
  // Clean pages still share the base's blocks and the dirty ones were just
  // reverted, so the rollups are the base's rollups — no scan needed.
  tainted_total_ = base.tainted_total_;
  addr_total_ = base.addr_total_;
  tainted_pages_ = base.tainted_pages_;
  memo_index_ = kNoPage;
  memo_page_ = nullptr;
  wmemo_index_ = kNoPage;
  wmemo_page_ = nullptr;
  qstats_ = {};
  ++cstats_.delta_restores;
  // Same conditional write-memo invalidation as share_from (no-op for the
  // shared-snapshot case, where the base never had a write memo).
  if (base.wmemo_index_ != kNoPage) {
    base.wmemo_index_ = kNoPage;
    base.wmemo_page_ = nullptr;
  }
  return true;
}

void TaintedMemory::forget_base() {
  tracking_ = false;
  base_id_ = 0;
  dirty_.clear();
}

bool TaintedMemory::holds_words(uint32_t addr,
                                std::span<const uint32_t> words) const {
  size_t i = 0;
  while (i < words.size()) {
    const uint32_t a = addr + 4 * static_cast<uint32_t>(i);
    const uint32_t off = page_offset(a);
    const size_t n = std::min<size_t>(words.size() - i, (kPageSize - off) / 4);
    const Page* p = page_at(a >> kPageShift);
    for (size_t k = 0; k < n; ++k, ++i) {
      uint32_t v = 0;
      if (p != nullptr) {
        const uint8_t* d = p->data.data() + off + 4 * k;
        v = static_cast<uint32_t>(d[0]) | (static_cast<uint32_t>(d[1]) << 8) |
            (static_cast<uint32_t>(d[2]) << 16) |
            (static_cast<uint32_t>(d[3]) << 24);
      }
      if (v != words[i]) return false;
    }
  }
  return true;
}

std::shared_ptr<const TaintedMemory::Page> TaintedMemory::pin_page(
    uint32_t idx) {
  const auto it = pages_.find(idx);
  if (it == pages_.end()) return nullptr;
  // The write memo promises exclusive ownership, which this share ends.
  if (wmemo_index_ == idx) {
    wmemo_index_ = kNoPage;
    wmemo_page_ = nullptr;
  }
  return it->second;
}

std::vector<std::pair<uint32_t, std::shared_ptr<TaintedMemory::Page>>>
TaintedMemory::page_blocks() const {
  std::vector<std::pair<uint32_t, std::shared_ptr<Page>>> out;
  out.reserve(pages_.size());
  for (const auto& [idx, page] : pages_) out.emplace_back(idx, page);
  return out;
}

void TaintedMemory::replace_page_block(uint32_t idx,
                                       std::shared_ptr<Page> block) {
  auto it = pages_.find(idx);
  if (it == pages_.end()) return;
  it->second = std::move(block);
  // The old block may be what the memos point at.
  memo_index_ = kNoPage;
  memo_page_ = nullptr;
  wmemo_index_ = kNoPage;
  wmemo_page_ = nullptr;
}

void TaintedMemory::adopt_page_blocks(
    std::vector<std::pair<uint32_t, std::shared_ptr<Page>>> blocks) {
  pages_.clear();
  pages_.reserve(blocks.size());
  tainted_total_ = 0;
  addr_total_ = 0;
  tainted_pages_ = 0;
  for (auto& [idx, page] : blocks) {
    tainted_total_ += page->tainted_bytes;
    addr_total_ += page->addr_bytes;
    if (page->tainted_bytes > 0) ++tainted_pages_;
    pages_[idx] = std::move(page);
  }
  base_id_ = 0;
  tracking_ = false;
  dirty_.clear();
  memo_index_ = kNoPage;
  memo_page_ = nullptr;
  wmemo_index_ = kNoPage;
  wmemo_page_ = nullptr;
  qstats_ = {};
}

size_t TaintedMemory::shared_page_count() const {
  size_t n = 0;
  for (const auto& [idx, page] : pages_) {
    if (page.use_count() > 1) ++n;
  }
  return n;
}

TaintedMemory::Page& TaintedMemory::page_for_slow(uint32_t idx) {
  auto& slot = pages_[idx];
  if (!slot) {
    slot = std::make_shared<Page>();
  } else if (slot.use_count() > 1) {
    // Copy-on-write break: we hold one of several references, but other
    // holders can only *release* theirs (a snapshot's refs are immutable
    // and machine copies happen on their own threads), so the use_count
    // test is a stable exclusivity check for the owning thread.
    slot = std::make_shared<Page>(*slot);
    ++cstats_.cow_breaks;
  }
  if (tracking_) dirty_.insert(idx);
  // Both memos move to the (now exclusively-owned) page: the read memo must
  // never keep serving a superseded shared block.
  wmemo_index_ = idx;
  wmemo_page_ = slot.get();
  memo_index_ = idx;
  memo_page_ = slot.get();
  return *slot;
}

TaintedByte TaintedMemory::load_byte_slow(uint32_t addr) const {
  ++qstats_.loads;
  const Page* p = find_page(addr);
  if (!p) return {};
  const uint32_t off = page_offset(addr);
  if ((p->tainted_bytes | p->addr_bytes) == 0) {
    ++qstats_.clean_page_loads;
    return {p->data[off], uint8_t{0}};
  }
  return {p->data[off], gather_planes1(*p, off)};
}

void TaintedMemory::store_byte_slow(uint32_t addr, TaintedByte b) {
  Page& p = page_for(addr);
  const uint32_t off = page_offset(addr);
  p.data[off] = b.value;
  if (b.planes == 0 && (p.tainted_bytes | p.addr_bytes) == 0) {
    return;  // clean page stays clean
  }
  store_byte_taint(p, off, b.planes);
}

void TaintedMemory::store_byte_aprov(Page& p, uint32_t off, uint8_t nib) {
  const uint8_t old = get_aprov(p.aprov, off);
  if (old == nib) return;
  const int sh = (off & 1) * 4;
  uint8_t& slot = p.aprov[off >> 1];
  slot = static_cast<uint8_t>((slot & ~(0xfu << sh)) | (nib << sh));
  const int32_t delta = (nib != 0) - (old != 0);
  p.addr_bytes = static_cast<uint32_t>(
      static_cast<int64_t>(p.addr_bytes) + delta);
  addr_total_ =
      static_cast<uint64_t>(static_cast<int64_t>(addr_total_) + delta);
}

void TaintedMemory::store_byte_taint(Page& p, uint32_t off, uint8_t planes) {
  const bool tainted = (planes & kByteData) != 0;
  const bool old = get_bit(p.taint, off);
  if (old != tainted) {
    set_bit(p.taint, off, tainted);
    adjust_taint(p, tainted ? 1 : -1);
  }
  const uint8_t nib = static_cast<uint8_t>(planes & kByteAddrMask);
  if (nib != 0 || p.addr_bytes != 0) store_byte_aprov(p, off, nib);
}

TaintedWord TaintedMemory::load_half(uint32_t addr) const {
  if ((addr & 1) == 0) {
    // Aligned halves sit inside one page and one taint byte.
    ++qstats_.loads;
    const Page* p = find_page(addr);
    if (!p) return {};
    const uint32_t off = page_offset(addr);
    const uint8_t* d = p->data.data() + off;
    TaintedWord w;
    w.value = static_cast<uint32_t>(d[0]) | (static_cast<uint32_t>(d[1]) << 8);
    if ((p->tainted_bytes | p->addr_bytes) == 0) {
      ++qstats_.clean_page_loads;
      return w;
    }
    if (p->tainted_bytes != 0) {
      w.taint =
          static_cast<TaintBits>((p->taint[off >> 3] >> (off & 7)) & 0x3);
    }
    if (p->addr_bytes != 0) {
      w.taint |= planes_to_word(get_aprov(p->aprov, off), 0);
      w.taint |= planes_to_word(get_aprov(p->aprov, off + 1), 1);
    }
    return w;
  }
  TaintedWord w;
  for (int i = 0; i < 2; ++i) {
    TaintedByte b = load_byte(addr + i);
    w.value |= static_cast<uint32_t>(b.value) << (8 * i);
    w.taint |= planes_to_word(b.planes, i);
  }
  return w;
}

void TaintedMemory::store_half(uint32_t addr, TaintedWord w) {
  if ((addr & 1) == 0) {
    Page& p = page_for(addr);
    const uint32_t off = page_offset(addr);
    p.data[off] = static_cast<uint8_t>(w.value);
    p.data[off + 1] = static_cast<uint8_t>(w.value >> 8);
    if (w.taint == 0 && (p.tainted_bytes | p.addr_bytes) == 0) {
      return;  // clean-page fast path
    }
    const uint8_t fresh = static_cast<uint8_t>(w.taint & 0x3u);
    const int sh = off & 7;
    uint8_t& t = p.taint[off >> 3];
    const uint8_t old = static_cast<uint8_t>((t >> sh) & 0x3u);
    if (old != fresh) {
      t = static_cast<uint8_t>((t & ~(0x3u << sh)) | (fresh << sh));
      adjust_taint(p, std::popcount(fresh) - std::popcount(old));
    }
    if (addr_tainted(w.taint) || p.addr_bytes != 0) {
      store_byte_aprov(p, off,
                       static_cast<uint8_t>(byte_planes(w.taint, 0) &
                                            kByteAddrMask));
      store_byte_aprov(p, off + 1,
                       static_cast<uint8_t>(byte_planes(w.taint, 1) &
                                            kByteAddrMask));
    }
    return;
  }
  for (int i = 0; i < 2; ++i) {
    store_byte(addr + i, {static_cast<uint8_t>(w.value >> (8 * i)),
                          byte_planes(w.taint, i)});
  }
}

TaintedWord TaintedMemory::load_word_slow(uint32_t addr) const {
  if ((addr & 3) == 0) {
    // Aligned words sit inside one page, and their 4 taint bits inside one
    // taint byte (offset is a multiple of 4) — one lookup for the whole
    // access.  This is the instruction-fetch and lw/sw fast path; on a
    // fully-untainted page the taint gather is skipped outright.
    ++qstats_.loads;
    const Page* p = find_page(addr);
    if (!p) return {};
    const uint32_t off = page_offset(addr);
    const uint8_t* d = p->data.data() + off;
    TaintedWord w;
    w.value = static_cast<uint32_t>(d[0]) |
              (static_cast<uint32_t>(d[1]) << 8) |
              (static_cast<uint32_t>(d[2]) << 16) |
              (static_cast<uint32_t>(d[3]) << 24);
    if ((p->tainted_bytes | p->addr_bytes) == 0) {
      ++qstats_.clean_page_loads;
      return w;
    }
    w.taint = gather_taint4(*p, off);
    return w;
  }
  TaintedWord w;
  for (int i = 0; i < 4; ++i) {
    TaintedByte b = load_byte(addr + i);
    w.value |= static_cast<uint32_t>(b.value) << (8 * i);
    w.taint |= planes_to_word(b.planes, i);
  }
  return w;
}

void TaintedMemory::store_word_taint(Page& p, uint32_t off, TaintBits fresh) {
  const uint8_t fresh_data = static_cast<uint8_t>(fresh & 0xfu);
  const int sh = off & 7;
  uint8_t& t = p.taint[off >> 3];
  const uint8_t old = static_cast<uint8_t>((t >> sh) & 0xfu);
  if (old != fresh_data) {
    t = static_cast<uint8_t>((t & ~(0xfu << sh)) | (fresh_data << sh));
    adjust_taint(p, std::popcount(fresh_data) - std::popcount(old));
  }
  if (addr_tainted(fresh) || p.addr_bytes != 0) {
    for (int i = 0; i < 4; ++i) {
      store_byte_aprov(
          p, off + static_cast<uint32_t>(i),
          static_cast<uint8_t>(byte_planes(fresh, i) & kByteAddrMask));
    }
  }
}

void TaintedMemory::store_word_slow(uint32_t addr, TaintedWord w) {
  if ((addr & 3) == 0) {
    Page& p = page_for(addr);
    const uint32_t off = page_offset(addr);
    uint8_t* d = p.data.data() + off;
    d[0] = static_cast<uint8_t>(w.value);
    d[1] = static_cast<uint8_t>(w.value >> 8);
    d[2] = static_cast<uint8_t>(w.value >> 16);
    d[3] = static_cast<uint8_t>(w.value >> 24);
    if (w.taint == 0 && (p.tainted_bytes | p.addr_bytes) == 0) {
      return;  // clean-page fast path
    }
    store_word_taint(p, off, w.taint);
    return;
  }
  for (int i = 0; i < 4; ++i) {
    store_byte(addr + i, {static_cast<uint8_t>(w.value >> (8 * i)),
                          byte_planes(w.taint, i)});
  }
}

void TaintedMemory::write_block(uint32_t addr, std::span<const uint8_t> data,
                                bool tainted) {
  size_t done = 0;
  while (done < data.size()) {
    Page& p = page_for(addr);
    const uint32_t off = page_offset(addr);
    const uint32_t chunk = std::min<uint32_t>(
        kPageSize - off, static_cast<uint32_t>(data.size() - done));
    std::copy_n(data.data() + done, chunk, p.data.data() + off);
    if (tainted || p.tainted_bytes != 0) {
      for (uint32_t i = 0; i < chunk; ++i) {
        const bool old = get_bit(p.taint, off + i);
        if (old != tainted) {
          set_bit(p.taint, off + i, tainted);
          adjust_taint(p, tainted ? 1 : -1);
        }
      }
    }
    if (p.addr_bytes != 0) {
      // Overwritten bytes hold fresh kernel data: no address provenance.
      for (uint32_t i = 0; i < chunk; ++i) store_byte_aprov(p, off + i, 0);
    }
    done += chunk;
    addr += chunk;
  }
}

std::vector<uint8_t> TaintedMemory::read_block(uint32_t addr,
                                               uint32_t len) const {
  std::vector<uint8_t> out(len);
  for (uint32_t i = 0; i < len; ++i) out[i] = load_byte(addr + i).value;
  return out;
}

std::string TaintedMemory::read_cstring(uint32_t addr, uint32_t max_len) const {
  std::string out;
  for (uint32_t i = 0; i < max_len; ++i) {
    uint8_t c = load_byte(addr + i).value;
    if (c == 0) break;
    out.push_back(static_cast<char>(c));
  }
  return out;
}

void TaintedMemory::set_taint(uint32_t addr, uint32_t len, bool tainted) {
  uint32_t done = 0;
  while (done < len) {
    Page& p = page_for(addr);
    const uint32_t off = page_offset(addr);
    const uint32_t chunk = std::min<uint32_t>(kPageSize - off, len - done);
    if (tainted || p.tainted_bytes != 0) {
      for (uint32_t i = 0; i < chunk; ++i) {
        const bool old = get_bit(p.taint, off + i);
        if (old != tainted) {
          set_bit(p.taint, off + i, tainted);
          adjust_taint(p, tainted ? 1 : -1);
        }
      }
    }
    done += chunk;
    addr += chunk;
  }
}

void TaintedMemory::set_addr_taint(uint32_t addr, uint32_t len,
                                   uint8_t planes) {
  const uint8_t nib = static_cast<uint8_t>(planes & kByteAddrMask);
  uint32_t done = 0;
  while (done < len) {
    Page& p = page_for(addr);
    const uint32_t off = page_offset(addr);
    const uint32_t chunk = std::min<uint32_t>(kPageSize - off, len - done);
    if (nib != 0 || p.addr_bytes != 0) {
      for (uint32_t i = 0; i < chunk; ++i) store_byte_aprov(p, off + i, nib);
    }
    done += chunk;
    addr += chunk;
  }
}

bool TaintedMemory::any_tainted_in(uint32_t addr, uint32_t len) const {
  if (tainted_pages_ == 0 || len == 0) return false;
  // Walk page by page; the summary skips fully-untainted pages without
  // touching their bitmaps, so queries spanning page boundaries only scan
  // the dirty pages they overlap.
  uint32_t done = 0;
  while (done < len) {
    const uint32_t off = page_offset(addr);
    const uint32_t chunk = std::min<uint32_t>(kPageSize - off, len - done);
    const Page* p = find_page(addr);
    if (p && p->tainted_bytes != 0) {
      if (p->tainted_bytes == kPageSize) return true;  // saturated page
      for (uint32_t i = 0; i < chunk; ++i) {
        if (get_bit(p->taint, off + i)) return true;
      }
    }
    done += chunk;
    addr += chunk;
  }
  return false;
}

uint8_t TaintedMemory::addr_planes_in(uint32_t addr, uint32_t len) const {
  if (addr_total_ == 0 || len == 0) return 0;
  uint8_t planes = 0;
  uint32_t done = 0;
  while (done < len) {
    const uint32_t off = page_offset(addr);
    const uint32_t chunk = std::min<uint32_t>(kPageSize - off, len - done);
    const Page* p = find_page(addr);
    if (p && p->addr_bytes != 0) {
      for (uint32_t i = 0; i < chunk; ++i) {
        planes |= get_aprov(p->aprov, off + i);
      }
      if (planes == kByteAddrMask) return planes;  // saturated
    }
    done += chunk;
    addr += chunk;
  }
  return planes;
}

std::optional<uint32_t> TaintedMemory::first_addr_tainted(uint32_t addr,
                                                          uint32_t len) const {
  if (addr_total_ == 0 || len == 0) return std::nullopt;
  uint32_t done = 0;
  while (done < len) {
    const uint32_t off = page_offset(addr);
    const uint32_t chunk = std::min<uint32_t>(kPageSize - off, len - done);
    const Page* p = find_page(addr);
    if (p && p->addr_bytes != 0) {
      for (uint32_t i = 0; i < chunk; ++i) {
        if (get_aprov(p->aprov, off + i) != 0) return addr + i;
      }
    }
    done += chunk;
    addr += chunk;
  }
  return std::nullopt;
}

TaintedMemory::JitLayout TaintedMemory::jit_layout() const {
  // The emitted clean-page test reads tainted_bytes and addr_bytes as one
  // aligned qword; pin the layout facts it depends on.
  static_assert(offsetof(Page, data) == 0);
  static_assert(offsetof(Page, tainted_bytes) % 8 == 0);
  static_assert(offsetof(Page, addr_bytes) ==
                offsetof(Page, tainted_bytes) + 4);
  // TaintedMemory itself is not standard-layout (hash maps), so the memo
  // offsets are measured from a live object instead of offsetof.
  const char* base = reinterpret_cast<const char*>(this);
  JitLayout l;
  l.memo_index =
      static_cast<uint32_t>(reinterpret_cast<const char*>(&memo_index_) - base);
  l.memo_page =
      static_cast<uint32_t>(reinterpret_cast<const char*>(&memo_page_) - base);
  l.wmemo_index = static_cast<uint32_t>(
      reinterpret_cast<const char*>(&wmemo_index_) - base);
  l.wmemo_page =
      static_cast<uint32_t>(reinterpret_cast<const char*>(&wmemo_page_) - base);
  l.page_data = offsetof(Page, data);
  l.page_summary = offsetof(Page, tainted_bytes);
  return l;
}

}  // namespace ptaint::mem
