// Sparse byte-addressable memory extended with one taintedness bit per byte
// (the paper's Section 4.1 memory architecture).
//
// The memory is paged so a 32-bit address space costs only what the program
// touches.  All multi-byte accesses are little-endian.  Word/half accesses
// gather the per-byte taint bits into a TaintBits vector in byte order, and
// stores scatter them back, so taintedness travels with the data through the
// whole hierarchy exactly as the paper requires.
//
// Each byte additionally carries three *address-provenance* bits (stack /
// heap / text — see mem/taint.hpp), stored as a nibble array per page.
// They ride along through every load/store exactly like the data-taint bit
// and feed the SYS_WRITE/SYS_SEND leak detector; they never trip the
// pointer-taintedness gates, and all data-plane summaries and queries below
// (`tainted_byte_count`, `any_tainted_in`, ...) keep their original
// data-only semantics.
//
// Each page additionally carries sparse taint summaries: an exact count of
// its data-tainted bytes and of its address-tainted bytes, rolled up into
// global totals.  Taint state is sparse in practice (most pages never see a
// tainted byte), so loads from fully-untainted pages skip the taint-bit
// gather entirely, stores of untainted data into clean pages skip the
// scatter, `any_tainted_in` short-circuits to O(pages overlapped) and
// `tainted_byte_count` is O(1).  The summaries are derived from the taint
// bitmaps and maintained exactly on every mutation, so they survive copies
// (snapshot/restore) and `set_taint` by construction.
//
// Copy-on-write (DESIGN.md §10): pages (data + taint bits + summary) are
// immutable ref-counted blocks.  Copying a TaintedMemory shares every page
// — O(mapped pages) pointer copies, no byte movement — and the first store
// or taint-write into a shared page clones just that page.  Because pages
// are only ever mutated through an exclusively-owned reference, a
// MachineSnapshot and any number of forked machines can share one page set;
// the snapshot's image is immutable by construction.  Each copy also
// remembers the identity of the memory it was copied from plus the set of
// pages it has diverged on, so restoring from the *same* source again is a
// delta: `delta_restore` drops the dirty pages back to the shared blocks
// and touches nothing else — O(dirty set) instead of O(address space).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mem/taint.hpp"

namespace ptaint::mem {

class TaintedMemory {
 public:
  static constexpr uint32_t kPageShift = 12;
  static constexpr uint32_t kPageSize = 1u << kPageShift;

  /// One page image: data bytes plus the taint bitmap and the
  /// address-provenance nibble array, with exact sparse summaries.  Pages
  /// are immutable ref-counted blocks (see the COW notes above): anyone
  /// holding a shared_ptr<Page> alongside another owner may read it but
  /// never write it — mutation only ever happens through page_for(), which
  /// clones shared blocks first.  Public so the content-addressed snapshot
  /// store (mem/page_store.hpp, DESIGN.md §13) can hash, compress and
  /// rebuild page images.
  struct Page {
    std::array<uint8_t, kPageSize> data{};
    std::array<uint8_t, kPageSize / 8> taint{};  // 1 data bit per byte
    // Address-provenance planes, one nibble per byte (low nibble = even
    // byte): bit 1 stack, bit 2 heap, bit 3 text — the kByte* layout with
    // the data bit always clear.
    std::array<uint8_t, kPageSize / 2> aprov{};
    uint32_t tainted_bytes = 0;  // exact popcount of `taint`
    uint32_t addr_bytes = 0;     // bytes with a non-zero aprov nibble
  };

  TaintedMemory();
  /// Copies share every page copy-on-write; behaviour is indistinguishable
  /// from a deep copy (the machine snapshot/restore primitive), the cost is
  /// O(mapped pages) pointer copies.  The page memos are not carried over.
  TaintedMemory(const TaintedMemory& other) : TaintedMemory() {
    share_from(other);
  }
  TaintedMemory& operator=(const TaintedMemory& other) {
    if (this != &other) share_from(other);
    return *this;
  }
  TaintedMemory(TaintedMemory&&) = default;
  TaintedMemory& operator=(TaintedMemory&&) = default;

  /// Byte accessors.  Like the word accessors below, the memo-hit case is
  /// inlined and anything else takes the out-of-line slow path.  Loads and
  /// stores use separate memos: the store memo only ever points to an
  /// exclusively-owned (already copied-on-write, dirty-tracked) page, so
  /// the hot store path stays one compare even under page sharing.
  TaintedByte load_byte(uint32_t addr) const {
    if ((addr >> kPageShift) == memo_index_) {
      ++qstats_.loads;
      const Page& p = *memo_page_;
      const uint32_t off = addr & (kPageSize - 1);
      if ((p.tainted_bytes | p.addr_bytes) == 0) {
        ++qstats_.clean_page_loads;
        return {p.data[off], uint8_t{0}};
      }
      return {p.data[off], gather_planes1(p, off)};
    }
    return load_byte_slow(addr);
  }
  void store_byte(uint32_t addr, TaintedByte b) {
    if ((addr >> kPageShift) == wmemo_index_) {
      Page& p = *wmemo_page_;
      const uint32_t off = addr & (kPageSize - 1);
      p.data[off] = b.value;
      if (b.planes == 0 && (p.tainted_bytes | p.addr_bytes) == 0) {
        return;  // clean page stays clean
      }
      store_byte_taint(p, off, b.planes);
      return;
    }
    store_byte_slow(addr, b);
  }

  /// 16-bit accessors; taint bits land in plane positions 0..1.
  TaintedWord load_half(uint32_t addr) const;
  void store_half(uint32_t addr, TaintedWord w);

  /// 32-bit accessors; taint bits land in plane positions 0..3.  The aligned
  /// memo-hit case — virtually every data access in a running guest — is
  /// inlined here; everything else (memo miss, unaligned) takes the
  /// out-of-line slow path, which also refreshes the memo.
  TaintedWord load_word(uint32_t addr) const {
    if ((addr & 3) == 0 && (addr >> kPageShift) == memo_index_) {
      ++qstats_.loads;
      const Page& p = *memo_page_;
      const uint32_t off = addr & (kPageSize - 1);
      const uint8_t* d = p.data.data() + off;
      TaintedWord w;
      w.value = static_cast<uint32_t>(d[0]) |
                (static_cast<uint32_t>(d[1]) << 8) |
                (static_cast<uint32_t>(d[2]) << 16) |
                (static_cast<uint32_t>(d[3]) << 24);
      if ((p.tainted_bytes | p.addr_bytes) == 0) {
        ++qstats_.clean_page_loads;
        return w;
      }
      w.taint = gather_taint4(p, off);
      return w;
    }
    return load_word_slow(addr);
  }
  void store_word(uint32_t addr, TaintedWord w) {
    if ((addr & 3) == 0 && (addr >> kPageShift) == wmemo_index_) {
      Page& p = *wmemo_page_;
      const uint32_t off = addr & (kPageSize - 1);
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
    store_word_slow(addr, w);
  }

  /// Bulk helpers used by the loader and the OS layer.  Overwriting bytes
  /// clears their address planes (fresh kernel data carries none).
  void write_block(uint32_t addr, std::span<const uint8_t> data,
                   bool tainted = false);
  std::vector<uint8_t> read_block(uint32_t addr, uint32_t len) const;

  /// Reads a NUL-terminated guest string (bounded by `max_len`).
  std::string read_cstring(uint32_t addr, uint32_t max_len = 4096) const;

  /// Marks `len` bytes data-tainted/untainted without touching the data —
  /// the RT-register trick of Section 4.4, used by the syscall layer.
  /// Address planes are untouched.
  void set_taint(uint32_t addr, uint32_t len, bool tainted);

  /// Overwrites the address-provenance planes of `len` bytes (kByte* bits
  /// of mem/taint.hpp; 0 clears).  Data taint is untouched.
  void set_addr_taint(uint32_t addr, uint32_t len, uint8_t planes);

  /// True if any of `len` bytes starting at `addr` is data-tainted.  Pages
  /// whose summary says fully-untainted are skipped without touching their
  /// taint bitmap; with no tainted page anywhere this is O(1).
  bool any_tainted_in(uint32_t addr, uint32_t len) const;

  /// OR of the address-provenance planes over `len` bytes (kByte* bits).
  /// O(1) when no byte anywhere carries address taint.
  uint8_t addr_planes_in(uint32_t addr, uint32_t len) const;

  /// Address of the first byte in [addr, addr+len) carrying any address
  /// plane; nullopt when the range is clean.  Used for leak-alert detail.
  std::optional<uint32_t> first_addr_tainted(uint32_t addr,
                                             uint32_t len) const;

  /// Number of currently data-tainted bytes across all mapped pages.  O(1):
  /// the page summaries keep the total incrementally.
  uint64_t tainted_byte_count() const { return tainted_total_; }

  /// Number of bytes carrying any address-provenance plane.  O(1).
  uint64_t addr_tainted_byte_count() const { return addr_total_; }

  /// Number of mapped pages (for footprint / area-overhead reporting).
  size_t mapped_pages() const { return pages_.size(); }

  /// Number of mapped pages currently holding at least one data-tainted
  /// byte.
  uint32_t tainted_page_count() const { return tainted_pages_; }

  /// True when the page containing `addr` is mapped and fully untainted in
  /// the data plane (summary check only; an unmapped page reads as
  /// untainted zeroes but is not "mapped and clean").
  bool page_fully_untainted(uint32_t addr) const {
    const Page* p = find_page(addr);
    return p != nullptr && p->tainted_bytes == 0;
  }

  // --- copy-on-write snapshot support (DESIGN.md §10) ---------------------

  /// Stable identity of this memory object (unique per construction,
  /// preserved across moves).  `delta_restore` uses it to prove the caller
  /// is restoring from the same source it last copied from.
  uint64_t id() const { return id_; }

  /// Forces an actual deep copy — private pages, no sharing, no delta
  /// tracking.  The reference implementation the COW tests and the
  /// snapshot bench cross-check against.
  void deep_copy_from(const TaintedMemory& other);

  /// Delta restore: if this memory was last copied from `base` (same id),
  /// drop every page it has diverged on back to the shared block and
  /// return true.  Clean pages are untouched.  Returns false (and changes
  /// nothing) when the base does not match; the caller falls back to a
  /// full copy.  Derived state needs no page list: the CPU's code images
  /// compare page objects (cpu::CodeImage).
  bool delta_restore(const TaintedMemory& base);

  /// Drops the delta-tracking baseline (e.g. after the owner loads a new
  /// program into this memory): the next restore must be a full copy.
  void forget_base();

  /// Declares `base` — which must currently be an identical page-for-page
  /// share of this memory, e.g. a snapshot just copied from it — as the
  /// delta baseline, so the *first* restore back to that snapshot already
  /// takes the delta path.  Clears the write memo: every page is shared
  /// with the baseline now, so the next store must re-enter the tracked
  /// copy-on-write path.
  void track_against(const TaintedMemory& base) {
    base_id_ = base.id_;
    tracking_ = true;
    dirty_.clear();
    wmemo_index_ = kNoPage;
    wmemo_page_ = nullptr;
  }

  /// Pages this memory has diverged on (created or copied-on-write) since
  /// it last copied from its base; 0 when not tracking a base.
  size_t dirty_page_count() const { return dirty_.size(); }

  /// The block mapped at page `idx` (null when unmapped) — an identity to
  /// compare, not to read through.
  const Page* page_at(uint32_t idx) const {
    const auto it = pages_.find(idx);
    return it == pages_.end() ? nullptr : it->second.get();
  }

  /// True when the aligned words at `addr` equal `words` (unmapped memory
  /// reads as zero).  Page-wise, without touching the access memos.
  bool holds_words(uint32_t addr, std::span<const uint32_t> words) const;

  /// Shares the block mapped at page `idx` (null when unmapped) with a
  /// caller that caches state derived from its bytes (the CPU's code
  /// images).  The extra reference makes the block shared, so the next
  /// write through this memory clones it first: the block's bytes never
  /// change while the caller holds it.
  std::shared_ptr<const Page> pin_page(uint32_t idx);

  // --- content-addressed snapshot store hooks (DESIGN.md §13) -------------

  /// Every mapped (page index, block) pair, in unspecified order.  The
  /// blocks are the live ref-counted pages; holding them alongside this
  /// memory pins them shared (so any write through this memory clones
  /// first — the usual COW contract).
  std::vector<std::pair<uint32_t, std::shared_ptr<Page>>> page_blocks() const;

  /// Swaps the block at `idx` for `block`, which must hold byte-identical
  /// content (the store interning a freshly built page for an existing
  /// canonical duplicate).  Summaries and rollups are untouched — equal
  /// content means equal summaries; the page memos are reset because they
  /// may point at the superseded block.
  void replace_page_block(uint32_t idx, std::shared_ptr<Page> block);

  /// Rebuilds this memory wholesale from (index, block) pairs — snapshot
  /// rehydration from the store.  Rollups are recomputed from the block
  /// summaries; memos, delta tracking and dirty state are reset (the next
  /// restore from this memory is a full one).
  void adopt_page_blocks(
      std::vector<std::pair<uint32_t, std::shared_ptr<Page>>> blocks);

  /// Pages still shared with another TaintedMemory (ref-count > 1).
  /// O(mapped pages) — reporting only, not for hot paths.
  size_t shared_page_count() const;

  /// Copy-on-write observability counters.  Diagnostic only: cumulative
  /// over this object's lifetime, never part of architectural state.
  struct CowStats {
    uint64_t shares = 0;          // full-copy restores served by sharing
    uint64_t cow_breaks = 0;      // shared pages cloned by a first write
    uint64_t delta_restores = 0;  // restores served by the dirty-page delta
    uint64_t pages_delta_restored = 0;  // dirty pages dropped back to shared
  };
  const CowStats& cow_stats() const { return cstats_; }

  /// Observability counters for the clean-page fast path (ptaint-run
  /// --engine-stats).  Diagnostic only: not part of the architectural
  /// state, reset on copy, never compared across engines.
  struct QueryStats {
    uint64_t loads = 0;             // byte/half/word loads issued
    uint64_t clean_page_loads = 0;  // served by the fully-untainted fast path
  };
  const QueryStats& query_stats() const { return qstats_; }

  /// Flat layout descriptor for the JIT tier (DESIGN.md §12).  Emitted code
  /// replays the inline memo-hit fast paths above — one page-index compare,
  /// one clean-page summary compare, then a raw access into Page::data —
  /// against these byte offsets (memo fields relative to this object, page
  /// fields relative to a Page).  The emitted path intentionally skips the
  /// QueryStats bumps (diagnostic-only counters); every other observable
  /// effect matches the inline accessors bit for bit.
  struct JitLayout {
    uint32_t memo_index;    // read-memo page index (uint32)
    uint32_t memo_page;     // read-memo Page* (8 bytes)
    uint32_t wmemo_index;   // write-memo page index (uint32)
    uint32_t wmemo_page;    // write-memo Page* (8 bytes)
    uint32_t page_data;     // Page::data — byte 0 of the page image
    uint32_t page_summary;  // Page::tainted_bytes; one aligned qword read
                            // here covers addr_bytes too, so "clean page"
                            // is a single compare against 0
  };
  JitLayout jit_layout() const;

 private:
  /// Plane nibble of one byte: data bit from the bitmap + aprov nibble.
  static uint8_t gather_planes1(const Page& p, uint32_t off) {
    uint8_t planes = 0;
    if (p.tainted_bytes != 0) {
      planes = static_cast<uint8_t>((p.taint[off >> 3] >> (off & 7)) & 1);
    }
    if (p.addr_bytes != 0) {
      planes |= static_cast<uint8_t>(
          (p.aprov[off >> 1] >> ((off & 1) * 4)) & kByteAddrMask);
    }
    return planes;
  }

  /// Word TaintBits for an aligned 4-byte span (off % 4 == 0): the 4 data
  /// bits share one bitmap byte, the 4 aprov nibbles share two array bytes.
  static TaintBits gather_taint4(const Page& p, uint32_t off) {
    TaintBits t = 0;
    if (p.tainted_bytes != 0) {
      t = static_cast<TaintBits>((p.taint[off >> 3] >> (off & 7)) & 0xf);
    }
    if (p.addr_bytes != 0) {
      const uint32_t packed =
          static_cast<uint32_t>(p.aprov[off >> 1]) |
          (static_cast<uint32_t>(p.aprov[(off >> 1) + 1]) << 8);
      if (packed != 0) {
        for (int i = 0; i < 4; ++i) {
          t |= planes_to_word(
              static_cast<uint8_t>((packed >> (4 * i)) & kByteAddrMask), i);
        }
      }
    }
    return t;
  }

  /// Returns an exclusively-owned page for writing, cloning a shared page
  /// (copy-on-write) or creating a missing one.  The memo-hit check is
  /// inlined; the miss path is out of line (hash probe + ownership check).
  Page& page_for(uint32_t addr) {
    const uint32_t idx = addr >> kPageShift;
    if (idx == wmemo_index_) return *wmemo_page_;
    return page_for_slow(idx);
  }
  Page& page_for_slow(uint32_t idx);

  /// Read-only page lookup.  Inlined including the miss path's map probe:
  /// loads are the hottest slow-path caller (fetch stream, any_tainted_in)
  /// and the probe is two compares + a find once the memo check fails.
  const Page* find_page(uint32_t addr) const {
    const uint32_t idx = addr >> kPageShift;
    if (idx == memo_index_) return memo_page_;
    const auto it = pages_.find(idx);
    if (it == pages_.end()) return nullptr;
    memo_index_ = idx;
    memo_page_ = it->second.get();
    return memo_page_;
  }

  /// Becomes a copy of `other` by sharing every page (copy-on-write) and
  /// records `other` as the delta baseline.  Never reads `other`'s memos,
  /// so concurrent copies from one shared snapshot are race-free; it does
  /// conditionally clear `other`'s *write* memo (the snapshotting machine
  /// must not keep writing through a now-shared page), a write that only
  /// fires on the owner's own thread — snapshots never have one set.
  void share_from(const TaintedMemory& other);

  TaintedByte load_byte_slow(uint32_t addr) const;
  void store_byte_slow(uint32_t addr, TaintedByte b);
  TaintedWord load_word_slow(uint32_t addr) const;
  void store_word_slow(uint32_t addr, TaintedWord w);
  /// Taint updates for memo-hit stores (out of line: touching the
  /// bitmap means the page is or becomes tainted — off the hot path).
  void store_byte_taint(Page& p, uint32_t off, uint8_t planes);
  void store_word_taint(Page& p, uint32_t off, TaintBits fresh);
  /// Overwrites one byte's aprov nibble, maintaining the summaries.
  void store_byte_aprov(Page& p, uint32_t off, uint8_t nib);

  /// Applies a data-tainted-byte delta to a page summary and the global
  /// rollups.
  void adjust_taint(Page& p, int32_t delta) {
    if (delta == 0) return;
    if (p.tainted_bytes == 0) ++tainted_pages_;
    p.tainted_bytes = static_cast<uint32_t>(
        static_cast<int64_t>(p.tainted_bytes) + delta);
    tainted_total_ =
        static_cast<uint64_t>(static_cast<int64_t>(tainted_total_) + delta);
    if (p.tainted_bytes == 0) --tainted_pages_;
  }

  std::unordered_map<uint32_t, std::shared_ptr<Page>> pages_;
  uint64_t tainted_total_ = 0;  // sum of Page::tainted_bytes
  uint64_t addr_total_ = 0;     // sum of Page::addr_bytes
  uint32_t tainted_pages_ = 0;  // pages with tainted_bytes > 0
  mutable QueryStats qstats_;
  CowStats cstats_;

  // Delta-restore bookkeeping: identity of the memory this one last shared
  // its pages from, and the pages it has diverged on since (every index in
  // dirty_ holds an exclusively-owned page or one created after the copy).
  uint64_t id_ = 0;       // this object's identity (see id())
  uint64_t base_id_ = 0;  // identity of the share_from source
  bool tracking_ = false;
  std::unordered_set<uint32_t> dirty_;

  // Single-entry page memos: guest access streams are strongly local (the
  // fetch stream alone stays on one page for up to 1024 instructions), so
  // remembering the last page touched skips the hash lookup on the hot
  // path.  Pages are heap blocks owned by shared_ptr, so the cached
  // pointers stay valid across map growth.  The read memo may point to a
  // shared page; the write memo only ever points to an exclusively-owned,
  // dirty-tracked page (page_for_slow guarantees it) and is cleared
  // whenever this memory's pages become shared.  Reset on copy.
  static constexpr uint32_t kNoPage = 0xffffffffu;
  mutable uint32_t memo_index_ = kNoPage;
  mutable Page* memo_page_ = nullptr;
  mutable uint32_t wmemo_index_ = kNoPage;
  mutable Page* wmemo_page_ = nullptr;
};

}  // namespace ptaint::mem
