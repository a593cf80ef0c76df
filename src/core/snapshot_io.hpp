// MachineSnapshot <-> content-addressed store conversion (DESIGN.md §13).
//
// A dehydrated snapshot is a page-reference list into a mem::PageStore plus
// one serialized "meta" blob holding everything that is not a memory page:
// the assembled program, the CPU state (registers + taint, stop state,
// alert, stats, annotations) and the whole simulated OS (VFS, network
// sessions, fd table, captured output).  Dehydrated snapshots are what the
// SnapshotCache keeps for keys outside its hot working set, and what the
// disk tier persists so a restarted ptaint-serve rehydrates warm state.
//
// Pipeline-bearing snapshots are not dehydratable (the timing model's state
// is config-shaped, not plain data); dehydrate_snapshot returns nullopt and
// callers simply keep such snapshots hydrated.  Campaign and serve machines
// never enable the pipeline model, so the store path covers them fully.
//
// The meta blob is a versioned little-endian byte stream.  It is a cache
// artifact: on any version/shape mismatch decoding fails and the caller
// rebuilds the snapshot from source, so the format can evolve freely.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/machine.hpp"
#include "mem/page_store.hpp"

namespace ptaint::core {

struct StoredSnapshot {
  std::vector<std::pair<uint32_t, mem::PageStore::Key>> pages;
  std::vector<uint8_t> meta;
};

/// Interns every memory page of `snapshot` into `store` (replacing its
/// blocks with the canonical duplicates — the snapshot stays fully usable)
/// and serializes the rest.
/// Returns nullopt for pipeline-bearing snapshots.
std::optional<StoredSnapshot> dehydrate_snapshot(MachineSnapshot& snapshot,
                                                 mem::PageStore& store);

/// Rebuilds a full MachineSnapshot: fetches every page ref and decodes the
/// meta blob.  Returns nullopt when a page is missing from the store or
/// the blob fails to decode (caller rebuilds from source).
std::optional<MachineSnapshot> hydrate_snapshot(const StoredSnapshot& stored,
                                                mem::PageStore& store);

/// Disk-tier blob codec: the cache key string + the StoredSnapshot.
std::vector<uint8_t> encode_stored_snapshot(const std::string& key,
                                            const StoredSnapshot& stored);
std::optional<std::pair<std::string, StoredSnapshot>> decode_stored_snapshot(
    const std::vector<uint8_t>& blob);

}  // namespace ptaint::core
