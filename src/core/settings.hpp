// Process settings: every PTAINT_* environment variable the library honours
// is parsed here and nowhere else (README.md, "Environment variables").
// parse_settings sees the environment only through `lookup`, so tests hand
// it a fake; settings() parses the real one on first use, fixed for the
// life of the process.  Code that needs another value passes it explicitly
// (MachineConfig, StoreOptions, SummaryCache::set_*).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "cpu/cpu.hpp"

namespace ptaint::core {

struct Settings {
  cpu::Engine engine = cpu::Engine::kSuperblock;  // PTAINT_ENGINE
  bool no_cow = false;                            // PTAINT_NO_COW
  bool jit_force_unsupported = false;  // PTAINT_JIT_FORCE_UNSUPPORTED
  bool analysis_cache = true;          // PTAINT_ANALYSIS_CACHE
  bool snapshot_store = false;         // PTAINT_SNAPSHOT_STORE
  std::string snapshot_dir;            // PTAINT_SNAPSHOT_DIR
  std::optional<size_t> snapshot_hot;  // PTAINT_SNAPSHOT_HOT
};

/// Parses every PTAINT_* variable through `lookup` (nullptr = unset).  A
/// malformed value throws std::invalid_argument naming variable and value.
Settings parse_settings(
    const std::function<const char*(const char* name)>& lookup);

/// The process environment, parsed once; throws like parse_settings.
const Settings& settings();

/// Tool-edge check: on a malformed environment prints "<tool>: <error>" to
/// stderr and returns false (the tools then exit 4, a usage error).
bool settings_valid(const char* tool);

}  // namespace ptaint::core
