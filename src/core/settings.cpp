#include "core/settings.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace ptaint::core {

Settings parse_settings(
    const std::function<const char*(const char* name)>& lookup) {
  // Unset and "" both leave a variable at its default.
  auto get = [&lookup](const char* name) -> const char* {
    const char* v = lookup(name);
    return v != nullptr && *v != '\0' ? v : nullptr;
  };
  auto reject = [](const char* name, const char* v, const char* expected) {
    throw std::invalid_argument(std::string(name) + "='" + v +
                                "': expected " + expected);
  };
  // The one boolean rule: "0" is false, "1" is true, nothing else parses.
  auto flag = [&](const char* name, bool& out) {
    if (const char* v = get(name)) {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        reject(name, v, "0 or 1");
      }
      out = v[0] == '1';
    }
  };
  Settings s;
  if (const char* v = get("PTAINT_ENGINE")) {
    const std::optional<cpu::Engine> engine = cpu::parse_engine(v);
    if (!engine) reject("PTAINT_ENGINE", v, "step, superblock or jit");
    s.engine = *engine;
  }
  flag("PTAINT_NO_COW", s.no_cow);
  flag("PTAINT_JIT_FORCE_UNSUPPORTED", s.jit_force_unsupported);
  flag("PTAINT_ANALYSIS_CACHE", s.analysis_cache);
  flag("PTAINT_SNAPSHOT_STORE", s.snapshot_store);
  if (const char* v = get("PTAINT_SNAPSHOT_DIR")) s.snapshot_dir = v;
  if (const char* v = get("PTAINT_SNAPSHOT_HOT")) {
    size_t n = 0;
    const char* end = v + std::strlen(v);
    const auto [ptr, ec] = std::from_chars(v, end, n);
    if (ec != std::errc() || ptr != end) {
      reject("PTAINT_SNAPSHOT_HOT", v, "a non-negative decimal count");
    }
    s.snapshot_hot = n;
  }
  return s;
}

const Settings& settings() {
  static const Settings parsed = parse_settings(
      [](const char* name) -> const char* { return std::getenv(name); });
  return parsed;
}

bool settings_valid(const char* tool) {
  try {
    settings();
    return true;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", tool, e.what());
    return false;
  }
}

}  // namespace ptaint::core
