// Tests for the PTAINT_* settings parser (src/core/settings.cpp): defaults,
// every accepted spelling, and the rejection of malformed values — all
// through a fake environment, so nothing here reads or writes the process
// environment.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "core/settings.hpp"

namespace ptaint::core {
namespace {

/// parse_settings over exactly the variables in `env`.
Settings parse(const std::map<std::string, std::string>& env) {
  return parse_settings([&env](const char* name) -> const char* {
    const auto it = env.find(name);
    return it == env.end() ? nullptr : it->second.c_str();
  });
}

/// The parse error message for `env`, or "" when it parses.
std::string error_of(const std::map<std::string, std::string>& env) {
  try {
    parse(env);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Settings, EmptyEnvironmentGivesTheDefaults) {
  const Settings s = parse({});
  EXPECT_EQ(s.engine, cpu::Engine::kSuperblock);
  EXPECT_FALSE(s.no_cow);
  EXPECT_FALSE(s.jit_force_unsupported);
  EXPECT_TRUE(s.analysis_cache);
  EXPECT_FALSE(s.snapshot_store);
  EXPECT_EQ(s.snapshot_dir, "");
  EXPECT_FALSE(s.snapshot_hot.has_value());
}

TEST(Settings, EngineNamesRoundTrip) {
  for (const cpu::Engine e :
       {cpu::Engine::kStep, cpu::Engine::kSuperblock, cpu::Engine::kJit}) {
    EXPECT_EQ(cpu::parse_engine(cpu::to_string(e)), e);
    EXPECT_EQ(parse({{"PTAINT_ENGINE", cpu::to_string(e)}}).engine, e);
  }
  EXPECT_EQ(parse({{"PTAINT_ENGINE", ""}}).engine, cpu::Engine::kSuperblock);
  EXPECT_FALSE(cpu::parse_engine("JIT").has_value());
  EXPECT_FALSE(cpu::parse_engine("").has_value());
}

TEST(Settings, MalformedEngineIsRejectedByName) {
  const std::string err = error_of({{"PTAINT_ENGINE", "JIT"}});
  EXPECT_NE(err.find("PTAINT_ENGINE"), std::string::npos) << err;
  EXPECT_NE(err.find("'JIT'"), std::string::npos) << err;
  EXPECT_NE(error_of({{"PTAINT_ENGINE", "bogus"}}), "");
}

TEST(Settings, BooleansFollowOneRule) {
  struct Flag {
    const char* name;
    bool Settings::*field;
  };
  for (const Flag& f : {Flag{"PTAINT_NO_COW", &Settings::no_cow},
                        Flag{"PTAINT_JIT_FORCE_UNSUPPORTED",
                             &Settings::jit_force_unsupported},
                        Flag{"PTAINT_SNAPSHOT_STORE",
                             &Settings::snapshot_store}}) {
    EXPECT_FALSE(parse({}).*f.field) << f.name;
    EXPECT_FALSE(parse({{f.name, ""}}).*f.field) << f.name;
    EXPECT_FALSE(parse({{f.name, "0"}}).*f.field) << f.name;
    EXPECT_TRUE(parse({{f.name, "1"}}).*f.field) << f.name;
    for (const char* bad : {"yes", "true", "2", "01", " 1"}) {
      const std::string err = error_of({{f.name, bad}});
      EXPECT_NE(err.find(f.name), std::string::npos) << f.name << "=" << bad;
      EXPECT_NE(err.find(std::string("'") + bad + "'"), std::string::npos)
          << err;
    }
  }
}

TEST(Settings, AnalysisCacheDefaultsOnAndTurnsOffWithZero) {
  EXPECT_TRUE(parse({{"PTAINT_ANALYSIS_CACHE", ""}}).analysis_cache);
  EXPECT_TRUE(parse({{"PTAINT_ANALYSIS_CACHE", "1"}}).analysis_cache);
  EXPECT_FALSE(parse({{"PTAINT_ANALYSIS_CACHE", "0"}}).analysis_cache);
  EXPECT_NE(error_of({{"PTAINT_ANALYSIS_CACHE", "off"}}), "");
}

TEST(Settings, SnapshotHotIsAStrictDecimalCount) {
  EXPECT_EQ(parse({{"PTAINT_SNAPSHOT_HOT", "2"}}).snapshot_hot, 2u);
  EXPECT_EQ(parse({{"PTAINT_SNAPSHOT_HOT", "0"}}).snapshot_hot, 0u);
  EXPECT_FALSE(parse({{"PTAINT_SNAPSHOT_HOT", ""}}).snapshot_hot.has_value());
  for (const char* bad :
       {"abc", "-1", "2x", " 2", "+2", "99999999999999999999999"}) {
    const std::string err = error_of({{"PTAINT_SNAPSHOT_HOT", bad}});
    EXPECT_NE(err.find("PTAINT_SNAPSHOT_HOT"), std::string::npos) << bad;
  }
}

TEST(Settings, SnapshotDirIsTakenVerbatim) {
  const Settings s = parse({{"PTAINT_SNAPSHOT_DIR", "/tmp/store dir"}});
  EXPECT_EQ(s.snapshot_dir, "/tmp/store dir");
  EXPECT_FALSE(s.snapshot_store);  // the dir alone attaches the store later
}

}  // namespace
}  // namespace ptaint::core
