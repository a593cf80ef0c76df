// Guest sessions as job input (campaign/job.hpp JobInput).
//
// A guest session job forks its app's single boot snapshot and installs
// the session and stdin bytes after the restore.  That is sound only if
// the installed machine is indistinguishable from a boot that armed the
// same inputs before its snapshot — the state the serve daemon used to
// snapshot per session.  These tests pin that: for the session-cold apps
// plus a stdin-driven one, on every engine, registers, pc, memory with its
// taint planes and the whole simulated OS are identical before the first
// instruction, and the runs report identically after it.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaigns.hpp"
#include "campaign/job.hpp"
#include "campaign/snapshot_cache.hpp"
#include "core/machine.hpp"
#include "guest/apps/registry.hpp"
#include "guest/runtime.hpp"

namespace ptaint::campaign {
namespace {

struct Case {
  const char* app;
  const char* policy;
  std::vector<std::string> session;
  std::string stdin_text;
};

/// The session-cold apps with a fixed nonce, plus exp1, which reads its
/// (overflowing) input from stdin.
std::vector<Case> cases() {
  const std::string n = "n0nce-7f3a";
  return {
      {"wu-ftpd", "paper",
       {"user user1\r\n", "pass " + n + "\r\n", "site exec hello %d %d\r\n",
        "quit\r\n"},
       ""},
      {"null-httpd", "paper",
       {"GET /" + n + " HTTP/1.0\r\n",
        "POST /form HTTP/1.0\r\nContent-Length: 16\r\n\r\n",
        "name=alice&x=1\r\n", "GET /cgi-bin/../etc HTTP/1.0\r\n"},
       ""},
      {"ghttpd", "paper", {"GET /" + n + ".html HTTP/1.0\r\n"}, ""},
      {"globd", "paper", {"LIST *", "LIST readme.txt", "LIST ~" + n}, ""},
      {"leak-telemetry", "leak-aware", {"STAT " + n, "QUIT"}, ""},
      {"leak-session", "leak-aware", {"HELO " + n, "QUIT"}, ""},
      {"leak-banner", "leak-aware", {"hello " + n, "status check"}, ""},
      {"exp1", "paper", {}, std::string(24, 'a') + "\n"},
  };
}

std::vector<asmgen::Source> app_sources(const std::string& app) {
  return guest::link_with_runtime(guest::apps::find_app(app)->make());
}

/// The per-session boot: inputs armed before the snapshot.
std::shared_ptr<const core::MachineSnapshot> armed_boot(
    const std::string& app, const std::vector<std::string>& session,
    const std::string& stdin_text) {
  core::Machine m;
  m.load_sources(app_sources(app));
  if (!session.empty()) m.os().net().add_session(session);
  if (!stdin_text.empty()) m.os().set_stdin(stdin_text);
  return std::make_shared<const core::MachineSnapshot>(m.snapshot());
}

/// Every field of the OS image, network sessions included, as one string.
std::string os_image(const os::SimOs::Persist& p) {
  std::ostringstream ss;
  for (const auto& [path, bytes] : p.vfs.files) {
    ss << "file " << path << " [" << std::string(bytes.begin(), bytes.end())
       << "]\n";
  }
  for (const auto& f : p.vfs.open_files) {
    ss << "open " << f.path << " " << f.pos << " " << f.writable << " "
       << f.open << "\n";
  }
  for (const auto& s : p.net.sessions) {
    ss << "session next=" << s.next_chunk << " accepted=" << s.accepted
       << " transcript=[" << s.transcript << "]";
    for (const auto& chunk : s.requests) {
      ss << " [" << std::string(chunk.begin(), chunk.end()) << "]";
    }
    ss << "\n";
  }
  ss << "next_accept=" << p.net.next_accept << "\n";
  for (const auto& [kind, handle] : p.fds) {
    ss << "fd " << int{kind} << ":" << handle << "\n";
  }
  ss << "stdin=[" << std::string(p.stdin_data.begin(), p.stdin_data.end())
     << "] pos=" << p.stdin_pos << " stdout=[" << p.stdout_text
     << "] stderr=[" << p.stderr_text << "]";
  for (const auto& e : p.exec_log) ss << " exec=[" << e << "]";
  ss << " taint_inputs=" << p.taint_inputs << " brk=" << p.brk
     << " uid=" << p.uid << " stats=" << p.stats.input_bytes_tainted << "/"
     << p.stats.syscalls << "/" << p.stats.reads << "/" << p.stats.recvs;
  return ss.str();
}

::testing::AssertionResult same_state(core::Machine& a, core::Machine& b) {
  if (a.cpu().pc() != b.cpu().pc()) {
    return ::testing::AssertionFailure() << "pc differs";
  }
  for (uint8_t r = 0; r < 32; ++r) {
    if (!(a.cpu().regs().get(r) == b.cpu().regs().get(r))) {
      return ::testing::AssertionFailure() << "register " << int{r};
    }
  }
  const auto pa = a.memory().page_blocks();
  const auto pb = b.memory().page_blocks();
  if (pa.size() != pb.size()) {
    return ::testing::AssertionFailure() << "mapped page count differs";
  }
  for (size_t i = 0; i < pa.size(); ++i) {
    const mem::TaintedMemory::Page& x = *pa[i].second;
    const mem::TaintedMemory::Page& y = *pb[i].second;
    if (pa[i].first != pb[i].first || x.data != y.data ||
        x.taint != y.taint || x.aprov != y.aprov) {
      return ::testing::AssertionFailure() << "page " << pa[i].first;
    }
  }
  if (a.memory().tainted_byte_count() != b.memory().tainted_byte_count() ||
      a.memory().addr_tainted_byte_count() !=
          b.memory().addr_tainted_byte_count()) {
    return ::testing::AssertionFailure() << "taint totals differ";
  }
  const std::string oa = os_image(a.os().persist());
  const std::string ob = os_image(b.os().persist());
  if (oa != ob) {
    return ::testing::AssertionFailure() << "OS image differs:\n"
                                         << oa << "\nvs\n"
                                         << ob;
  }
  return ::testing::AssertionSuccess();
}

/// The config of the kept machine that serves `job`.
core::MachineConfig machine_config(const Job& job) {
  core::MachineConfig cfg;
  cfg.engine = job.engine;
  return cfg;
}

void expect_same_report(const core::RunReport& a, const core::RunReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.stop, b.stop) << what;
  EXPECT_EQ(a.exit_status, b.exit_status) << what;
  EXPECT_EQ(a.alert_line(), b.alert_line()) << what;
  EXPECT_EQ(a.net_transcripts, b.net_transcripts) << what;
  EXPECT_EQ(a.stdout_text, b.stdout_text) << what;
  EXPECT_EQ(a.cpu_stats.instructions, b.cpu_stats.instructions) << what;
  EXPECT_EQ(a.tainted_memory_bytes, b.tainted_memory_bytes) << what;
}

TEST(SessionInput, RestoreThenInstallEqualsFreshArmedBoot) {
  SnapshotCache cache(StoreOptions{});
  for (const Case& c : cases()) {
    for (const cpu::Engine engine :
         {cpu::Engine::kStep, cpu::Engine::kSuperblock, cpu::Engine::kJit}) {
      const std::string what =
          std::string(c.app) + " on " + cpu::to_string(engine);
      const Job job = make_session_job(c.app, c.session, c.stdin_text,
                                       c.policy, cache, /*elide=*/true,
                                       engine);
      ASSERT_TRUE(job.input.has_value()) << what;

      core::Machine fresh(machine_config(job));
      fresh.restore(*armed_boot(c.app, c.session, c.stdin_text),
                    job.settings);
      core::Machine forked(machine_config(job));
      forked.restore(*job.get_snapshot(), job.settings);
      job.input->install(forked);

      EXPECT_TRUE(same_state(fresh, forked)) << what;
      const core::RunReport want = fresh.run();
      const core::RunReport got = forked.run();
      expect_same_report(want, got, what);
      EXPECT_EQ(got.net_transcripts.size(), c.session.empty() ? 0u : 1u)
          << what;
    }
  }
  // One boot per app, however many engines and sessions forked it.
  EXPECT_EQ(cache.stats().builds, cases().size());
}

TEST(SessionInput, InstallReplacesTheSnapshotsSessionAndStdin) {
  // A boot that already armed a different session and stdin — the shape
  // of a per-session snapshot — then the job's own inputs installed on top.
  const Case c = cases().front();
  const auto stale =
      armed_boot(c.app, {"user stale\r\n", "quit\r\n"}, "stale stdin\n");
  SnapshotCache cache(StoreOptions{});
  const Job job = make_session_job(c.app, c.session, c.stdin_text, c.policy,
                                   cache, /*elide=*/true, cpu::Engine::kStep);

  core::Machine forked(machine_config(job));
  forked.restore(*stale, job.settings);
  job.input->install(forked);
  EXPECT_EQ(forked.os().net().session_count(), 1u);

  core::Machine fresh(machine_config(job));
  fresh.restore(*armed_boot(c.app, c.session, c.stdin_text), job.settings);
  EXPECT_TRUE(same_state(fresh, forked));
  expect_same_report(fresh.run(), forked.run(), c.app);
}

}  // namespace
}  // namespace ptaint::campaign
