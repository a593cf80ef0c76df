// ptaint-serve — the campaign-analysis daemon (docs/SERVING.md).
//
//   ptaint-serve --socket PATH --journal PATH [options]
//
// Listens on a Unix-domain socket for newline-delimited JSON requests,
// runs submitted analysis jobs on sharded worker threads (shared
// snapshot cache, per-shard machine pool), and journals every accepted
// job and verdict so a restart finishes what a crash interrupted.
//
// Options:
//   --socket PATH      Unix socket to listen on (required)
//   --journal PATH     job queue journal file (required; created if absent)
//   --workers N        shard worker threads (default 4)
//   --quota N          live (queued+running) jobs per tenant; 0 = off
//                      (default 1024)
//   --spec-scale N     SPEC surrogate input scale for matrix cells
//   --timeout-ms N     default per-job deadline (default 60000)
//   --slice N          instructions per deadline-check slice
//   --snapshot-store   content-addressed snapshot store (DESIGN.md §13):
//                      snapshot pages deduped/compressed across keys
//   --snapshot-dir D   snapshot store with a disk tier in directory D; a
//                      restarted daemon rehydrates warm snapshots from it
//   --verbose          startup/shutdown chatter on stderr
//
// Exit codes: 0 clean shutdown (signal or protocol `shutdown`), 1 startup
// failure, 4 usage error.
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "core/settings.hpp"
#include "serve/server.hpp"

using ptaint::serve::ServeDaemon;

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: ptaint-serve --socket PATH --journal PATH [options]\n"
               "  --workers N     shard worker threads (default 4)\n"
               "  --quota N       live jobs per tenant, 0 = off (default "
               "1024)\n"
               "  --spec-scale N  SPEC surrogate input scale\n"
               "  --timeout-ms N  default per-job deadline (default 60000)\n"
               "  --slice N       instructions per deadline-check slice\n"
               "  --snapshot-store   content-addressed snapshot store "
               "(memory only)\n"
               "  --snapshot-dir D   store with disk tier: a restarted "
               "daemon rehydrates warm snapshots from D\n"
               "  --verbose       startup/shutdown chatter on stderr\n";
  std::exit(4);
}

}  // namespace

int main(int argc, char** argv) {
  ServeDaemon::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--socket") {
      config.socket_path = value();
    } else if (arg == "--journal") {
      config.journal_path = value();
    } else if (arg == "--workers") {
      config.workers = static_cast<int>(std::strtol(value().c_str(), nullptr, 0));
      if (config.workers < 1) usage();
    } else if (arg == "--quota") {
      config.tenant_quota =
          static_cast<int>(std::strtol(value().c_str(), nullptr, 0));
      if (config.tenant_quota < 0) usage();
    } else if (arg == "--spec-scale") {
      config.spec_scale =
          static_cast<int>(std::strtol(value().c_str(), nullptr, 0));
      if (config.spec_scale < 1) usage();
    } else if (arg == "--timeout-ms") {
      config.default_timeout_ms = std::strtoull(value().c_str(), nullptr, 0);
    } else if (arg == "--slice") {
      config.slice_instructions = std::strtoull(value().c_str(), nullptr, 0);
      if (config.slice_instructions == 0) usage();
    } else if (arg == "--snapshot-store") {
      config.snapshot_store = true;
    } else if (arg == "--snapshot-dir") {
      config.snapshot_dir = value();
    } else if (arg == "--verbose") {
      config.quiet = false;
    } else {
      usage();
    }
  }
  if (config.socket_path.empty() || config.journal_path.empty()) usage();
  if (!ptaint::core::settings_valid("ptaint-serve")) return 4;

  // SIGINT/SIGTERM are handled synchronously by a dedicated thread (all
  // other threads inherit the blocked mask), so shutdown goes through the
  // same stop() path as the protocol `shutdown` command.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  ServeDaemon daemon(config);
  try {
    daemon.start();
  } catch (const std::exception& e) {
    std::cerr << "ptaint-serve: " << e.what() << "\n";
    return 1;
  }
  if (!config.quiet) {
    std::cerr << "ptaint-serve: listening on " << config.socket_path << " ("
              << config.workers << " workers, journal "
              << config.journal_path << ", " << daemon.replayed()
              << " jobs replayed)\n";
  }

  std::atomic<bool> exiting{false};
  std::thread signals([&]() {
    for (;;) {
      int sig = 0;
      if (sigwait(&set, &sig) != 0) continue;
      if (exiting.load()) return;
      daemon.stop();
    }
  });

  daemon.wait();
  exiting.store(true);
  // Unblock the signal thread if the daemon stopped via the protocol.
  kill(getpid(), SIGTERM);
  signals.join();
  if (!config.quiet) std::cerr << "ptaint-serve: stopped\n";
  return 0;
}
