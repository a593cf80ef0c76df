// Machine snapshot/restore determinism.
//
// The campaign engine's correctness rests on one invariant: a machine
// restored from a snapshot of M behaves byte-identically to M continuing
// from the snapshot point.  These tests pin that down for post-load forks,
// mid-run snapshots (tainted heap state, open VFS file), in-place
// restores, policy-variant forks, and the decode-cache/self-modifying-code
// interaction.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "core/attack.hpp"
#include "core/machine.hpp"
#include "core/settings.hpp"
#include "core/spec_workloads.hpp"

namespace ptaint::core {
namespace {

/// True when the PTAINT_NO_COW escape hatch is on: every restore is a deep
/// copy, so assertions about sharing/delta counters must be skipped (the
/// behavioural assertions still hold — that is the point of the hatch).
bool cow_disabled() { return settings().no_cow; }

/// Everything observable about a finished run, as one comparable string.
std::string fingerprint(const RunReport& r) {
  std::ostringstream ss;
  ss << "stop=" << static_cast<int>(r.stop) << " exit=" << r.exit_status
     << " alert=" << (r.alert ? r.alert_line() : "-")
     << " alert_fn=" << r.alert_function << " fault=" << r.fault
     << " inst=" << r.cpu_stats.instructions
     << " loads=" << r.cpu_stats.loads << " stores=" << r.cpu_stats.stores
     << " tainted_loads=" << r.cpu_stats.tainted_loads
     << " tainted_stores=" << r.cpu_stats.tainted_stores
     << " taint_evals=" << r.taint_stats.evaluations
     << " taint_tevals=" << r.taint_stats.tainted_evaluations
     << " taint_cuntaints=" << r.taint_stats.compare_untaints
     << " tainted_bytes=" << r.tainted_memory_bytes
     << " stdout=[" << r.stdout_text << "] stderr=[" << r.stderr_text << "]";
  for (const auto& t : r.net_transcripts) ss << " net=[" << t << "]";
  return ss.str();
}

TEST(Snapshot, PostLoadForkRunsIdentically) {
  auto scenario = make_scenario(AttackId::kExp1Stack);
  auto original = scenario->prepare_attack({});
  MachineSnapshot snap = original->snapshot();

  RunReport a = original->run();

  Machine fork;  // default config, same policy as prepare_attack({})
  fork.restore(snap);
  RunReport b = fork.run();

  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_TRUE(a.detected());
}

TEST(Snapshot, MidRunForkWithTaintedHeapAndOpenVfsFile) {
  // A SPEC surrogate mid-run: /input is installed in the VFS and the guest
  // has already pulled tainted bytes from it into heap/data structures.
  const auto workloads = make_spec_workloads(1);
  const SpecWorkload& w = workloads.front();

  auto original = prepare_spec_workload(w, {});
  ASSERT_EQ(original->run_for(20'000), cpu::StopReason::kRunning);
  MachineSnapshot snap = original->snapshot();
  ASSERT_GT(snap.memory.tainted_byte_count(), 0u)
      << "snapshot should capture live tainted state";

  while (original->run_for(1'000'000) == cpu::StopReason::kRunning) {
  }
  RunReport a = original->report();

  MachineConfig cfg;
  cfg.max_instructions = 2'000'000'000;
  Machine fork(cfg);
  fork.restore(snap);
  while (fork.run_for(1'000'000) == cpu::StopReason::kRunning) {
  }
  RunReport b = fork.report();

  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.stop, cpu::StopReason::kExit);
}

TEST(Snapshot, InPlaceRestoreReplaysTheRun) {
  auto scenario = make_scenario(AttackId::kExp3Format);
  auto machine = scenario->prepare_attack({});
  MachineSnapshot snap = machine->snapshot();

  RunReport first = machine->run();
  machine->restore(snap);
  RunReport second = machine->run();

  EXPECT_EQ(fingerprint(first), fingerprint(second));
}

TEST(Snapshot, ForkUnderDifferentPolicyMatchesSerialRun) {
  // The campaign engine arms one snapshot under the default policy and
  // forks it under every ablation variant; that is only sound if the
  // pre-run state is policy-independent.  Compare against preparing
  // directly under the variant.
  cpu::TaintPolicy variant;
  variant.shift_smear = false;

  auto scenario = make_scenario(AttackId::kExp2Heap);
  MachineSnapshot snap = scenario->prepare_attack({})->snapshot();

  MachineConfig cfg;
  cfg.policy = variant;
  Machine fork(cfg);
  fork.restore(snap);
  ScenarioResult from_fork = scenario->classify_attack(fork, fork.run());

  ScenarioResult serial = scenario->run_attack_with(variant);

  EXPECT_EQ(fingerprint(from_fork.report), fingerprint(serial.report));
  EXPECT_EQ(from_fork.outcome, serial.outcome);
  EXPECT_EQ(from_fork.detail, serial.detail);
}

// Code that patches already-executed text: the decoded-instruction cache
// must drop the stale decode, and a snapshot/restore cycle must replay the
// whole dance identically.
const char* kSelfModifying = R"(
    .text
_start:
    jal patchme
    # First call returns 1.  Copy the two instructions at src over
    # patchme, then call again; must now return 42.
    la $t0, src
    la $t1, patchme
    lw $t2, 0($t0)
    sw $t2, 0($t1)
    lw $t2, 4($t0)
    sw $t2, 4($t1)
    jal patchme
    move $a0, $v0
    li $v0, 1
    syscall
patchme:
    li $v0, 1
    jr $ra
src:
    li $v0, 42
    jr $ra
)";

TEST(Snapshot, SelfModifyingCodeInvalidatesDecodeCacheAcrossRestore) {
  Machine m;
  m.load_source(kSelfModifying);
  MachineSnapshot snap = m.snapshot();

  RunReport first = m.run();
  EXPECT_EQ(first.stop, cpu::StopReason::kExit);
  EXPECT_EQ(first.exit_status, 42) << "stale decode executed after patch";

  m.restore(snap);
  RunReport second = m.run();
  EXPECT_EQ(fingerprint(first), fingerprint(second));
}

// --- COW restore path -----------------------------------------------------

TEST(Snapshot, RepeatedRestoreTakesDeltaPathWithMatchingRollups) {
  auto scenario = make_scenario(AttackId::kExp1Stack);
  auto machine = scenario->prepare_attack({});
  MachineSnapshot snap = machine->snapshot();
  const uint64_t armed_tainted = snap.memory.tainted_byte_count();

  RunReport first = machine->run();
  if (!cow_disabled()) {
    EXPECT_GT(machine->memory().dirty_page_count(), 0u)
        << "the run must have dirtied pages for a delta to exist";
  }

  machine->restore(snap);
  if (!cow_disabled()) {
    const auto stats = machine->memory().cow_stats();
    EXPECT_GE(stats.delta_restores, 1u)
        << "restoring to the snapshot this machine took must be a delta";
    EXPECT_GE(stats.pages_delta_restored, 1u);
    EXPECT_EQ(machine->memory().dirty_page_count(), 0u);
  }
  // Page-summary rollups come back from the base, not from a rescan.
  EXPECT_EQ(machine->memory().tainted_byte_count(), armed_tainted);

  RunReport second = machine->run();
  EXPECT_EQ(fingerprint(first), fingerprint(second));
}

TEST(Snapshot, ManyForksWithInterleavedRestoresMatchFullCopyReference) {
  // N COW forks of one snapshot, each run/restored/re-run on staggered
  // schedules, must all report exactly what a PTAINT_NO_COW-style deep-copy
  // machine reports.
  auto scenario = make_scenario(AttackId::kExp2Heap);
  MachineSnapshot snap = scenario->prepare_attack({})->snapshot();

  MachineConfig full_cfg;
  full_cfg.no_cow = true;
  Machine reference(full_cfg);
  reference.restore(snap);
  const std::string want = fingerprint(reference.run());

  constexpr int kForks = 6;
  std::vector<std::unique_ptr<Machine>> forks;
  for (int i = 0; i < kForks; ++i) {
    forks.push_back(std::make_unique<Machine>());
    forks.back()->restore(snap);
  }
  // Stagger: odd forks run a prefix, restore, then everyone runs to the
  // end — writes on one fork's pages must never reach a sibling's.
  for (int i = 1; i < kForks; i += 2) {
    forks[i]->run_for(500 * static_cast<uint64_t>(i));
    forks[i]->restore(snap);
    if (!cow_disabled()) {
      EXPECT_GE(forks[i]->memory().cow_stats().delta_restores, 1u);
    }
  }
  for (int i = 0; i < kForks; ++i) {
    EXPECT_EQ(fingerprint(forks[i]->run()), want) << "fork " << i;
  }
}

TEST(Snapshot, SelfModifyingCodeOnSharedPageAcrossForks) {
  // Two forks share the code page; each patches its own COW copy.  The
  // patch must break the share (not write through to the sibling or the
  // snapshot), and each fork's superblock/decode caches must drop the
  // stale translation for its own copy only.
  Machine booted;
  booted.load_source(kSelfModifying);
  MachineSnapshot snap = booted.snapshot();

  Machine a, b;
  a.restore(snap);
  b.restore(snap);
  RunReport ra = a.run();
  EXPECT_EQ(ra.exit_status, 42);
  if (a.memory().cow_stats().shares > 0) {  // not under PTAINT_NO_COW=1
    EXPECT_GT(a.memory().cow_stats().cow_breaks, 0u)
        << "patching shared text must copy the page";
  }

  RunReport rb = b.run();
  EXPECT_EQ(rb.exit_status, 42);
  EXPECT_EQ(fingerprint(ra), fingerprint(rb));

  // The snapshot still holds unpatched text: a fresh fork replays the
  // whole patch dance, and a delta restore reverts a patched fork.
  Machine c;
  c.restore(snap);
  EXPECT_EQ(fingerprint(c.run()), fingerprint(ra));
  a.restore(snap);
  EXPECT_EQ(fingerprint(a.run()), fingerprint(ra));
}

TEST(Snapshot, ConcurrentForkRestoreStress) {
  // Eight threads hammer one shared snapshot: each owns a machine and
  // loops restore -> run -> fingerprint.  Exercises the concurrent
  // ref-count traffic on shared pages (the TSan CI leg runs this).
  auto scenario = make_scenario(AttackId::kExp3Format);
  const MachineSnapshot snap = scenario->prepare_attack({})->snapshot();

  Machine serial;
  serial.restore(snap);
  const std::string want = fingerprint(serial.run());

  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::vector<std::string> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&snap, &got, t]() {
      Machine machine;
      std::string print;
      for (int round = 0; round < kRounds; ++round) {
        machine.restore(snap);
        print = fingerprint(machine.run());
      }
      got[static_cast<size_t>(t)] = std::move(print);
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<size_t>(t)], want) << "thread " << t;
  }
}

}  // namespace
}  // namespace ptaint::core
