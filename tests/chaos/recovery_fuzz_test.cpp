// Crash-recovery fuzzing over the durable storage stack (ISSUE: durable WAL
// + checkpoint persistence on a fault-injecting VFS).
//
// Layers:
//   - seeded fuzz matrix: fixed seeds x every fault mode (torn tail, partial
//     write, bit flip, lying fsync), each killing a random replica at a
//     random syscall inside the write path, on the TPC-C and catalog
//     workloads — every run must recover byte-identical (state hash) to a
//     witness replay that never crashed;
//   - directed scenarios: a latent media error inside a WAL record (must be
//     quarantined, recovery completing via checkpoint + leader catch-up,
//     never a crash), and a whole-cluster cold start that reconstructs from
//     the on-disk state alone;
//   - satellites: the submit_with_retry overall deadline under a lost
//     majority, and the checkpoint-store recovery anchor surviving
//     retention;
//   - a wider sweep gated behind PROG_CHAOS_LONG=1 (nightly CI).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <sstream>
#include <tuple>

#include "consensus/recovery_fuzz.hpp"
#include "lang/builder.hpp"
#include "workloads/microbench.hpp"
#include "workloads/tpcc.hpp"

namespace prog::consensus {
namespace {

// --- tiny counter workload for the directed scenarios ------------------------

constexpr TableId kT = 1;
constexpr FieldId kV = 0;
constexpr Value kKeys = 32;

lang::Proc make_bump() {
  lang::ProcBuilder b("bump");
  auto k = b.param("k", 0, kKeys - 1);
  auto amt = b.param("amt", 1, 9);
  auto row = b.get(kT, k);
  b.put(kT, k, {{kV, row.field(kV) + amt}});
  return std::move(b).build();
}

ReplicatedDb::SetupFn bump_setup() {
  return [](db::Database& d) {
    d.register_procedure(make_bump());
    for (Key k = 0; k < static_cast<Key>(kKeys); ++k) {
      d.store().put({kT, k}, store::Row{{kV, 100}}, 0);
    }
    d.finalize();
  };
}

std::vector<sched::TxRequest> bump_batch(std::size_t n, Rng& rng) {
  std::vector<sched::TxRequest> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sched::TxRequest r;
    r.proc = 0;
    r.input.add(rng.uniform(0, kKeys - 1));
    r.input.add(rng.uniform(1, 9));
    out.push_back(std::move(r));
  }
  return out;
}

sched::EngineConfig small_cfg() {
  sched::EngineConfig cfg;
  cfg.workers = 2;
  return cfg;
}

std::string dump_trace(const RecoveryFuzzReport& rep) {
  std::ostringstream os;
  os << "victim=r" << rep.victim << " mode=" << dur::to_string(rep.mode)
     << " budget=" << rep.crash_syscall_budget
     << " crash_triggered=" << rep.crash_triggered << "\n";
  for (const std::string& line : rep.trace) os << "  " << line << "\n";
  return os.str();
}

void expect_recovered(const RecoveryFuzzReport& rep, std::uint64_t seed) {
  EXPECT_TRUE(rep.converged) << "seed " << seed << "\n" << dump_trace(rep);
  EXPECT_TRUE(rep.hashes_match) << "seed " << seed << "\n" << dump_trace(rep);
  EXPECT_TRUE(rep.witness_match) << "seed " << seed << "\n" << dump_trace(rep);
  EXPECT_TRUE(rep.counters_match) << "seed " << seed << "\n" << dump_trace(rep);
  EXPECT_GT(rep.batches_submitted, 0u);
  // The recovered replica came back through the durable path: local disk
  // and/or leader catch-up, but always accounted for.
  EXPECT_GE(rep.recovery.durable_recoveries + rep.recovery.full_rebuilds +
                rep.recovery.snapshot_installs,
            1u)
      << "seed " << seed << "\n"
      << dump_trace(rep);
}

// --- seeded fuzz matrix: seeds x fault modes x workloads ----------------------

class RecoveryFuzzMatrixTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, dur::FaultMode>> {
 protected:
  static RecoveryFuzzOptions fuzz_opts(dur::FaultMode mode) {
    RecoveryFuzzOptions opts;
    opts.warmup_rounds = 6;
    opts.armed_rounds = 7;
    opts.post_rounds = 3;
    opts.batch_size = 6;
    opts.mode = mode;
    opts.recovery.checkpoint_interval = 3;
    return opts;
  }
};

TEST_P(RecoveryFuzzMatrixTest, TpccRecoversToWitness) {
  const auto [seed, mode] = GetParam();
  db::Database gen_db(small_cfg());
  workloads::tpcc::Workload gen(gen_db, workloads::tpcc::Scale::tiny(1));
  const RecoveryFuzzReport rep = run_recovery_fuzz(
      [](db::Database& d) {
        workloads::tpcc::Workload wl(d, workloads::tpcc::Scale::tiny(1));
      },
      [&](std::size_t n, Rng& rng) { return gen.batch(n, rng); },
      fuzz_opts(mode), seed);
  expect_recovered(rep, seed);
}

TEST_P(RecoveryFuzzMatrixTest, CatalogRecoversToWitness) {
  const auto [seed, mode] = GetParam();
  workloads::micro::CatalogOptions wopts;
  wopts.catalog_keys = 120;
  wopts.accounts = 240;
  wopts.reads_per_tx = 4;
  db::Database gen_db(small_cfg());
  workloads::micro::CatalogWorkload gen(gen_db, wopts);
  const RecoveryFuzzReport rep = run_recovery_fuzz(
      [wopts](db::Database& d) { workloads::micro::CatalogWorkload wl(d, wopts); },
      [&](std::size_t n, Rng& rng) { return gen.batch(n, /*reprices=*/2, rng); },
      fuzz_opts(mode), seed);
  expect_recovered(rep, seed);
}

INSTANTIATE_TEST_SUITE_P(
    FixedSeeds, RecoveryFuzzMatrixTest,
    ::testing::Combine(::testing::Values(101, 202, 303, 404, 505),
                       ::testing::Values(dur::FaultMode::kTornTail,
                                         dur::FaultMode::kPartialWrite,
                                         dur::FaultMode::kBitFlip,
                                         dur::FaultMode::kFsyncNoop)),
    [](const auto& info) {
      return std::string("seed") +
             std::to_string(std::get<0>(info.param)) + "_" +
             dur::to_string(std::get<1>(info.param));
    });

/// Pipelined-apply matrix cell: the same crash-recovery contract must hold
/// with the async commit queue in the write path (pipeline_depth > 0),
/// where agreed-but-unsynced records die in the queue instead of in the
/// page cache. Every fault mode, two fixed seeds.
TEST(RecoveryFuzzTest, PipelinedApplyRecoversAcrossFaultModes) {
  constexpr dur::FaultMode kModes[] = {
      dur::FaultMode::kTornTail, dur::FaultMode::kPartialWrite,
      dur::FaultMode::kBitFlip, dur::FaultMode::kFsyncNoop};
  for (const std::uint64_t seed : {101u, 505u}) {
    for (const dur::FaultMode mode : kModes) {
      workloads::micro::CatalogOptions wopts;
      wopts.catalog_keys = 120;
      wopts.accounts = 240;
      wopts.reads_per_tx = 4;
      db::Database gen_db(small_cfg());
      workloads::micro::CatalogWorkload gen(gen_db, wopts);
      RecoveryFuzzOptions opts;
      opts.warmup_rounds = 6;
      opts.armed_rounds = 7;
      opts.post_rounds = 3;
      opts.batch_size = 6;
      opts.mode = mode;
      opts.recovery.checkpoint_interval = 3;
      opts.config = small_cfg();
      opts.config.pipeline_depth = 2;
      const RecoveryFuzzReport rep = run_recovery_fuzz(
          [wopts](db::Database& d) {
            workloads::micro::CatalogWorkload wl(d, wopts);
          },
          [&](std::size_t n, Rng& rng) {
            return gen.batch(n, /*reprices=*/2, rng);
          },
          opts, seed);
      EXPECT_TRUE(rep.ok()) << "seed " << seed << " mode "
                            << dur::to_string(mode) << " depth=2\n"
                            << dump_trace(rep);
    }
  }
}

TEST(RecoveryFuzzTest, SameSeedReproducesIdenticalRun) {
  auto once = [] {
    RecoveryFuzzOptions opts;
    opts.warmup_rounds = 5;
    opts.armed_rounds = 5;
    opts.post_rounds = 2;
    opts.batch_size = 5;
    opts.mode = dur::FaultMode::kTornTail;
    opts.recovery.checkpoint_interval = 3;
    return run_recovery_fuzz(bump_setup(), bump_batch, opts, 12345);
  };
  const RecoveryFuzzReport a = once();
  const RecoveryFuzzReport b = once();
  ASSERT_TRUE(a.ok()) << dump_trace(a);
  EXPECT_EQ(a.victim, b.victim);
  EXPECT_EQ(a.crash_syscall_budget, b.crash_syscall_budget);
  EXPECT_EQ(a.state_hash, b.state_hash);
  EXPECT_EQ(a.witness_hash, b.witness_hash);
  EXPECT_EQ(a.trace, b.trace);  // the whole scenario replays exactly
}

// --- directed scenarios -------------------------------------------------------

/// A latent media error (not a crash artifact) flips bits inside a WAL
/// record. On restart the scan must quarantine the record and everything
/// after it, and recovery must complete via the checkpoint chain + leader
/// catch-up — never by crashing on the corrupt frame.
TEST(RecoveryFuzzTest, CorruptWalRecordIsQuarantinedAndRecoveryCompletes) {
  dur::FaultVfs vfs(77);
  RecoveryOptions rec;
  rec.checkpoint_interval = 3;
  rec.vfs = &vfs;
  rec.dur_dir = "dur";
  ReplicatedDb rdb(3, 4242, bump_setup(), small_cfg(), {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId victim = leader == 0 ? 1 : 0;

  Rng rng(9);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(6, rng)));
    rdb.run_ms(100);
  }
  rdb.run_ms(500);
  ASSERT_TRUE(rdb.converged());

  // Rot a byte in the middle of the victim's newest (longest-named) WAL
  // segment — the batches above its last checkpoint.
  const std::string vdir = "dur/r" + std::to_string(victim);
  std::string target;
  for (const std::string& name : vfs.list(vdir)) {
    if (name.rfind("wal-", 0) == 0 && !vfs.read_all(vdir + "/" + name).empty()) {
      target = vdir + "/" + name;  // list() is sorted: keep the newest
    }
  }
  ASSERT_FALSE(target.empty());
  vfs.corrupt(target, vfs.read_all(target).size() / 2, 0x21);

  rdb.crash_replica(victim);
  rdb.run_ms(200);
  rdb.restart_replica(victim);
  for (int d = 0; d < 20 && !rdb.converged(); ++d) rdb.run_ms(2000);

  ASSERT_TRUE(rdb.converged());
  const auto hashes = rdb.state_hashes();
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  EXPECT_EQ(hashes[victim], rdb.witness_state_hash());
  ASSERT_NE(rdb.dur_metrics(), nullptr);
  EXPECT_GE(rdb.dur_metrics()->records_quarantined->value(), 1u);
  // The bad suffix is preserved on disk for forensics.
  bool quarantine_file = false;
  for (const std::string& name : vfs.list(vdir)) {
    if (name.rfind("quarantine-", 0) == 0) quarantine_file = true;
  }
  EXPECT_TRUE(quarantine_file);
  EXPECT_FALSE(rdb.quarantined(victim));
  EXPECT_EQ(rdb.deterministic_counter_snapshot(victim),
            rdb.deterministic_counter_snapshot(static_cast<unsigned>(leader)));
}

/// Whole-cluster cold start: destroy the ReplicatedDb (every in-memory
/// structure gone) and rebuild it over the same Vfs. Construction must
/// recover every replica from its own directory — checkpoints + WAL replay —
/// and the cluster must resume accepting traffic.
TEST(RecoveryFuzzTest, ColdStartReconstructsClusterFromDiskAlone) {
  dur::FaultVfs vfs(55);
  RecoveryOptions rec;
  rec.checkpoint_interval = 3;
  rec.vfs = &vfs;
  rec.dur_dir = "dur";

  std::uint64_t hash_before = 0;
  {
    ReplicatedDb rdb(3, 1111, bump_setup(), small_cfg(), {}, rec);
    Rng rng(21);
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(rdb.submit_with_retry(bump_batch(6, rng)));
      rdb.run_ms(100);
    }
    rdb.run_ms(1000);
    ASSERT_TRUE(rdb.converged());
    hash_before = rdb.state_hashes()[0];
    ASSERT_NE(hash_before, 0u);
  }  // power off the whole cluster (unsynced tails survive: clean shutdown)

  ReplicatedDb rdb(3, 1111, bump_setup(), small_cfg(), {}, rec);
  // Before a single message flows, every replica is already back at the
  // pre-shutdown state, from disk alone.
  for (const std::uint64_t h : rdb.state_hashes()) {
    EXPECT_EQ(h, hash_before);
  }
  EXPECT_TRUE(rdb.converged());
  EXPECT_GE(rdb.recovery_stats().durable_recoveries, 3u);
  ASSERT_NE(rdb.dur_metrics(), nullptr);
  const auto* dm = rdb.dur_metrics();
  // Nobody came back empty-handed ("none" = at the mercy of the leader).
  EXPECT_EQ(dm->recovery_none->value(), 0u);
  EXPECT_GE(dm->recovery_checkpoint_wal->value() +
                dm->recovery_checkpoint->value() + dm->recovery_wal->value(),
            3u);

  // And the reconstructed cluster is alive: new traffic commits and applies.
  rdb.run_ms(1000);
  Rng rng(22);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(6, rng)));
    rdb.run_ms(100);
  }
  rdb.run_ms(1000);
  ASSERT_TRUE(rdb.converged());
  const auto hashes = rdb.state_hashes();
  EXPECT_NE(hashes[0], hash_before);  // state advanced past the restart
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  EXPECT_EQ(rdb.deterministic_counter_snapshot(0),
            rdb.deterministic_counter_snapshot(1));
  EXPECT_EQ(rdb.deterministic_counter_snapshot(1),
            rdb.deterministic_counter_snapshot(2));
}

// --- satellites ---------------------------------------------------------------

/// submit_with_retry must give up at the configured overall deadline when
/// the cluster has lost its majority — in bounded virtual time, regardless
/// of the (much larger) per-call budget the call site passed.
TEST(RecoveryFuzzTest, SubmitTimesOutAtDeadlineWithoutQuorum) {
  RecoveryOptions rec;
  rec.submit_deadline_ms = 1200;
  ReplicatedDb rdb(3, 777, bump_setup(), small_cfg(), {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId a = static_cast<NodeId>(leader);
  const NodeId b = (a + 1) % 3;
  rdb.crash_replica(a);
  rdb.crash_replica(b);  // one survivor: no quorum, no leader, ever
  rdb.run_ms(300);

  Rng rng(5);
  const SimTime before = rdb.raft().net().now();
  EXPECT_FALSE(rdb.submit_with_retry(bump_batch(4, rng), /*max_wait_ms=*/600000));
  const SimTime elapsed = rdb.raft().net().now() - before;
  EXPECT_GE(elapsed, 1200);  // the full configured budget was spent...
  EXPECT_LE(elapsed, 2400);  // ...and nowhere near the caller's 600 s
  EXPECT_EQ(rdb.recovery_stats().submit_timeouts, 1u);
  EXPECT_EQ(rdb.replica_metrics().submit_timeouts->value(), 1u);
  // The pool entry was reclaimed: nothing can ever commit that command.
  EXPECT_EQ(rdb.recovery_stats().submit_retries > 0, true);
}

/// Retention must never evict the recovery anchor — the newest checkpoint at
/// or below the log compaction point. Dropping it would strand every replica
/// that needs an InstallSnapshot at that boundary.
TEST(RecoveryFuzzTest, CheckpointAnchorSurvivesRetention) {
  CheckpointStore store;
  auto mk = [](LogIndex seq) {
    Checkpoint cp;
    cp.seq = seq;
    cp.state_hash = 0x1000 + seq;
    return cp;
  };
  store.add(mk(2), 2);
  store.add(mk(4), 2);
  store.set_anchor(4);  // log compacted to 4: this image is irreplaceable
  for (LogIndex seq = 6; seq <= 20; seq += 2) store.add(mk(seq), 2);
  // The anchor outlived seven rounds of pruning at max_retained=2...
  ASSERT_NE(store.at(4), nullptr);
  EXPECT_EQ(store.at(4)->state_hash, 0x1000u + 4);
  // ...while ordinary retention still applied around it (anchor + newest 2).
  EXPECT_LE(store.size(), 3u);
  EXPECT_NE(store.latest(), nullptr);
  EXPECT_EQ(store.latest()->seq, 20u);
  EXPECT_EQ(store.at(2), nullptr);  // non-anchor oldies still pruned

  // Moving the anchor releases the old one to normal retention.
  store.set_anchor(20);
  store.add(mk(22), 2);
  store.add(mk(24), 2);
  EXPECT_EQ(store.at(4), nullptr);
  ASSERT_NE(store.at(20), nullptr);
}

// --- long sweep (opt-in) -------------------------------------------------------

TEST(RecoveryFuzzLongTest, WiderSeedAndModeSweep) {
  const char* flag = std::getenv("PROG_CHAOS_LONG");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') {
    GTEST_SKIP() << "set PROG_CHAOS_LONG=1 to run the long recovery-fuzz sweep";
  }
  constexpr dur::FaultMode kModes[] = {
      dur::FaultMode::kTornTail, dur::FaultMode::kPartialWrite,
      dur::FaultMode::kBitFlip, dur::FaultMode::kFsyncNoop};
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    db::Database gen_db(small_cfg());
    workloads::tpcc::Workload gen(gen_db, workloads::tpcc::Scale::tiny(1));
    RecoveryFuzzOptions opts;
    opts.replicas = seed % 2 == 0 ? 5 : 3;
    opts.warmup_rounds = 10;
    opts.armed_rounds = 10;
    opts.post_rounds = 5;
    opts.batch_size = 8;
    opts.mode = kModes[seed % 4];
    opts.max_crash_syscalls = 20 + 20 * (seed % 5);
    opts.recovery.checkpoint_interval = 2 + seed % 3;
    const RecoveryFuzzReport rep = run_recovery_fuzz(
        [](db::Database& d) {
          workloads::tpcc::Workload wl(d, workloads::tpcc::Scale::tiny(1));
        },
        [&](std::size_t n, Rng& rng) { return gen.batch(n, rng); }, opts,
        seed * 1000003);
    // A failing (seed, mode) pair is the whole repro: the run is a pure
    // function of it. CI uploads this log as the failing-seed artifact.
    EXPECT_TRUE(rep.ok()) << "seed " << seed << " mode "
                          << dur::to_string(opts.mode) << "\n"
                          << dump_trace(rep);
  }
}

}  // namespace
}  // namespace prog::consensus
