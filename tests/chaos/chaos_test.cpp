// Chaos suite: seeded fault schedules against the replicated database
// (ISSUE: crash/restart, checkpoint/catch-up, divergence quarantine).
//
// Three layers:
//   - seeded sweeps: fixed seeds drive run_chaos over TPC-C and the catalog
//     microbenchmark; every run must end converged with byte-identical
//     replica state (the determinism claim under fire);
//   - directed recovery scenarios: a follower restarting from a local
//     checkpoint whose suffix the leader has compacted away (InstallSnapshot
//     path), and an injected divergence that must be quarantined and
//     re-synced from a hash-validated checkpoint;
//   - a longer randomized sweep gated behind PROG_CHAOS_LONG=1 (CI runs it
//     on a schedule; locally it is skipped).
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "consensus/chaos.hpp"
#include "dur/fault_vfs.hpp"
#include "lang/builder.hpp"
#include "obs/tracing/tracing.hpp"
#include "obs/tracing/validator.hpp"
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

// --- seeded sweeps ------------------------------------------------------------

class ChaosSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChaosSeedTest, TpccMixConverges) {
  const std::uint64_t seed = GetParam();
  db::Database gen_db(small_cfg());
  workloads::tpcc::Workload gen(gen_db, workloads::tpcc::Scale::tiny(1));

  RecoveryOptions rec;
  rec.checkpoint_interval = 3;
  ReplicatedDb rdb(
      3, seed,
      [](db::Database& d) {
        workloads::tpcc::Workload wl(d, workloads::tpcc::Scale::tiny(1));
      },
      small_cfg(), {}, rec);

  ChaosOptions copts;
  copts.rounds = 30;
  copts.batch_size = 8;
  const ChaosReport rep = run_chaos(
      rdb, [&](std::size_t n, Rng& rng) { return gen.batch(n, rng); }, copts,
      seed * 31 + 7);

  EXPECT_TRUE(rep.converged) << "seed " << seed;
  EXPECT_TRUE(rep.hashes_match) << "seed " << seed;
  // Telemetry divergence oracle: the deterministic counter snapshot is
  // byte-identical on every replica at quiescence — a restore must count a
  // replayed batch exactly once (checkpoint-carried stats baseline).
  EXPECT_TRUE(rep.counters_match) << "seed " << seed;
  EXPECT_FALSE(rep.counter_snapshot.empty()) << "seed " << seed;
  EXPECT_GT(rep.batches_applied, 0u) << "seed " << seed;
  EXPECT_LE(rep.batches_applied, rep.batches_submitted);
  // Every crashed replica came back through its own directory: recovered
  // from disk, or (nothing on disk yet) re-streamed from index 1.
  EXPECT_GE(rep.recovery.durable_recoveries + rep.recovery.full_rebuilds,
            rep.events.crashes)
      << "seed " << seed;

  // The harness mirrors every injected fault into the chaos_* counter
  // families, so dashboards/tests can assert on telemetry alone.
  const obs::ReplicaMetrics& rm = rdb.replica_metrics();
  EXPECT_EQ(rm.chaos_crashes->value(), rep.events.crashes);
  EXPECT_EQ(rm.chaos_pauses->value(), rep.events.pauses);
  EXPECT_EQ(rm.chaos_restarts->value(), rep.events.restarts);
  EXPECT_EQ(rm.chaos_partitions->value(), rep.events.partitions);
  EXPECT_EQ(rm.chaos_heals->value(), rep.events.heals);
  EXPECT_EQ(rm.chaos_bursts->value(), rep.events.bursts);
  EXPECT_EQ(rm.checkpoints->value(), rep.recovery.checkpoints_taken);
  EXPECT_EQ(rm.batches_submitted->value(), rep.batches_submitted);
  rdb.refresh_gauges();
  EXPECT_EQ(rm.replicas_down->value(), 0);  // everything healed at the end
}

TEST_P(ChaosSeedTest, CatalogMixConverges) {
  const std::uint64_t seed = GetParam();
  workloads::micro::CatalogOptions wopts;
  wopts.catalog_keys = 200;
  wopts.accounts = 400;
  wopts.reads_per_tx = 4;

  db::Database gen_db(small_cfg());
  workloads::micro::CatalogWorkload gen(gen_db, wopts);

  RecoveryOptions rec;
  rec.checkpoint_interval = 4;
  ReplicatedDb rdb(
      3, seed,
      [wopts](db::Database& d) {
        workloads::micro::CatalogWorkload wl(d, wopts);
      },
      small_cfg(), {}, rec);

  ChaosOptions copts;
  copts.rounds = 25;
  copts.batch_size = 10;
  const ChaosReport rep = run_chaos(
      rdb,
      [&](std::size_t n, Rng& rng) { return gen.batch(n, /*reprices=*/2, rng); },
      copts, seed ^ 0x9e3779b97f4a7c15ULL);

  EXPECT_TRUE(rep.converged) << "seed " << seed;
  EXPECT_TRUE(rep.hashes_match) << "seed " << seed;
  EXPECT_TRUE(rep.counters_match) << "seed " << seed;
  EXPECT_GT(rep.batches_applied, 0u) << "seed " << seed;
  EXPECT_GE(rep.recovery.durable_recoveries + rep.recovery.full_rebuilds,
            rep.events.crashes)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, ChaosSeedTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(ChaosTest, SameSeedReproducesIdenticalRun) {
  auto once = [](std::uint64_t seed) {
    db::Database gen_db(small_cfg());
    workloads::tpcc::Workload gen(gen_db, workloads::tpcc::Scale::tiny(1));
    RecoveryOptions rec;
    rec.checkpoint_interval = 3;
    ReplicatedDb rdb(
        3, seed,
        [](db::Database& d) {
          workloads::tpcc::Workload wl(d, workloads::tpcc::Scale::tiny(1));
        },
        small_cfg(), {}, rec);
    ChaosOptions copts;
    copts.rounds = 20;
    copts.batch_size = 6;
    return run_chaos(
        rdb, [&](std::size_t n, Rng& rng) { return gen.batch(n, rng); }, copts,
        seed + 1);
  };
  const ChaosReport a = once(42);
  const ChaosReport b = once(42);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.state_hash, b.state_hash);
  EXPECT_EQ(a.batches_applied, b.batches_applied);
  EXPECT_EQ(a.trace, b.trace);  // the fault schedule itself replays exactly
  // The counter snapshot is part of the reproducible surface too.
  EXPECT_EQ(a.counter_snapshot, b.counter_snapshot);
}

// --- directed recovery scenarios ---------------------------------------------

/// A follower crashes with a local checkpoint, the leader compacts its log
/// past that boundary, and the restarted follower must come back via
/// checkpoint restore + InstallSnapshot state transfer (the committed suffix
/// between its checkpoint and the leader's boundary is gone from every log).
TEST(ChaosTest, CheckpointRestoreThenCompactedSuffixCatchUp) {
  RecoveryOptions rec;
  rec.checkpoint_interval = 2;
  rec.compact_logs = true;
  ReplicatedDb rdb(3, 9001, bump_setup(), small_cfg(), {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId victim = leader == 0 ? 1 : 0;

  Rng rng(77);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(6, rng)));
    rdb.run_ms(100);
  }
  rdb.run_ms(500);
  ASSERT_FALSE(rdb.checkpoints(victim).empty());

  rdb.crash_replica(victim);
  ASSERT_TRUE(rdb.replica_down(victim));
  for (int i = 0; i < 8; ++i) {  // leader checkpoints + compacts past victim
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(6, rng)));
    rdb.run_ms(100);
  }
  const NodeId lid = static_cast<NodeId>(rdb.raft().leader());
  EXPECT_GT(rdb.raft().node(lid).snapshot_index(), 6u);

  rdb.restart_replica(victim);
  rdb.run_ms(3000);

  ASSERT_TRUE(rdb.converged());
  const auto hashes = rdb.state_hashes();
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  const RecoveryStats& st = rdb.recovery_stats();
  EXPECT_GT(st.checkpoints_taken, 0u);
  EXPECT_GE(st.checkpoint_restores, 1u);  // victim restored its local image
  EXPECT_GE(st.snapshot_installs, 1u);    // and caught up via InstallSnapshot
  // Engine counters survived the rebuild (resume-safe accounting) — and the
  // replayed suffix was counted exactly once: the restored replica's
  // deterministic snapshot is byte-identical to the never-crashed leader's.
  EXPECT_GT(rdb.replica_engine_stats(victim).committed, 0u);
  EXPECT_EQ(rdb.deterministic_counter_snapshot(victim),
            rdb.deterministic_counter_snapshot(lid));

  // The replica-metrics registry mirrors RecoveryStats (scrape parity).
  const obs::ReplicaMetrics& rm = rdb.replica_metrics();
  EXPECT_EQ(rm.checkpoints->value(), st.checkpoints_taken);
  EXPECT_EQ(rm.checkpoint_restores->value(), st.checkpoint_restores);
  EXPECT_EQ(rm.snapshot_installs->value(), st.snapshot_installs);
  rdb.refresh_gauges();
  EXPECT_EQ(rm.replicas_down->value(), 0);
  EXPECT_EQ(rm.batch_lag->value(), 0);
}

/// Restart with checkpointing disabled: the replica recovers from its own
/// WAL (no checkpoint to restore) and only the suffix it missed while down
/// streams in from the leader.
TEST(ChaosTest, RestartWithoutCheckpointsReplaysOwnWal) {
  RecoveryOptions rec;
  rec.checkpoint_interval = 0;  // no checkpoints
  rec.compact_logs = false;
  ReplicatedDb rdb(3, 4242, bump_setup(), small_cfg(), {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId victim = leader == 0 ? 1 : 0;

  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  const std::size_t before_crash = rdb.raft().applied(victim).size();
  ASSERT_GE(before_crash, 4u);
  rdb.crash_replica(victim);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  rdb.restart_replica(victim);
  // Recovery alone (before any message) rejoins at the WAL's end.
  EXPECT_EQ(rdb.raft().applied(victim).size(), before_crash);
  rdb.run_ms(3000);

  ASSERT_TRUE(rdb.converged());
  const auto hashes = rdb.state_hashes();
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  const RecoveryStats& st = rdb.recovery_stats();
  EXPECT_EQ(st.durable_recoveries, 1u);
  EXPECT_EQ(st.wal_records_replayed, before_crash);
  EXPECT_EQ(st.checkpoint_restores, 0u);
  EXPECT_EQ(st.full_rebuilds, 0u);
  EXPECT_EQ(st.snapshot_installs, 0u);
  // The one checkpoint is the rejoin image recovery writes at the WAL's end
  // (the boundary this node can serve InstallSnapshot from).
  EXPECT_EQ(st.checkpoints_taken, 1u);
}

/// Restart after the replica's directory is lost: nothing local survives, so
/// the replica rejoins blank and the leader re-streams the committed prefix
/// from index 1 (a full rebuild by replay).
TEST(ChaosTest, RestartWithoutCheckpointsFullyReplays) {
  dur::FaultVfs vfs(4242);
  RecoveryOptions rec;
  rec.checkpoint_interval = 0;  // no checkpoints
  rec.compact_logs = false;
  rec.vfs = &vfs;
  ReplicatedDb rdb(3, 4242, bump_setup(), small_cfg(), {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId victim = leader == 0 ? 1 : 0;

  Rng rng(5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  rdb.crash_replica(victim);
  const std::string dir = rec.dur_dir + "/r" + std::to_string(victim);
  const std::vector<std::string> files = vfs.list(dir);
  ASSERT_FALSE(files.empty());
  for (const std::string& name : files) vfs.remove(dir + "/" + name);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  rdb.restart_replica(victim);
  EXPECT_TRUE(rdb.raft().applied(victim).empty());
  rdb.run_ms(3000);

  ASSERT_TRUE(rdb.converged());
  EXPECT_GE(rdb.raft().applied(victim).size(), 8u);
  const auto hashes = rdb.state_hashes();
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  const RecoveryStats& st = rdb.recovery_stats();
  EXPECT_GE(st.full_rebuilds, 1u);
  EXPECT_EQ(st.durable_recoveries, 0u);
  EXPECT_EQ(st.snapshot_installs, 0u);  // AppendEntries from index 1
  EXPECT_EQ(st.checkpoints_taken, 0u);
  EXPECT_EQ(rdb.replica_metrics().full_rebuilds->value(), st.full_rebuilds);
}

/// An InstallSnapshot can outlive the boundary it names: the leader applies
/// a backlog at once when a commit-index jump lands, checkpointing and
/// compacting past (and evicting) the boundary while the message is in
/// flight. The follower must decline it, and the leader must resend its
/// current boundary. Message delays are random, so the race is swept over
/// fixed seeds; each run is a pure function of its seed.
TEST(ChaosTest, StaleInstallSnapshotIsDeclinedAndResent) {
  std::uint64_t declined = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RecoveryOptions rec;
    rec.checkpoint_interval = 1;
    ReplicatedDb rdb(3, seed, bump_setup(), small_cfg(), {}, rec);
    rdb.run_ms(1000);
    const int leader = rdb.raft().leader();
    ASSERT_GE(leader, 0);
    const NodeId lid = static_cast<NodeId>(leader);
    const NodeId lagger = (lid + 1) % 3;
    const NodeId acker = (lid + 2) % 3;

    // The lagger misses six batches, which the leader compacts away.
    Rng rng(seed);
    rdb.raft().crash(lagger);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(rdb.submit_with_retry(bump_batch(3, rng)));
      rdb.run_ms(20);
    }
    ASSERT_GE(rdb.raft().node(lid).snapshot_index(), 6u);
    // A backlog the leader cannot commit while the acker is paused.
    rdb.raft().crash(acker);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(rdb.submit_batch(bump_batch(3, rng)));
    }
    rdb.run_ms(10);  // what those submits sent dies at the paused nodes
    // One heartbeat then carries both the install to the lagger and the
    // backlog to the acker; the acker's reply commits all eight batches.
    rdb.raft().restart(lagger);
    rdb.raft().restart(acker);
    rdb.run_ms(2000);

    ASSERT_TRUE(rdb.converged()) << "seed " << seed;
    const auto hashes = rdb.state_hashes();
    EXPECT_EQ(hashes[0], hashes[1]) << "seed " << seed;
    EXPECT_EQ(hashes[1], hashes[2]) << "seed " << seed;
    EXPECT_EQ(rdb.raft().applied(0).size(), 14u) << "seed " << seed;
    EXPECT_GE(rdb.recovery_stats().snapshot_installs, 1u) << "seed " << seed;
    declined += rdb.recovery_stats().installs_declined;
  }
  EXPECT_GE(declined, 1u);  // the race happened at least once in the sweep
}

/// A new leader whose log ends in an earlier-term entry above its commit
/// index may not commit it by counting replicas (Raft §5.4.2). It proposes
/// an empty batch of its own term, which commits both; without it the entry
/// would wait for the next client submit, and the old leader (which already
/// applied it) would never converge with the rest.
TEST(ChaosTest, NewLeaderCommitsEarlierTermTailWithNoop) {
  RecoveryOptions rec;
  rec.checkpoint_interval = 2;
  ReplicatedDb rdb(3, 606, bump_setup(), small_cfg(), {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId old = static_cast<NodeId>(leader);
  const NodeId f1 = (old + 1) % 3;
  const NodeId f2 = (old + 2) % 3;

  Rng rng(21);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(4, rng)));
    rdb.run_ms(100);
  }
  // Pause the leader right after it commits batch 4, before any heartbeat
  // tells the followers.
  ASSERT_TRUE(rdb.submit_batch(bump_batch(4, rng)));
  for (int ms = 0; ms < 40 && rdb.raft().node(old).commit_index() < 4; ++ms) {
    rdb.run_ms(1);
  }
  ASSERT_EQ(rdb.raft().node(old).commit_index(), 4u);
  ASSERT_EQ(rdb.raft().node(f1).commit_index(), 3u);
  ASSERT_EQ(rdb.raft().node(f2).commit_index(), 3u);
  rdb.raft().crash(old);
  rdb.run_ms(2000);  // the followers elect a leader among themselves

  const int next = rdb.raft().leader();
  ASSERT_GE(next, 0);
  ASSERT_NE(static_cast<NodeId>(next), old);
  EXPECT_GE(rdb.recovery_stats().leader_noops, 1u);
  // Batch 4 and the no-op committed with no client submit.
  EXPECT_EQ(rdb.raft().node(static_cast<NodeId>(next)).commit_index(), 5u);
  EXPECT_EQ(rdb.raft().applied(f1).size(), 5u);
  EXPECT_EQ(rdb.raft().applied(f2).size(), 5u);

  rdb.raft().restart(old);
  rdb.run_ms(2000);
  ASSERT_TRUE(rdb.converged());
  // The empty batch executes identically everywhere, counters included, and
  // a never-crashed witness replays it to the same state.
  const auto hashes = rdb.state_hashes();
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
  EXPECT_EQ(rdb.witness_state_hash(), hashes[0]);
  EXPECT_EQ(rdb.deterministic_counter_snapshot(f1),
            rdb.deterministic_counter_snapshot(old));

  // The no-op is in the WAL like any batch: a follower that crashes now
  // replays it from disk.
  rdb.crash_replica(f1);
  rdb.restart_replica(f1);
  EXPECT_EQ(rdb.raft().applied(f1).size(), 5u);
  rdb.run_ms(1000);
  ASSERT_TRUE(rdb.converged());
  EXPECT_EQ(rdb.state_hashes()[f1], hashes[0]);
  EXPECT_EQ(rdb.recovery_stats().durable_recoveries, 1u);
}

/// Injected divergence: corrupt one follower's visible state behind the
/// engine's back. The next applied batch produces a state hash that
/// disagrees with the recorded history; the replica must be quarantined and
/// re-synced from a checkpoint the history vouches for.
TEST(ChaosTest, DivergenceIsQuarantinedAndResynced) {
  RecoveryOptions rec;
  rec.checkpoint_interval = 2;
  rec.compact_logs = false;  // keep logs: resync replays from the pool
  ReplicatedDb rdb(3, 31337, bump_setup(), small_cfg(), {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId victim = leader == 0 ? 1 : 0;

  Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  rdb.run_ms(500);
  ASSERT_TRUE(rdb.converged());

  // Corrupt a single row on the follower (a stray write the deterministic
  // engine never issued — e.g. a cosmic-ray stand-in).
  db::Database& bad = rdb.replica(victim);
  bad.store().put({kT, 0}, store::Row{{kV, 999999}}, bad.applied_batches());
  ASSERT_NE(bad.state_hash(), rdb.replica(static_cast<NodeId>(leader)).state_hash());

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  rdb.run_ms(1000);

  const RecoveryStats& st = rdb.recovery_stats();
  EXPECT_GE(st.divergences_detected, 1u);
  EXPECT_GE(st.quarantines, 1u);
  EXPECT_GE(st.resyncs, 1u);
  EXPECT_FALSE(rdb.quarantined(victim));
  // Divergence handling is mirrored into the telemetry registry.
  const obs::ReplicaMetrics& rm = rdb.replica_metrics();
  EXPECT_EQ(rm.divergences->value(), st.divergences_detected);
  EXPECT_EQ(rm.quarantines->value(), st.quarantines);
  EXPECT_EQ(rm.resyncs->value(), st.resyncs);
  // A resynced replica rejoins the logical counter record: its snapshot is
  // byte-identical to the leader's again.
  EXPECT_EQ(rdb.deterministic_counter_snapshot(victim),
            rdb.deterministic_counter_snapshot(static_cast<NodeId>(leader)));

  ASSERT_TRUE(rdb.converged());
  const auto hashes = rdb.state_hashes();
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[1], hashes[2]);
}

/// Same injected divergence, with the flight recorder running: the
/// quarantine must fire an explanatory anomaly dump — bounded, both
/// renderings produced, and the recorded span stream replayable through the
/// validator (allow_partial: a ring dump is a window, not a full trace).
TEST(ChaosTest, DivergenceProducesFlightRecorderDump) {
  namespace tracing = obs::tracing;
  tracing::FlightRecorder::Options fopts;
  fopts.dump_max_events = 1024;
  tracing::FlightRecorder::instance().enable(fopts);
  std::vector<tracing::AnomalyDump> dumps;
  tracing::FlightRecorder::instance().set_dump_handler(
      [&dumps](const tracing::AnomalyDump& d) { dumps.push_back(d); });

  RecoveryOptions rec;
  rec.checkpoint_interval = 2;
  rec.compact_logs = false;
  sched::EngineConfig cfg = small_cfg();
  cfg.trace_sample_n = 1;  // record every batch: the dump has context
  ReplicatedDb rdb(3, 31337, bump_setup(), cfg, {}, rec);
  rdb.run_ms(1000);
  const int leader = rdb.raft().leader();
  ASSERT_GE(leader, 0);
  const NodeId victim = leader == 0 ? 1 : 0;

  Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  rdb.run_ms(500);
  ASSERT_TRUE(rdb.converged());

  db::Database& bad = rdb.replica(victim);
  bad.store().put({kT, 0}, store::Row{{kV, 999999}}, bad.applied_batches());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rdb.submit_with_retry(bump_batch(5, rng)));
    rdb.run_ms(100);
  }
  rdb.run_ms(1000);

  tracing::FlightRecorder::instance().set_dump_handler(nullptr);
  tracing::FlightRecorder::instance().disable();

  EXPECT_GE(rdb.recovery_stats().divergences_detected, 1u);
  ASSERT_GE(dumps.size(), 1u);
  const tracing::AnomalyDump& d = dumps.front();
  EXPECT_EQ(d.anomaly, tracing::Anomaly::kDivergence);
  // The one-line detail explains the quarantine: which replica, at which
  // batch, and that the hash disagreed.
  EXPECT_NE(d.detail.find("replica " + std::to_string(victim)),
            std::string::npos)
      << d.detail;
  EXPECT_NE(d.detail.find("quarantined"), std::string::npos) << d.detail;
  // Bounded: the dump respects dump_max_events and its text stays small.
  EXPECT_LE(d.events.size(), fopts.dump_max_events);
  EXPECT_LE(d.text.size(), 256u * 1024u);
  EXPECT_FALSE(d.events.empty());
  EXPECT_NE(d.text.find("divergence"), std::string::npos);
  EXPECT_NE(d.perfetto_json.find("\"traceEvents\""), std::string::npos);
  // The dumped window ends at the anomaly marker itself.
  EXPECT_EQ(d.events.back().kind, tracing::SpanKind::kAnomaly);
  // Replayable: the dumped events pass the validator in partial mode.
  tracing::ValidateOptions vopts;
  vopts.allow_partial = true;
  const auto report = tracing::validate_spans(d.events, vopts);
  EXPECT_TRUE(report.ok()) << (report.errors.empty() ? "" : report.errors[0]);
}

// --- long sweep (opt-in) -------------------------------------------------------

TEST(ChaosLongTest, WiderSeedSweep) {
  const char* flag = std::getenv("PROG_CHAOS_LONG");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') {
    GTEST_SKIP() << "set PROG_CHAOS_LONG=1 to run the long chaos sweep";
  }
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    db::Database gen_db(small_cfg());
    workloads::tpcc::Workload gen(gen_db, workloads::tpcc::Scale::tiny(1));
    RecoveryOptions rec;
    rec.checkpoint_interval = 2 + seed % 3;
    rec.log_keep_tail = seed % 2;
    ReplicatedDb rdb(
        seed % 2 == 0 ? 5 : 3, seed,
        [](db::Database& d) {
          workloads::tpcc::Workload wl(d, workloads::tpcc::Scale::tiny(1));
        },
        small_cfg(), {}, rec);
    ChaosOptions copts;
    copts.rounds = 60;
    copts.batch_size = 8;
    const ChaosReport rep = run_chaos(
        rdb, [&](std::size_t n, Rng& rng) { return gen.batch(n, rng); }, copts,
        seed * 1000003);
    EXPECT_TRUE(rep.converged) << "seed " << seed;
    EXPECT_TRUE(rep.hashes_match) << "seed " << seed;
    EXPECT_GT(rep.batches_applied, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace prog::consensus
