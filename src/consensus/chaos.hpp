// Seeded chaos harness for the replicated database (DESIGN.md §8).
//
// Drives a ReplicatedDb through a randomized-but-deterministic schedule of
// faults — replica crashes (process death, then recovery from disk),
// process pauses, minority partitions, heals, and message-drop bursts —
// while continuously feeding it workload batches. The entire run, fault schedule included, is a
// pure function of (cluster seed, chaos seed, options): re-running with the
// same seeds replays the identical event sequence and must reach the
// identical final state hash.
//
// At the end the harness heals every fault, drains until the cluster
// converges, and reports the quiescent-point invariants the chaos tests
// assert: identical applied sequences on every replica and byte-identical
// state hashes (the determinism claim under fire), plus the recovery-layer
// counters (checkpoints, restores, snapshot installs, resyncs) so directed
// tests can check that specific recovery paths were actually exercised.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "consensus/replicated_db.hpp"

namespace prog::consensus {

struct ChaosOptions {
  /// Event rounds: each round injects at most one fault, submits one batch,
  /// and advances virtual time by round_ms.
  unsigned rounds = 40;
  std::size_t batch_size = 15;
  SimTime round_ms = 100;
  /// Virtual-time budget submit_with_retry may spend per round waiting out
  /// an election gap.
  SimTime submit_wait_ms = 600;
  /// Drain slice after the final heal; repeated (bounded) until converged.
  SimTime drain_ms = 2000;

  // Per-round fault probabilities, in percent; their sum must be <= 100.
  // At most one event fires per round.
  unsigned crash_pct = 8;      ///< crash_replica: process death
  unsigned pause_pct = 8;      ///< raft crash: process pause, state survives
  unsigned partition_pct = 8;  ///< isolate a random minority group
  unsigned heal_pct = 25;      ///< heal the split / restart one downed node
  unsigned burst_pct = 8;      ///< message-drop burst window

  unsigned burst_drop_percent = 60;
  SimTime burst_len_ms = 300;
  /// Rounds between reclaim_superseded() sweeps (0 = never).
  unsigned reclaim_every = 10;
};

struct ChaosEventCounts {
  unsigned crashes = 0;
  unsigned pauses = 0;
  unsigned restarts = 0;  ///< replica restarts + pause resumes (incl. final)
  unsigned partitions = 0;
  unsigned heals = 0;
  unsigned bursts = 0;
};

struct ChaosReport {
  /// Every replica applied the same batch sequence at quiescence.
  bool converged = false;
  /// Every replica's state hash is identical (and nonzero).
  bool hashes_match = false;
  /// Every replica's deterministic-counter snapshot is byte-identical at
  /// quiescence (telemetry divergence oracle, DESIGN.md §9). Catches
  /// counting nondeterminism — e.g. a restore double-counting replayed
  /// batches — even when the state hashes still agree.
  bool counters_match = false;
  bool ok() const noexcept {
    return converged && hashes_match && counters_match;
  }

  std::uint64_t state_hash = 0;
  std::size_t batches_submitted = 0;
  std::size_t batches_applied = 0;
  std::size_t submit_failures = 0;
  ChaosEventCounts events;
  RecoveryStats recovery;
  /// Replica 0's deterministic-counter snapshot at quiescence (canonical
  /// `name{labels} value` lines) — the value every replica must agree on.
  std::string counter_snapshot;
  /// Deterministic human-readable fault schedule ("t=1200 crash replica 2").
  std::vector<std::string> trace;
};

/// Generates one workload batch of `n` transactions using `rng`.
using BatchFn =
    std::function<std::vector<sched::TxRequest>(std::size_t n, Rng& rng)>;

/// Runs the chaos schedule against `rdb`. The harness never takes down more
/// than a minority of nodes at once (wipe() safety: a majority must keep its
/// state), so the cluster can always make progress after heals.
ChaosReport run_chaos(ReplicatedDb& rdb, const BatchFn& make_batch,
                      const ChaosOptions& opts, std::uint64_t seed);

}  // namespace prog::consensus
