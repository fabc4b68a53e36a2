// Replicated deterministic database: N full replicas fed by the Raft
// sequencer. This is the paper's end-to-end picture — clients agree on a
// total order of batches via consensus, every replica executes them with the
// deterministic engine, and replica state never diverges (asserted by tests
// via state hashes, not assumed).
//
// On top of the sequencing substrate this layer implements replica
// *recovery* (DESIGN.md §8):
//
//   - deterministic checkpoints: every `checkpoint_interval` applied batches
//     a replica serializes its visible state into a canonical image keyed by
//     (seq, state_hash) — byte-identical across replicas by
//     construction — and optionally compacts its Raft log up to the
//     checkpoint boundary;
//   - durability: every replica persists through a DurableReplicaStorage
//     directory on a Vfs (a batch WAL with group commit, atomic checkpoint
//     slots, Raft term/vote); without a caller-supplied Vfs the cluster
//     owns a fault-free in-memory one;
//   - crash/restart recovery: crash_replica() kills the process (database,
//     Raft state and checkpoint store are gone; the directory survives);
//     restart_replica() restores the newest checkpoint on disk, replays the
//     WAL suffix above it with per-batch hash checks, rejoins the Raft
//     group at that boundary, and receives the rest of the committed
//     prefix from the leader — by AppendEntries, or by an
//     InstallSnapshot-style state transfer from the leader's checkpoint
//     store when the leader has compacted past the replica's boundary;
//   - divergence detection: replicas piggyback a per-batch state hash; a
//     replica whose hash disagrees with the recorded history is
//     deterministically quarantined and re-synced from a checkpoint whose
//     hash the history vouches for, replaying the suffix;
//   - submit_with_retry: bounded deterministic backoff around the "no
//     leader yet" dance, plus reclamation of batch-pool entries whose
//     command was superseded by a term change before committing.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "consensus/checkpoint.hpp"
#include "consensus/raft.hpp"
#include "db/database.hpp"
#include "dur/commit_queue.hpp"
#include "dur/fault_vfs.hpp"
#include "dur/storage.hpp"
#include "obs/metrics.hpp"
#include "obs/replica_metrics.hpp"
#include "obs/tracing/tracing.hpp"
#include "store/snapshot.hpp"

namespace prog::consensus {

struct RecoveryOptions {
  /// Applied batches between checkpoints; 0 disables checkpointing (a
  /// restarted replica then replays its whole WAL).
  unsigned checkpoint_interval = 4;
  /// Compact each replica's Raft log up to its newest checkpoint boundary
  /// (minus log_keep_tail); lagging peers then catch up via InstallSnapshot.
  bool compact_logs = true;
  /// Entries to keep above the compaction point (0 = compact to boundary).
  LogIndex log_keep_tail = 0;
  /// Overall submit_with_retry deadline: the effective budget is
  /// min(caller's max_wait_ms, this), so a client facing a permanently
  /// leaderless cluster times out in bounded virtual time no matter what
  /// the call site passed. Expiries count as submit_timeouts.
  SimTime submit_deadline_ms = 2000;

  /// Where every replica persists: a DurableReplicaStorage rooted at
  /// `<dur_dir>/r<i>` on this Vfs. Construction cold-starts from whatever
  /// the directories hold. nullptr = the ReplicatedDb owns a fault-free
  /// in-memory FaultVfs seeded from the cluster seed. A caller-supplied Vfs
  /// must outlive the ReplicatedDb.
  dur::Vfs* vfs = nullptr;
  std::string dur_dir = "dur";
};

struct RecoveryStats {
  std::uint64_t checkpoints_taken = 0;
  /// Restarts that restored a local checkpoint before rejoining.
  std::uint64_t checkpoint_restores = 0;
  /// Leader-driven InstallSnapshot state transfers accepted.
  std::uint64_t snapshot_installs = 0;
  /// InstallSnapshots declined on delivery because the leader's checkpoint
  /// store no longer held that boundary (the leader then resends its
  /// current one).
  std::uint64_t installs_declined = 0;
  /// Restarts that recovered nothing from local disk, and re-syncs that
  /// had to replay from the initial state.
  std::uint64_t full_rebuilds = 0;
  std::uint64_t divergences_detected = 0;
  std::uint64_t quarantines = 0;
  /// Quarantined replicas successfully re-synced (hash matches again).
  std::uint64_t resyncs = 0;
  /// Batch-pool entries whose command was superseded before committing.
  std::uint64_t pool_reclaimed = 0;
  std::uint64_t submit_retries = 0;
  /// submit_with_retry calls that gave up at the overall deadline.
  std::uint64_t submit_timeouts = 0;
  /// Durable recovery: WAL batches re-executed on restart, and how many of
  /// those disagreed with the persisted state hash (forcing leader resync).
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t replay_hash_mismatches = 0;
  /// Restarts recovered from local disk (checkpoint and/or WAL).
  std::uint64_t durable_recoveries = 0;
  /// Durable-mode acks released by the durable watermark (a quorum of
  /// replicas fsynced the batch), not merely by leader acceptance.
  std::uint64_t submit_acked_durable = 0;
  /// Checkpoint publications that waited on the async fsync watermark.
  std::uint64_t pipeline_fsync_stalls = 0;
  /// Empty batches proposed by newly elected leaders to commit the
  /// earlier-term entries their logs end with.
  std::uint64_t leader_noops = 0;
};

class ReplicatedDb {
 public:
  /// Applied identically to every replica before the first batch: register
  /// procedures and load the initial state (batch 0). Re-invoked on a fresh
  /// Database whenever a replica is rebuilt, so it must be repeatable.
  using SetupFn = std::function<void(db::Database&)>;

  ReplicatedDb(unsigned replicas, std::uint64_t seed, const SetupFn& setup,
               sched::EngineConfig config = {}, SimNet::Options net_opts = {},
               RecoveryOptions recovery = {});

  /// Hands a batch to the consensus layer. False when no leader is known
  /// yet (caller retries after run_ms(), or uses submit_with_retry).
  bool submit_batch(std::vector<sched::TxRequest> batch);

  /// submit_batch with bounded deterministic backoff: on "no leader",
  /// advances virtual time (25 ms, doubling up to 400 ms) and retries until
  /// the submit succeeds or `max_wait_ms` of virtual time is spent. After
  /// acceptance it waits, within the same budget, for a quorum of replicas
  /// to make the batch durable.
  bool submit_with_retry(std::vector<sched::TxRequest> batch,
                         SimTime max_wait_ms = 2000);

  /// Drops batch-pool entries whose command can no longer commit (present
  /// in no node's log and no applied record — i.e. appended under a leader
  /// that lost its term before replicating). Returns the number reclaimed.
  std::size_t reclaim_superseded();

  /// Advances virtual time; committed batches are applied as they commit.
  void run_ms(SimTime ms) { cluster_.run_ms(ms); }

  /// True when every replica has applied the same batch sequence.
  bool converged() const {
    const unsigned n = cluster_.size();
    std::size_t applied = cluster_.applied(0).size();
    for (NodeId i = 1; i < n; ++i) {
      if (cluster_.applied(i).size() != applied) return false;
    }
    return true;
  }

  /// Per-replica state hashes (0 for a replica that is currently crashed).
  std::vector<std::uint64_t> state_hashes() const {
    std::vector<std::uint64_t> out;
    for (const auto& r : replicas_) {
      out.push_back(r != nullptr ? r->state_hash() : 0);
    }
    return out;
  }

  // --- fault injection / recovery ------------------------------------------
  /// Process death: the replica's database, Raft state, checkpoint store
  /// and unsynced commit-queue records are gone; only its directory on the
  /// Vfs survives. Contrast with raft().crash(i), a process pause.
  void crash_replica(NodeId i);
  /// Recovers the replica from its directory (newest checkpoint + WAL
  /// suffix) and rejoins the Raft group at the recovered boundary; the
  /// rest of the committed prefix streams in from the leader (AppendEntries
  /// or InstallSnapshot).
  void restart_replica(NodeId i);
  bool replica_down(NodeId i) const { return replicas_[i] == nullptr; }
  bool quarantined(NodeId i) const { return quarantined_[i] != 0; }
  /// Rebuild + replay a quarantined (or any live) replica from its best
  /// trusted checkpoint; true when its hash matches the history again.
  bool resync(NodeId i);

  /// Ground truth for crash-recovery fuzzing: replays replica 0's applied
  /// command sequence through a *fresh* database that never crashed and
  /// returns its state hash. Any recovered replica at the same applied
  /// prefix must hash identically.
  std::uint64_t witness_state_hash() const;

  /// Durability metric handles (never null).
  const dur::DurMetrics* dur_metrics() const noexcept { return &dm_; }

  /// Replica `i`'s durable watermark: the highest batch sequence known to
  /// have passed a WAL group-commit barrier there. With the async commit
  /// queue (pipeline_depth > 0) this is the queue's watermark; with inline
  /// appends it tracks apply directly.
  std::uint64_t durable_watermark(unsigned i) const noexcept {
    if (queues_[i] != nullptr) return queues_[i]->watermark();
    return durable_mark_[i];
  }
  /// True when a majority of replicas have durable_watermark() >= idx.
  bool durable_quorum_at(LogIndex idx) const noexcept;
  /// Per-replica async commit queue; nullptr at pipeline depth 0.
  /// Exposed for the chaos harness (pause/resume around an injected kill).
  dur::DurableCommitQueue* commit_queue(unsigned i) noexcept {
    return queues_[i].get();
  }

  db::Database& replica(unsigned i) { return *replicas_[i]; }
  RaftCluster& raft() noexcept { return cluster_; }
  const RecoveryStats& recovery_stats() const noexcept { return stats_; }
  const CheckpointStore& checkpoints(unsigned i) const {
    return cp_stores_[i];
  }
  /// Commands proposed so far, committed or still in flight: the batches
  /// submit accepted plus the no-ops new leaders proposed.
  std::size_t batches_submitted() const noexcept {
    return static_cast<std::size_t>(next_cmd_);
  }
  /// Cumulative *logical* engine counters for replica `i`, surviving
  /// rebuilds: the baseline carried across a restore is the checkpoint's own
  /// stats snapshot, so batches replayed after a crash/restore/install are
  /// counted exactly once. At quiescence (equal applied prefixes) the result
  /// is identical on every replica — the deterministic-counter divergence
  /// oracle builds on this (see deterministic_counter_snapshot).
  sched::EngineStats replica_engine_stats(unsigned i) const {
    sched::EngineStats s = carried_stats_[i];
    if (replicas_[i] != nullptr) s += replicas_[i]->engine_stats();
    return s;
  }

  /// Canonical text serialization of replica `i`'s deterministic engine
  /// counters (obs::Registry::serialize_deterministic over a registry
  /// populated from replica_engine_stats). Byte-identical across replicas
  /// that applied the same batch prefix — a cheap cross-replica divergence
  /// oracle that catches counting nondeterminism even when state hashes
  /// still agree. Works whether or not EngineConfig::telemetry is on
  /// (EngineStats is always maintained).
  std::string deterministic_counter_snapshot(unsigned i) const;

  /// Cluster-level telemetry registry (recovery/chaos counters + gauges).
  /// Always maintained: every update is cold-path.
  obs::Registry& telemetry() noexcept { return *registry_; }
  const obs::Registry& telemetry() const noexcept { return *registry_; }
  /// Pre-resolved handles into telemetry() — the chaos harness increments
  /// the chaos_* event counters through this.
  obs::ReplicaMetrics& replica_metrics() noexcept { return rm_; }

  /// Recomputes the cluster gauges (batch lag, replicas down/quarantined)
  /// from current state. Called by exporters/dashboards before scraping.
  void refresh_gauges();

  const RecoveryOptions& recovery_options() const noexcept { return opts_; }

 private:
  /// Head sampling for causal tracing (DESIGN.md §11): batch `seq` is traced
  /// iff the engine config samples every Nth batch and the flight recorder
  /// is recording. Pure — every replica (and the client side) decides the
  /// same way for the same agreed sequence number.
  bool trace_sampled(std::uint64_t seq) const noexcept {
    const unsigned n = config_.trace_sample_n;
    return n != 0 && obs::tracing::enabled() && seq % n == 0;
  }

  /// Puts `batch` in the pool under the next command id and hands that id
  /// to the leader. On refusal the batch is moved back into `batch`.
  bool propose(std::vector<sched::TxRequest>& batch);
  /// The no-op a newly elected leader proposes: an empty batch.
  Command propose_noop();
  void apply(NodeId node, LogIndex idx, Command cmd);
  /// Whether `leader` can still serve an InstallSnapshot covering 1..upto;
  /// counts a decline when it cannot.
  bool can_serve_install(NodeId leader, LogIndex upto);
  void on_install(NodeId follower, NodeId leader, LogIndex upto);
  void take_checkpoint(NodeId node, LogIndex idx);
  void check_divergence(NodeId node, LogIndex idx, std::uint64_t hash);
  std::unique_ptr<db::Database> build_replica() const;
  /// Replaces replica `i` with a freshly set-up database and drops its
  /// image builder's base.
  void rebuild_replica(NodeId i);
  void fold_stats(NodeId node);
  const std::vector<sched::TxRequest>& pool_batch(Command cmd) const;
  const std::optional<std::uint64_t>& recorded_hash(LogIndex idx) const;
  void record_hash(LogIndex idx, std::uint64_t hash);
  /// Disk-first restart: restore meta + newest decodable checkpoint, replay
  /// the WAL suffix with per-record hash verification, rejoin at the final
  /// recovered boundary. Falls back to leader catch-up for whatever the
  /// disk could not vouch for.
  void durable_restart(NodeId i);
  /// Resets replica `i`'s durable watermark to its applied boundary and, at
  /// pipeline_depth > 0, (re)creates its async commit queue seeded with it.
  void make_commit_queue(NodeId i);
  /// Durable ack gate: after acceptance, drives virtual time (within
  /// the remaining submit deadline) until a quorum of durable watermarks
  /// covers the accepted index, then counts the ack and emits kAckDurable.
  /// Never fails the submission.
  void wait_durable_ack(SimTime& waited, SimTime deadline);
  /// Quiesces replica `i`'s commit queue before direct storage access that
  /// rotates the WAL tail (checkpoint publication), counting the wait as a
  /// waiting-on-fsync pipeline stall when the watermark lags `idx`.
  void quiesce_queue(NodeId i, LogIndex idx);

  sched::EngineConfig config_;
  RecoveryOptions opts_;
  SetupFn setup_;
  std::vector<std::unique_ptr<db::Database>> replicas_;
  std::vector<CheckpointStore> cp_stores_;
  /// Per-replica checkpoint image builders: each image re-formats only the
  /// rows written since that replica's previous one (DESIGN.md §8). Reset
  /// whenever the replica's store is replaced.
  std::vector<store::StateImageBuilder> images_;
  std::vector<sched::EngineStats> carried_stats_;
  std::vector<char> quarantined_;
  /// Submitted batches by command id. Entries stay until reclaimed (a
  /// lagging replica may replay arbitrarily old commands).
  std::unordered_map<Command, std::vector<sched::TxRequest>> batch_pool_;
  Command next_cmd_ = 0;
  /// Recorded per-batch state hash, indexed by log index - 1. The first
  /// applier (always the leader: it commits first) defines the record; in a
  /// real deployment this hash rides on AppendEntries.
  std::vector<std::optional<std::uint64_t>> hash_history_;
  RecoveryStats stats_;
  /// Cluster telemetry. Initialized before cluster_ (whose apply callbacks
  /// update the counters).
  std::shared_ptr<obs::Registry> registry_;
  obs::ReplicaMetrics rm_;
  dur::DurMetrics dm_;
  /// The Vfs replicas persist to when RecoveryOptions::vfs is null. Declared
  /// before dur_, which writes through it.
  dur::FaultVfs own_vfs_;
  /// Per-replica durable storage. Declared before cluster_: apply callbacks
  /// write through it.
  std::vector<std::unique_ptr<dur::DurableReplicaStorage>> dur_;
  /// Per-replica async commit queues (stage D of the pipelined apply);
  /// populated only at pipeline_depth > 0. Declared after dur_ (queue
  /// destructors drain into the storage) and before cluster_.
  std::vector<std::unique_ptr<dur::DurableCommitQueue>> queues_;
  /// Inline durable watermark per replica (depth 0, where append_batch
  /// fsyncs on the apply path): batch seq of the last inline group commit.
  /// The commit queue supersedes it at depth > 0.
  std::vector<std::uint64_t> durable_mark_;
  /// Last observed queue_full_waits per replica (for counter deltas).
  std::vector<std::uint64_t> qfw_seen_;
  /// Last member: its callbacks touch everything above.
  RaftCluster cluster_;
};

}  // namespace prog::consensus
