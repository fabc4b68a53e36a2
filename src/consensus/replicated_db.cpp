#include "consensus/replicated_db.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "obs/engine_metrics.hpp"
#include "store/snapshot.hpp"

namespace prog::consensus {

namespace {

/// Checkpoints each replica's in-memory store retains (oldest evicted
/// first, the recovery anchor never).
constexpr std::size_t kMaxCheckpoints = 4;
/// submit_with_retry backoff: first wait, doubling up to the cap.
constexpr SimTime kRetryStepMs = 25;
constexpr SimTime kRetryMaxStepMs = 400;

}  // namespace

ReplicatedDb::ReplicatedDb(unsigned replicas, std::uint64_t seed,
                           const SetupFn& setup, sched::EngineConfig config,
                           SimNet::Options net_opts, RecoveryOptions recovery)
    : config_(config),
      opts_(recovery),
      setup_(setup),
      cp_stores_(replicas),
      images_(replicas),
      carried_stats_(replicas),
      quarantined_(replicas, 0),
      registry_(std::make_shared<obs::Registry>()),
      rm_(obs::ReplicaMetrics::create(*registry_)),
      dm_(dur::DurMetrics::create(*registry_)),
      own_vfs_(seed),
      cluster_(replicas, seed, net_opts,
               [this](NodeId node, LogIndex idx, Command cmd) {
                 apply(node, idx, cmd);
               }) {
  PROG_CHECK(setup_ != nullptr);
  if (opts_.vfs == nullptr) opts_.vfs = &own_vfs_;
  for (unsigned i = 0; i < replicas; ++i) {
    replicas_.push_back(build_replica());
  }
  cluster_.set_install_handler(
      [this](NodeId follower, NodeId leader, LogIndex upto) {
        on_install(follower, leader, upto);
      },
      [this](NodeId, NodeId leader, LogIndex upto) {
        return can_serve_install(leader, upto);
      });
  cluster_.set_noop_source([this] { return propose_noop(); });
  queues_.resize(replicas);
  durable_mark_.resize(replicas, 0);
  qfw_seen_.resize(replicas, 0);
  for (unsigned i = 0; i < replicas; ++i) {
    dur_.push_back(std::make_unique<dur::DurableReplicaStorage>(
        *opts_.vfs, opts_.dur_dir + "/r" + std::to_string(i), &dm_));
    cluster_.node(i).set_meta_hook([this, i](Term t, std::int64_t vote) {
      dur_[i]->persist_meta(t, vote);
    });
  }
  // Cold start: whatever the directories already hold (a previous
  // incarnation's WAL + checkpoints) is recovered before the first batch,
  // so a ReplicatedDb can be torn down and rebuilt over the same Vfs.
  for (unsigned i = 0; i < replicas; ++i) durable_restart(i);
  // Commit queues come up only after recovery settled the boundary: the
  // queue's initial watermark is everything recovery proved durable.
  for (unsigned i = 0; i < replicas; ++i) make_commit_queue(i);
  rm_.pipeline_depth->set(config_.pipeline_depth);
}

void ReplicatedDb::make_commit_queue(NodeId i) {
  const std::uint64_t recovered = cluster_.applied(i).size();
  durable_mark_[i] = recovered;
  qfw_seen_[i] = 0;
  if (config_.pipeline_depth == 0) return;
  queues_[i] = std::make_unique<dur::DurableCommitQueue>(
      *dur_[i], i, config_.pipeline_depth, recovered);
}

void ReplicatedDb::quiesce_queue(NodeId i, LogIndex idx) {
  if (queues_[i] == nullptr) return;
  if (queues_[i]->watermark() < idx) {
    ++stats_.pipeline_fsync_stalls;
    rm_.pipeline_stall_fsync->inc();
  }
  queues_[i]->flush();
}

std::unique_ptr<db::Database> ReplicatedDb::build_replica() const {
  auto db = std::make_unique<db::Database>(config_);
  setup_(*db);
  return db;
}

void ReplicatedDb::rebuild_replica(NodeId i) {
  replicas_[i] = build_replica();
  images_[i].reset();  // the next image is a full one of the new store
}

// --- batch submission --------------------------------------------------------

bool ReplicatedDb::propose(std::vector<sched::TxRequest>& batch) {
  const Command cmd = next_cmd_;
  // Insert before submitting: a single-node cluster commits (and applies)
  // synchronously inside submit(), and apply() needs the pool entry.
  batch_pool_.insert_or_assign(cmd, std::move(batch));
  if (!cluster_.submit(cmd)) {
    batch = std::move(batch_pool_.extract(cmd).mapped());
    return false;
  }
  ++next_cmd_;
  rm_.batches_submitted->inc();
  return true;
}

Command ReplicatedDb::propose_noop() {
  // Called from inside an election, which may run between two attempts of
  // submit_with_retry: propose() reads next_cmd_ afresh on every attempt.
  const Command cmd = next_cmd_++;
  batch_pool_.insert_or_assign(cmd, std::vector<sched::TxRequest>{});
  rm_.batches_submitted->inc();
  ++stats_.leader_noops;
  return cmd;
}

bool ReplicatedDb::submit_batch(std::vector<sched::TxRequest> batch) {
  // Causal tracing: the submit-side trace id is the log index this command
  // will occupy in a quiet cluster (cmd + 1 — indexes are 1-based). The
  // context rides every message the submission causes (SimNet captures it),
  // and apply() re-derives the authoritative id from the actual log index.
  const std::uint64_t tseq = next_cmd_ + 1;
  obs::tracing::ScopedContext tsc(
      {tseq, obs::tracing::kNoReplica, trace_sampled(tseq)});
  if (trace_sampled(tseq)) {
    obs::tracing::SpanEvent ev;
    ev.kind = obs::tracing::SpanKind::kSubmit;
    ev.batch_seq = tseq;
    obs::tracing::emit(ev);
  }
  return propose(batch);
}

bool ReplicatedDb::submit_with_retry(std::vector<sched::TxRequest> batch,
                                     SimTime max_wait_ms) {
  // Overall deadline: the caller's budget, capped by the configured
  // cluster-wide bound — a client facing a permanently leaderless cluster
  // (e.g. a lost majority) times out instead of spinning forever.
  const SimTime deadline =
      std::min<SimTime>(max_wait_ms, std::max<SimTime>(opts_.submit_deadline_ms, 1));
  const std::uint64_t tseq = next_cmd_ + 1;
  obs::tracing::ScopedContext tsc(
      {tseq, obs::tracing::kNoReplica, trace_sampled(tseq)});
  if (trace_sampled(tseq)) {
    // One submit span per batch, however many retries the loop takes — the
    // retries are the same logical submission.
    obs::tracing::SpanEvent ev;
    ev.kind = obs::tracing::SpanKind::kSubmit;
    ev.batch_seq = tseq;
    obs::tracing::emit(ev);
  }
  SimTime waited = 0;
  SimTime step = kRetryStepMs;
  while (true) {
    if (propose(batch)) {
      wait_durable_ack(waited, deadline);
      return true;
    }
    if (waited >= deadline) {
      ++stats_.submit_timeouts;
      rm_.submit_timeouts->inc();
      return false;
    }
    const SimTime slice = std::min(step, deadline - waited);
    cluster_.run_ms(slice);
    waited += slice;
    step = std::min(step * 2, kRetryMaxStepMs);
    ++stats_.submit_retries;
    rm_.submit_retries->inc();
  }
}

bool ReplicatedDb::durable_quorum_at(LogIndex idx) const noexcept {
  if (idx == 0) return true;
  const unsigned n = cluster_.size();
  unsigned durable = 0;
  for (unsigned i = 0; i < n; ++i) {
    if (durable_watermark(i) >= idx) ++durable;
  }
  return durable >= n / 2 + 1;
}

void ReplicatedDb::wait_durable_ack(SimTime& waited, SimTime deadline) {
  // Durable ack semantics: leader acceptance is NOT an ack.
  // The ack waits for the durable watermark — a quorum of replicas with the
  // batch past a WAL group-commit barrier — so a crash between agreement
  // and fsync can never lose an acked transaction. The acceptance already
  // happened: whatever the wait finds, this never turns into a failure (the
  // command is in the leader's log and will commit or be superseded on its
  // own terms); an expired deadline just means the caller resumes driving
  // virtual time itself.
  const int leader = cluster_.leader();
  if (leader < 0) return;
  const RaftNode& n = cluster_.node(static_cast<NodeId>(leader));
  const LogIndex idx =
      n.snapshot_index() + static_cast<LogIndex>(n.log().size());
  const unsigned quorum_n = cluster_.size() / 2 + 1;
  bool quorum = durable_quorum_at(idx);
  while (!quorum && waited < deadline) {
    cluster_.run_ms(1);
    ++waited;
    quorum = durable_quorum_at(idx);
    if (quorum || config_.pipeline_depth == 0) continue;
    // The fsync barriers run on real commit-queue threads. While the batch
    // is still replicating/applying in virtual time there is nothing to
    // wait on; once a quorum of replicas has *enqueued* the record, only
    // the barrier latency remains — park on the slowest queue's watermark
    // condition variable (event-driven, wakes on the fsync) instead of
    // burning sleep quanta in a poll loop.
    unsigned pushed = 0;
    for (unsigned i = 0; i < cluster_.size(); ++i) {
      if (queues_[i] != nullptr ? queues_[i]->pushed_mark() >= idx
                                : durable_mark_[i] >= idx) {
        ++pushed;
      }
    }
    if (pushed < quorum_n) continue;
    // One bounded park per virtual step, never a wall-only inner loop: the
    // outer run_ms(1) must keep flowing so replicas that are still
    // replicating (e.g. the non-quorum straggler) continue to make
    // progress in virtual time while we wait out the barrier latency.
    for (unsigned i = 0; i < cluster_.size(); ++i) {
      if (queues_[i] != nullptr && queues_[i]->pushed_mark() >= idx &&
          queues_[i]->watermark() < idx) {
        queues_[i]->wait_watermark(idx, std::chrono::microseconds(500));
        break;
      }
    }
    quorum = durable_quorum_at(idx);
  }
  if (!quorum) return;
  ++stats_.submit_acked_durable;
  rm_.submit_acked_durable->inc();
  if (trace_sampled(idx)) {
    unsigned reached = 0;
    for (unsigned i = 0; i < cluster_.size(); ++i) {
      if (durable_watermark(i) >= idx) ++reached;
    }
    obs::tracing::SpanEvent ev;
    ev.kind = obs::tracing::SpanKind::kAckDurable;
    ev.batch_seq = idx;
    ev.arg = reached;
    obs::tracing::emit(ev);
  }
}

std::size_t ReplicatedDb::reclaim_superseded() {
  // A pool entry is live iff its command can still (re)apply somewhere:
  // present in some node's applied record (a rebuilt replica replays it) or
  // in some node's log above its snapshot boundary (it may yet commit).
  // Everything else was appended under a leader that lost its term before
  // replicating — Raft's commit rules guarantee it can never commit.
  std::unordered_set<Command> live;
  const unsigned n = cluster_.size();
  for (NodeId i = 0; i < n; ++i) {
    for (Command c : cluster_.applied(i)) live.insert(c);
    for (const LogEntry& e : cluster_.node(i).log()) live.insert(e.command);
  }
  std::size_t reclaimed = 0;
  for (auto it = batch_pool_.begin(); it != batch_pool_.end();) {
    if (live.count(it->first) == 0) {
      it = batch_pool_.erase(it);
      ++reclaimed;
    } else {
      ++it;
    }
  }
  stats_.pool_reclaimed += reclaimed;
  rm_.pool_reclaimed->inc(reclaimed);
  return reclaimed;
}

const std::vector<sched::TxRequest>& ReplicatedDb::pool_batch(
    Command cmd) const {
  auto it = batch_pool_.find(cmd);
  PROG_CHECK_MSG(it != batch_pool_.end(),
                 "batch-pool entry missing (reclaimed while still needed?)");
  return it->second;
}

const std::optional<std::uint64_t>& ReplicatedDb::recorded_hash(
    LogIndex idx) const {
  static const std::optional<std::uint64_t> kNone;
  if (idx == 0 || idx > hash_history_.size()) return kNone;
  return hash_history_[static_cast<std::size_t>(idx - 1)];
}

void ReplicatedDb::record_hash(LogIndex idx, std::uint64_t hash) {
  if (idx == 0) return;
  if (idx > hash_history_.size()) {
    hash_history_.resize(static_cast<std::size_t>(idx));
  }
  std::optional<std::uint64_t>& rec =
      hash_history_[static_cast<std::size_t>(idx - 1)];
  if (!rec.has_value()) rec = hash;
}

// --- the apply path ----------------------------------------------------------

void ReplicatedDb::apply(NodeId node, LogIndex idx, Command cmd) {
  if (quarantined_[node] != 0) return;  // untrusted state: don't extend it
  PROG_CHECK_MSG(replicas_[node] != nullptr,
                 "apply on a crashed replica (raft node not crashed with it?)");
  // Causal tracing: the delivery context carried whatever batch caused this
  // message (often a later commit-index bump), so apply *overrides* it with
  // the authoritative identity of the batch being applied — (node, idx) —
  // for the engine and WAL spans executed below.
  obs::tracing::ScopedContext tsc({idx, node, trace_sampled(idx)});
  if (trace_sampled(idx)) {
    obs::tracing::SpanEvent ev;
    ev.kind = obs::tracing::SpanKind::kAgree;
    ev.batch_seq = idx;
    ev.replica = node;
    ev.arg = cmd;
    obs::tracing::emit(ev);
  }
  // Copy: every replica consumes its own instance of the batch.
  // At pipeline_depth > 0 this execution overlaps the async fsync of the
  // previous batches (DESIGN.md §14); at depth 0 that fsync already ran
  // inline at the end of the previous apply.
  replicas_[node]->execute(pool_batch(cmd));
  rm_.batches_applied->inc();
  // One post-batch hash serves the divergence record and the WAL record.
  const std::uint64_t hash = replicas_[node]->state_hash();
  check_divergence(node, idx, hash);
  if (quarantined_[node] != 0) return;  // divergence handling took over
  // Group commit: one WAL record per agreed batch, carrying the post-apply
  // state hash for replay verification. At depth 0 the fsync barrier runs
  // inline on the apply path; at depth > 0 the record goes to the async
  // commit queue and the durable watermark advances once the queue's
  // shared barrier covers it.
  dur::WalRecord rec;
  rec.seq = idx;
  rec.term = cluster_.node(node).committed_term_at(idx);
  rec.command = cmd;
  rec.state_hash = hash;
  rec.batch = pool_batch(cmd);
  if (queues_[node] != nullptr) {
    queues_[node]->push(std::move(rec), trace_sampled(idx));
    const std::uint64_t qfw = queues_[node]->queue_full_waits();
    if (qfw > qfw_seen_[node]) {
      rm_.pipeline_stall_queue_full->inc(qfw - qfw_seen_[node]);
      qfw_seen_[node] = qfw;
    }
  } else {
    dur_[node]->append_batch(rec);
    durable_mark_[node] = idx;
  }
  if (opts_.checkpoint_interval > 0 && idx % opts_.checkpoint_interval == 0) {
    take_checkpoint(node, idx);
  }
}

void ReplicatedDb::check_divergence(NodeId node, LogIndex idx,
                                    std::uint64_t hash) {
  if (idx > hash_history_.size()) {
    hash_history_.resize(static_cast<std::size_t>(idx));
  }
  std::optional<std::uint64_t>& rec =
      hash_history_[static_cast<std::size_t>(idx - 1)];
  if (!rec.has_value()) {
    // First applier defines the record. The leader always applies a batch
    // before any follower (it commits first), so a diverged follower can
    // never poison the history for the healthy majority.
    rec = hash;
    return;
  }
  if (*rec == hash) return;
  ++stats_.divergences_detected;
  ++stats_.quarantines;
  rm_.divergences->inc();
  rm_.quarantines->inc();
  quarantined_[node] = 1;
  if (obs::tracing::enabled()) {
    // The flight recorder's marquee trigger: dump the recent spans that
    // explain how this replica reached a different state hash.
    obs::tracing::trigger(
        obs::tracing::Anomaly::kDivergence,
        "replica " + std::to_string(node) + " state hash " +
            std::to_string(hash) + " != recorded " + std::to_string(*rec) +
            " at batch " + std::to_string(idx) + "; quarantined");
  }
  resync(node);
}

void ReplicatedDb::take_checkpoint(NodeId node, LogIndex idx) {
  const auto& prefix = cluster_.applied(node);
  PROG_CHECK_MSG(prefix.size() == idx,
                 "checkpoint boundary disagrees with the applied record");
  Checkpoint cp;
  cp.seq = idx;
  cp.term = cluster_.node(node).committed_term_at(idx);
  cp.state_hash = replicas_[node]->state_hash();
  cp.image = images_[node].build(replicas_[node]->store());
  cp.command_prefix = prefix;
  // Stats baseline at the boundary: carried + live. Deterministic (counts
  // only), so every replica's checkpoint at `idx` carries the same values.
  cp.engine_stats = replica_engine_stats(node);
  // Durable-watermark gate: checkpoint publication rotates the WAL tail, so
  // every record still in the async commit queue must reach its barrier
  // first (counted as a waiting-on-fsync stall when the watermark lags the
  // boundary).
  quiesce_queue(node, idx);
  dur_[node]->persist_checkpoint(cp);
  cp_stores_[node].add(std::move(cp), kMaxCheckpoints);
  ++stats_.checkpoints_taken;
  rm_.checkpoints->inc();

  if (!opts_.compact_logs) return;
  // Compact to the newest checkpoint boundary at or below idx -
  // log_keep_tail. The boundary must be a checkpoint: an InstallSnapshot for
  // it is served from this node's checkpoint store.
  if (idx <= opts_.log_keep_tail) return;
  const Checkpoint* boundary =
      cp_stores_[node].latest_at_or_before(idx - opts_.log_keep_tail);
  if (boundary != nullptr && boundary->seq > 0) {
    cluster_.node(node).compact_to(boundary->seq);
    // Everything below the compaction point is reachable only through this
    // image: pin it against checkpoint-store retention.
    cp_stores_[node].set_anchor(static_cast<std::int64_t>(boundary->seq));
  }
}

// --- crash / restart ---------------------------------------------------------

void ReplicatedDb::fold_stats(NodeId node) {
  if (replicas_[node] != nullptr) {
    carried_stats_[node] += replicas_[node]->engine_stats();
  }
}

void ReplicatedDb::crash_replica(NodeId i) {
  PROG_CHECK_MSG(replicas_[i] != nullptr, "crash_replica on a down replica");
  fold_stats(i);
  replicas_[i].reset();  // the process dies
  images_[i].reset();
  quarantined_[i] = 0;
  cluster_.crash(i);
  // The in-memory checkpoint store dies with the process: the directory on
  // the Vfs is the only thing a crash spares.
  cp_stores_[i].clear();
  cp_stores_[i].set_anchor(-1);
  if (queues_[i] != nullptr) {
    // Crash semantics for the async durability stage: records still queued
    // (agreed but never fsynced) die with the process, exactly like an OS
    // write-back queue. Recovery finds only what reached the platter.
    queues_[i]->stop_discard();
    queues_[i].reset();
  }
}

void ReplicatedDb::restart_replica(NodeId i) {
  PROG_CHECK_MSG(replicas_[i] == nullptr,
                 "restart_replica on a replica that is not down");
  rebuild_replica(i);
  quarantined_[i] = 0;
  cluster_.restart(i);
  // The process lost everything but its directory: the Raft node starts
  // blank, and recovery rejoins it at whatever the disk vouches for.
  cluster_.node(i).wipe();
  durable_restart(i);
  make_commit_queue(i);
  if (cluster_.applied(i).empty()) {
    // Nothing local survived: the leader re-streams from index 1.
    ++stats_.full_rebuilds;
    rm_.full_rebuilds->inc();
  }
}

void ReplicatedDb::durable_restart(NodeId i) {
  dur::DurableReplicaStorage::Recovered rec = dur_[i]->recover();
  RaftNode& node = cluster_.node(i);
  if (rec.meta_ok) node.restore_meta(rec.term, rec.voted_for);

  // Repopulate the (volatile) checkpoint store from the surviving slots, so
  // this node can serve InstallSnapshot at its boundaries again.
  for (const Checkpoint& cp : rec.checkpoints) {
    cp_stores_[i].add(cp, kMaxCheckpoints);
  }

  // Restore the newest slot whose image actually reconciles (the CRC already
  // vouched for the bytes; this guards against writer bugs). On failure the
  // WAL suffix is unusable too — it only continues from the newest slot.
  const Checkpoint* chosen = nullptr;
  for (auto it = rec.checkpoints.rbegin(); it != rec.checkpoints.rend(); ++it) {
    try {
      replicas_[i]->restore_state(*it->image);
      chosen = &*it;
      break;
    } catch (const std::exception&) {
      dm_.checkpoint_decode_failures->inc();
      rebuild_replica(i);  // a failed restore leaves partial state
    }
  }

  LogIndex base = 0;
  Term base_term = 0;
  std::vector<Command> prefix;
  if (chosen != nullptr) {
    base = chosen->seq;
    base_term = chosen->term;
    prefix = chosen->command_prefix;
    carried_stats_[i] = chosen->engine_stats;
    record_hash(base, chosen->state_hash);
  } else {
    carried_stats_[i] = {};
  }

  // The recovered WAL is the contiguous suffix above the newest decodable
  // slot; it lines up with `chosen` unless that slot failed to restore.
  LogIndex final_seq = base;
  Term final_term = base_term;
  std::size_t replayed = 0;
  LogIndex expect = base + 1;
  for (const dur::WalRecord& r : rec.wal) {
    if (r.seq != expect) break;
    std::vector<sched::TxRequest> batch = r.batch;
    replicas_[i]->execute(std::move(batch));
    ++stats_.wal_records_replayed;
    dm_.wal_records_replayed->inc();
    if (replicas_[i]->state_hash() != r.state_hash) {
      // The record's hash disagrees with what re-execution produced: either
      // the persisted hash or the payload survived corrupted in a way the
      // CRC missed, or the dying replica had already diverged. Roll back to
      // the last verified boundary and let the leader re-stream the rest.
      ++stats_.replay_hash_mismatches;
      dm_.replay_hash_mismatches->inc();
      rebuild_replica(i);
      if (chosen != nullptr) replicas_[i]->restore_state(*chosen->image);
      std::size_t redo = replayed;
      for (const dur::WalRecord& g : rec.wal) {
        if (redo == 0) break;
        std::vector<sched::TxRequest> again = g.batch;
        replicas_[i]->execute(std::move(again));
        --redo;
      }
      break;
    }
    // Verified by re-execution: as trustworthy as a first applier.
    record_hash(r.seq, r.state_hash);
    batch_pool_.emplace(r.command, r.batch);
    prefix.push_back(r.command);
    final_seq = r.seq;
    final_term = r.term;
    ++replayed;
    ++expect;
  }

  for (const Command c : prefix) next_cmd_ = std::max(next_cmd_, c + 1);

  if (final_seq == 0) {
    // Nothing locally recoverable: blank follower, leader re-streams all.
    cluster_.reset_applied(i, {});
    carried_stats_[i] = {};
    if (rec.meta_ok || !rec.checkpoints.empty() || !rec.wal.empty()) {
      dm_.recovery_none->inc();
    }
    return;
  }

  node.install_local_snapshot(final_seq, final_term);
  cluster_.reset_applied(i, prefix);
  ++stats_.durable_recoveries;
  if (obs::tracing::enabled()) {
    obs::tracing::ScopedContext tsc({final_seq, i, true});
    obs::tracing::trigger(
        obs::tracing::Anomaly::kRecovery,
        "replica " + std::to_string(i) + " durably recovered to batch " +
            std::to_string(final_seq) + " (" +
            (chosen != nullptr ? "checkpoint + " : "") +
            std::to_string(replayed) + " WAL records replayed)");
  }
  if (chosen != nullptr) {
    ++stats_.checkpoint_restores;
    rm_.checkpoint_restores->inc();
  }
  if (chosen != nullptr && replayed > 0) {
    dm_.recovery_checkpoint_wal->inc();
  } else if (chosen != nullptr) {
    dm_.recovery_checkpoint->inc();
  } else {
    dm_.recovery_wal->inc();
  }
  if (final_seq > base || chosen == nullptr) {
    // The rejoin boundary is above any stored checkpoint (WAL replay moved
    // it). Snapshot it now: if this node later leads and compacts here, the
    // install handler must find an image at exactly this seq.
    Checkpoint cp;
    cp.seq = final_seq;
    cp.term = final_term;
    cp.state_hash = replicas_[i]->state_hash();
    cp.image = images_[i].build(replicas_[i]->store());
    cp.command_prefix = prefix;
    cp.engine_stats = replica_engine_stats(i);
    dur_[i]->persist_checkpoint(cp);
    cp_stores_[i].add(std::move(cp), kMaxCheckpoints);
    ++stats_.checkpoints_taken;
    rm_.checkpoints->inc();
  }
}

// --- leader-driven state transfer -------------------------------------------

bool ReplicatedDb::can_serve_install(NodeId leader, LogIndex upto) {
  // The leader serves an install from its checkpoint store, which may have
  // evicted `upto` while the message was in flight: a commit-index jump
  // applies (and checkpoints, and compacts) many batches at once.
  if (cluster_.applied(leader).size() >= upto &&
      cp_stores_[leader].at(upto) != nullptr) {
    return true;
  }
  ++stats_.installs_declined;
  return false;
}

void ReplicatedDb::on_install(NodeId follower, NodeId leader, LogIndex upto) {
  PROG_CHECK_MSG(replicas_[follower] != nullptr,
                 "InstallSnapshot delivered to a crashed replica");
  const Checkpoint* cp = cp_stores_[leader].at(upto);
  PROG_CHECK_MSG(cp != nullptr,
                 "InstallSnapshot the leader can no longer serve");
  // Rebuild rather than patch: the follower's engine counters cover whatever
  // prefix it executed locally, which the transferred image supersedes. A
  // fresh engine plus the checkpoint-carried baseline keeps
  // replica_engine_stats logical (each batch in the agreed prefix counted
  // exactly once).
  rebuild_replica(follower);
  replicas_[follower]->restore_state(*cp->image);
  carried_stats_[follower] = cp->engine_stats;
  // The transferred image is also a valid local checkpoint for the follower
  // (determinism: identical bytes regardless of which replica produced it).
  cp_stores_[follower].add(*cp, kMaxCheckpoints);
  // The follower's log below `upto` is gone; pin the image that covers it.
  cp_stores_[follower].set_anchor(static_cast<std::int64_t>(upto));
  // Persist the transferred image and rotate the WAL to its boundary, so a
  // crash right after the install recovers locally instead of repeating the
  // transfer. The commit queue must quiesce first (the rotation pulls the
  // WAL tail out from under it) and restarts at the transferred boundary:
  // the checkpoint makes everything up to `upto` durable.
  quiesce_queue(follower, upto);
  dur_[follower]->persist_checkpoint(*cp);
  queues_[follower].reset();  // graceful: already drained
  make_commit_queue(follower);
  quarantined_[follower] = 0;
  ++stats_.snapshot_installs;
  rm_.snapshot_installs->inc();
}

// --- divergence re-sync ------------------------------------------------------

bool ReplicatedDb::resync(NodeId i) {
  if (replicas_[i] == nullptr) return false;
  // Copy: reset_applied is not called here, but the rebuild below must not
  // alias cluster state while we replay.
  const std::vector<Command> cmds = cluster_.applied(i);
  const LogIndex upto = static_cast<LogIndex>(cmds.size());

  rebuild_replica(i);

  // Newest checkpoint whose (seq, hash) the recorded history vouches
  // for. A diverged replica's later checkpoints carry corrupt images — the
  // hash cross-check rejects them deterministically.
  const Checkpoint* trusted = nullptr;
  const auto& entries = cp_stores_[i].entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const Checkpoint& cp = it->second;
    if (cp.seq > upto) continue;
    const auto& rec = recorded_hash(cp.seq);
    if (rec.has_value() && *rec == cp.state_hash) {
      trusted = &cp;
      break;
    }
  }

  // The rebuilt replica's stats baseline is the trusted checkpoint's (or
  // zero for a full replay). The diverged instance's counters are discarded
  // with its state — the logical record covers only the trusted prefix plus
  // the replay below, which is exactly what a healthy replica counted.
  LogIndex start = 0;
  if (trusted != nullptr) {
    replicas_[i]->restore_state(*trusted->image);
    carried_stats_[i] = trusted->engine_stats;
    start = trusted->seq;
    ++stats_.checkpoint_restores;
    rm_.checkpoint_restores->inc();
  } else {
    carried_stats_[i] = {};
    ++stats_.full_rebuilds;
    rm_.full_rebuilds->inc();
  }
  for (LogIndex k = start; k < upto; ++k) {
    auto it = batch_pool_.find(cmds[static_cast<std::size_t>(k)]);
    if (it == batch_pool_.end()) {
      // A cold-started cluster knows the pre-checkpoint prefix only as
      // state, not as pool entries — nothing local can re-execute it.
      // Wipe and let the leader re-stream the whole prefix (InstallSnapshot
      // clears the quarantine once the transferred state arrives).
      rebuild_replica(i);
      carried_stats_[i] = {};
      cluster_.node(i).wipe();
      cluster_.reset_applied(i, {});
      quarantined_[i] = 0;
      ++stats_.full_rebuilds;
      rm_.full_rebuilds->inc();
      return false;
    }
    std::vector<sched::TxRequest> batch = it->second;
    replicas_[i]->execute(std::move(batch));
  }

  const bool was_quarantined = quarantined_[i] != 0;
  bool ok = true;
  if (upto > 0) {
    const auto& rec = recorded_hash(upto);
    ok = rec.has_value() && *rec == replicas_[i]->state_hash();
  }
  quarantined_[i] = ok ? 0 : 1;
  if (ok && was_quarantined) {
    ++stats_.resyncs;
    rm_.resyncs->inc();
  }
  return ok;
}

std::uint64_t ReplicatedDb::witness_state_hash() const {
  // A genuinely never-crashed witness: fresh database, the agreed command
  // sequence replayed start to finish. Recovery correctness means any
  // recovered replica at the same applied prefix hashes identically.
  std::unique_ptr<db::Database> witness = build_replica();
  for (const Command c : cluster_.applied(0)) {
    std::vector<sched::TxRequest> batch = pool_batch(c);
    witness->execute(std::move(batch));
  }
  return witness->state_hash();
}

// --- telemetry ---------------------------------------------------------------

void ReplicatedDb::refresh_gauges() {
  const unsigned n = cluster_.size();
  std::size_t min_applied = static_cast<std::size_t>(next_cmd_);
  unsigned down = 0;
  unsigned quar = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (replicas_[i] == nullptr) {
      ++down;
      continue;
    }
    if (quarantined_[i] != 0) ++quar;
    min_applied = std::min(min_applied, cluster_.applied(i).size());
  }
  rm_.batch_lag->set(static_cast<std::int64_t>(next_cmd_) -
                     static_cast<std::int64_t>(min_applied));
  rm_.replicas_down->set(down);
  rm_.replicas_quarantined->set(quar);
  rm_.pipeline_depth->set(config_.pipeline_depth);
}

std::string ReplicatedDb::deterministic_counter_snapshot(unsigned i) const {
  const sched::EngineStats s = replica_engine_stats(i);
  // A private registry populated through the same handles the engine uses:
  // the snapshot's families, labels, and ordering match the live telemetry
  // exactly, so it can be diffed against a scrape.
  obs::Registry reg;
  obs::EngineMetrics em = obs::EngineMetrics::create(reg);
  em.batches->inc(s.batches);
  em.rounds->inc(s.rounds);
  em.mf_fallback_txns->inc(s.mf_fallback_txns);
  em.mf_fallback_batches->inc(s.mf_fallback_batches);
  for (unsigned c = 0; c < obs::kTxClasses; ++c) {
    em.committed[c]->inc(s.committed_by_class[c]);
    em.rolled_back[c]->inc(s.rolled_back_by_class[c]);
    em.validation_aborts[c]->inc(s.validation_aborts_by_class[c]);
  }
  return reg.serialize_deterministic();
}

}  // namespace prog::consensus
