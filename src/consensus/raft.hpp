// Raft-lite: leader election + log replication over the simulated network.
//
// Orders opaque 64-bit commands (the replicated database maps them to
// transaction batches). Implements the core Raft safety machinery: terms,
// randomized election timeouts, vote granting with the up-to-date-log check,
// AppendEntries consistency checking with conflict truncation, and
// majority-match commit advancement restricted to the leader's current term,
// with the no-op a new leader proposes so that restriction cannot stall.
//
// Also implements the recovery machinery the replicated database layers on
// top of: log compaction up to a snapshot boundary (compact_to), an
// InstallSnapshot-style catch-up RPC for followers whose needed prefix was
// compacted away (the cluster delegates the actual state transfer to the
// application through an install handler), full-state-loss restarts (wipe),
// and rejoin-from-local-checkpoint (install_local_snapshot).
//
// Simplifications relative to the full protocol (documented in DESIGN.md):
// commitIndex/lastApplied survive plain crash()/restart() (equivalent to a
// node restoring from a durable snapshot), so the apply callback fires
// exactly once per (node, index); wipe() models full disk loss and is only
// safe while a majority of nodes keeps its state (the chaos harness and the
// recovery layer maintain that invariant).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "consensus/sim_net.hpp"

namespace prog::consensus {

using Command = std::uint64_t;
using Term = std::uint64_t;
using LogIndex = std::uint64_t;  // 1-based; 0 is the sentinel

struct LogEntry {
  Term term = 0;
  Command command = 0;
};

class RaftCluster;

class RaftNode {
 public:
  enum class Role : std::uint8_t { kFollower, kCandidate, kLeader };

  RaftNode(NodeId id, unsigned cluster_size, RaftCluster& cluster);

  NodeId id() const noexcept { return id_; }
  Role role() const noexcept { return role_; }
  Term term() const noexcept { return term_; }
  LogIndex commit_index() const noexcept { return commit_index_; }
  LogIndex last_applied() const noexcept { return last_applied_; }
  /// Entries above the snapshot boundary (entry i is log()[i - 1 -
  /// snapshot_index()]).
  const std::vector<LogEntry>& log() const noexcept { return log_; }
  /// Highest index folded into this node's snapshot (0 = none). Entries at
  /// or below it have been compacted away and are only reachable as state.
  LogIndex snapshot_index() const noexcept { return snapshot_index_; }
  Term snapshot_term() const noexcept { return snapshot_term_; }

  /// Leader-only: appends a command for replication. False if not leader.
  bool submit(Command cmd);

  /// Discards log entries up to min(upto, last_applied): they are folded
  /// into the snapshot boundary. A follower that later needs them receives
  /// an InstallSnapshot instead of AppendEntries.
  void compact_to(LogIndex upto);

  /// Raft term of committed entry `index` (still in the log or exactly at
  /// the snapshot boundary) — recorded in checkpoints so a restarted node
  /// can rejoin at that boundary.
  Term committed_term_at(LogIndex index) const { return term_at(index); }

  // --- driven by the cluster/simulator ------------------------------------
  void tick();
  /// Self-rescheduling timer pump (skips logic while the node is down).
  void tick_pump();
  void on_restart();
  /// Full state loss (disk gone): term, vote, log, snapshot, commit and
  /// apply cursors all reset. The node rejoins as a blank follower.
  void wipe();
  /// After wipe(): rejoin at a locally restored checkpoint — the node
  /// behaves as if it had installed a snapshot at (index, term). The cluster
  /// must fast-forward the applied record to match (reset_applied).
  void install_local_snapshot(LogIndex index, Term term);

  /// Fired after every durable change to the (term, voted_for) pair — the
  /// election-safety state Raft requires on stable storage before answering
  /// an RPC. The durability layer persists it; wipe() deliberately does NOT
  /// fire the hook (wiping models losing the disk, and clobbering the
  /// on-disk meta before recovery reads it would defeat the point).
  using MetaHook = std::function<void(Term, std::int64_t)>;
  void set_meta_hook(MetaHook hook) { meta_hook_ = std::move(hook); }

  /// Reinstates persisted (term, voted_for) after a wipe, before the node
  /// rejoins — the counterpart of the meta hook. Does not re-fire the hook.
  void restore_meta(Term term, std::int64_t voted_for) {
    term_ = term;
    voted_for_ = voted_for;
  }

  struct RequestVote {
    Term term;
    NodeId candidate;
    LogIndex last_log_index;
    Term last_log_term;
  };
  struct VoteReply {
    Term term;
    bool granted;
    NodeId voter;
  };
  struct AppendEntries {
    Term term;
    NodeId leader;
    LogIndex prev_index;
    Term prev_term;
    std::vector<LogEntry> entries;
    LogIndex leader_commit;
  };
  struct AppendReply {
    Term term;
    bool success;
    NodeId follower;
    LogIndex match_index;
    /// Follower's last_index — lets the leader skip the one-step next_index
    /// walk and jump straight to the follower's log end (or decide the gap
    /// is below its snapshot boundary and send InstallSnapshot).
    LogIndex hint_last_index = 0;
  };
  /// Catch-up for followers whose needed prefix the leader compacted. The
  /// log metadata travels here; the cluster's install handler performs the
  /// application-level state transfer (checkpoint bytes).
  struct InstallSnapshot {
    Term term;
    NodeId leader;
    LogIndex last_index;
    Term last_term;
  };

  void on_request_vote(const RequestVote& rv);
  void on_vote_reply(const VoteReply& vr);
  void on_append_entries(const AppendEntries& ae);
  void on_append_reply(const AppendReply& ar);
  void on_install_snapshot(const InstallSnapshot& is);

 private:
  void become_follower(Term term);
  void start_election();
  void become_leader();
  void broadcast_append();
  void send_append_to(NodeId peer);
  void advance_commit();
  void apply_committed();
  void reset_election_deadline();
  void persist_meta() {
    if (meta_hook_) meta_hook_(term_, voted_for_);
  }

  LogIndex last_index() const noexcept {
    return snapshot_index_ + static_cast<LogIndex>(log_.size());
  }
  Term last_term() const noexcept {
    return log_.empty() ? snapshot_term_ : log_.back().term;
  }
  /// Entry at 1-based index `i`; i must be above the snapshot boundary.
  const LogEntry& entry_at(LogIndex i) const {
    return log_[static_cast<std::size_t>(i - snapshot_index_ - 1)];
  }
  Term term_at(LogIndex i) const {
    if (i == snapshot_index_) return snapshot_term_;
    PROG_CHECK_MSG(i > snapshot_index_ && i <= last_index(),
                   "term_at below the snapshot boundary");
    return entry_at(i).term;
  }

  const NodeId id_;
  const unsigned n_;
  RaftCluster& cluster_;

  // Persistent state.
  Term term_ = 0;
  std::int64_t voted_for_ = -1;
  std::vector<LogEntry> log_;  // entries above the snapshot boundary
  LogIndex snapshot_index_ = 0;
  Term snapshot_term_ = 0;

  // Volatile state.
  Role role_ = Role::kFollower;
  unsigned votes_ = 0;
  LogIndex commit_index_ = 0;  // persisted here (snapshot simplification)
  LogIndex last_applied_ = 0;
  std::vector<LogIndex> next_index_;
  std::vector<LogIndex> match_index_;
  SimTime election_deadline_ = 0;
  SimTime next_heartbeat_ = 0;
  MetaHook meta_hook_;
};

/// Owns the nodes and the simulated network; wires RPCs and timers.
class RaftCluster {
 public:
  /// `apply(node, index, command)` fires when `node` applies a committed
  /// entry — exactly once per (node, index), in index order (a snapshot
  /// install fast-forwards the applied record without firing apply; the
  /// install handler is responsible for the equivalent state transfer).
  using ApplyFn = std::function<void(NodeId, LogIndex, Command)>;
  /// `install(follower, leader, upto)` fires when `follower` accepts an
  /// InstallSnapshot covering entries 1..upto from `leader`. The handler
  /// must transfer the application state for that prefix (e.g. restore the
  /// leader's checkpoint into the follower's replica).
  using InstallFn = std::function<void(NodeId, NodeId, LogIndex)>;
  /// `can_install(follower, leader, upto)`: whether `leader` still holds the
  /// state for an InstallSnapshot covering 1..upto. The follower declines an
  /// install that fails it (the leader moved its boundary while the message
  /// was in flight), and its failed reply makes the leader resend its
  /// current boundary.
  using CanInstallFn = std::function<bool(NodeId, NodeId, LogIndex)>;
  /// Returns the command a newly elected leader proposes as a no-op when
  /// its log ends above its commit index (see RaftNode::become_leader).
  using NoopFn = std::function<Command()>;

  RaftCluster(unsigned n, std::uint64_t seed, SimNet::Options net_opts = {},
              ApplyFn apply = {});

  void run_ms(SimTime ms) { net_.run_until(net_.now() + ms); }

  /// Current leader with the highest term, or -1 when none is visible.
  int leader() const;

  /// Submits to the current leader. False when there is no leader.
  bool submit(Command cmd);

  /// Commands node `i` has applied so far, in order.
  const std::vector<Command>& applied(NodeId i) const {
    return applied_[i];
  }

  RaftNode& node(NodeId i) { return *nodes_[i]; }
  const RaftNode& node(NodeId i) const { return *nodes_[i]; }
  unsigned size() const noexcept { return static_cast<unsigned>(nodes_.size()); }
  SimNet& net() noexcept { return net_; }

  void crash(NodeId i) { net_.crash(i); }
  void restart(NodeId i) {
    net_.restart(i);
    nodes_[i]->on_restart();
  }

  void set_install_handler(InstallFn install, CanInstallFn can_install) {
    install_ = std::move(install);
    can_install_ = std::move(can_install);
  }
  void set_noop_source(NoopFn noop) { noop_ = std::move(noop); }

  /// Overwrites node `i`'s applied-command record with `prefix` — used when
  /// the node rejoins from a checkpoint covering exactly those commands.
  void reset_applied(NodeId i, std::vector<Command> prefix) {
    applied_[i] = std::move(prefix);
  }

  // --- internal plumbing used by RaftNode ----------------------------------
  template <typename Msg, typename Handler>
  void rpc(NodeId from, NodeId to, Msg msg, Handler handler) {
    net_.send(from, to, [this, to, msg = std::move(msg), handler] {
      (nodes_[to].get()->*handler)(msg);
    });
  }
  SimNet& net_for_node() noexcept { return net_; }
  bool node_down(NodeId i) const { return net_.is_down(i); }
  void record_apply(NodeId node, Command cmd) {
    applied_[node].push_back(cmd);
    if (apply_) {
      apply_(node, static_cast<LogIndex>(applied_[node].size()), cmd);
    }
  }
  bool can_install(NodeId follower, NodeId leader, LogIndex upto) const {
    return !can_install_ || can_install_(follower, leader, upto);
  }
  /// Snapshot install accepted: fast-forward the follower's applied record
  /// to the leader's committed prefix, then hand the state transfer to the
  /// application. Every command <= upto is committed, so the prefix is
  /// identical on any node that applied it.
  void record_install(NodeId follower, NodeId leader, LogIndex upto) {
    const auto& src = applied_[leader];
    PROG_CHECK_MSG(src.size() >= upto,
                   "snapshot leader has not applied its own snapshot prefix");
    applied_[follower].assign(src.begin(),
                              src.begin() + static_cast<std::ptrdiff_t>(upto));
    if (install_) install_(follower, leader, upto);
  }

 private:
  SimNet net_;
  std::vector<std::unique_ptr<RaftNode>> nodes_;
  std::vector<std::vector<Command>> applied_;
  ApplyFn apply_;
  InstallFn install_;
  CanInstallFn can_install_;
  NoopFn noop_;

  friend class RaftNode;
};

}  // namespace prog::consensus
