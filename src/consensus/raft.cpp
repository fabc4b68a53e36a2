#include "consensus/raft.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace prog::consensus {

namespace {
constexpr SimTime kTickMs = 10;
constexpr SimTime kHeartbeatMs = 50;
constexpr SimTime kElectionMinMs = 150;
constexpr SimTime kElectionJitterMs = 150;
}  // namespace

RaftNode::RaftNode(NodeId id, unsigned cluster_size, RaftCluster& cluster)
    : id_(id), n_(cluster_size), cluster_(cluster) {
  next_index_.assign(n_, 1);
  match_index_.assign(n_, 0);
  reset_election_deadline();
  // Self-rescheduling tick for the lifetime of the simulation.
  cluster_.net_for_node().schedule(kTickMs, [this] { tick_pump(); });
}

void RaftNode::tick_pump() {
  if (!cluster_.node_down(id_)) tick();
  cluster_.net_for_node().schedule(kTickMs, [this] { tick_pump(); });
}

void RaftNode::reset_election_deadline() {
  election_deadline_ =
      cluster_.net_for_node().now() + kElectionMinMs +
      static_cast<SimTime>(cluster_.net_for_node().rng().bounded(
          kElectionJitterMs));
}

void RaftNode::on_restart() {
  role_ = Role::kFollower;
  votes_ = 0;
  next_index_.assign(n_, last_index() + 1);
  match_index_.assign(n_, 0);
  reset_election_deadline();
}

void RaftNode::wipe() {
  term_ = 0;
  voted_for_ = -1;
  log_.clear();
  snapshot_index_ = 0;
  snapshot_term_ = 0;
  commit_index_ = 0;
  last_applied_ = 0;
  on_restart();
}

void RaftNode::install_local_snapshot(LogIndex index, Term term) {
  PROG_CHECK_MSG(log_.empty() && snapshot_index_ == 0,
                 "install_local_snapshot requires a wiped node");
  snapshot_index_ = index;
  snapshot_term_ = term;
  commit_index_ = index;
  last_applied_ = index;
  term_ = std::max(term_, term);
  next_index_.assign(n_, last_index() + 1);
  persist_meta();
}

void RaftNode::compact_to(LogIndex upto) {
  upto = std::min(upto, last_applied_);
  if (upto <= snapshot_index_) return;
  const Term boundary_term = term_at(upto);
  log_.erase(log_.begin(),
             log_.begin() + static_cast<std::ptrdiff_t>(upto - snapshot_index_));
  snapshot_index_ = upto;
  snapshot_term_ = boundary_term;
}

void RaftNode::become_follower(Term term) {
  term_ = term;
  role_ = Role::kFollower;
  voted_for_ = -1;
  votes_ = 0;
  reset_election_deadline();
  persist_meta();
}

void RaftNode::tick() {
  const SimTime now = cluster_.net_for_node().now();
  if (role_ == Role::kLeader) {
    if (now >= next_heartbeat_) {
      broadcast_append();
      next_heartbeat_ = now + kHeartbeatMs;
    }
    return;
  }
  if (now >= election_deadline_) start_election();
}

void RaftNode::start_election() {
  ++term_;
  role_ = Role::kCandidate;
  voted_for_ = static_cast<std::int64_t>(id_);
  votes_ = 1;
  persist_meta();
  reset_election_deadline();
  const RequestVote rv{term_, id_, last_index(), last_term()};
  for (NodeId p = 0; p < n_; ++p) {
    if (p == id_) continue;
    cluster_.rpc(id_, p, rv, &RaftNode::on_request_vote);
  }
}

void RaftNode::on_request_vote(const RequestVote& rv) {
  if (rv.term > term_) become_follower(rv.term);
  bool granted = false;
  if (rv.term == term_ &&
      (voted_for_ < 0 ||
       voted_for_ == static_cast<std::int64_t>(rv.candidate))) {
    // Up-to-date check (Raft §5.4.1).
    const bool up_to_date =
        rv.last_log_term > last_term() ||
        (rv.last_log_term == last_term() && rv.last_log_index >= last_index());
    if (up_to_date) {
      granted = true;
      voted_for_ = static_cast<std::int64_t>(rv.candidate);
      persist_meta();  // the vote must hit stable storage before the reply
      reset_election_deadline();
    }
  }
  cluster_.rpc(id_, rv.candidate, VoteReply{term_, granted, id_},
               &RaftNode::on_vote_reply);
}

void RaftNode::on_vote_reply(const VoteReply& vr) {
  if (vr.term > term_) {
    become_follower(vr.term);
    return;
  }
  if (role_ != Role::kCandidate || vr.term != term_ || !vr.granted) return;
  if (++votes_ > n_ / 2) become_leader();
}

void RaftNode::become_leader() {
  role_ = Role::kLeader;
  next_index_.assign(n_, last_index() + 1);
  match_index_.assign(n_, 0);
  // A leader commits only entries of its own term (§5.4.2), so earlier-term
  // entries above the commit index would wait for the next client submit.
  // A no-op of the new term commits them now (§8).
  if (last_index() > commit_index_ && cluster_.noop_) {
    log_.push_back({term_, cluster_.noop_()});
  }
  match_index_[id_] = last_index();
  next_heartbeat_ = 0;
  broadcast_append();
}

bool RaftNode::submit(Command cmd) {
  if (role_ != Role::kLeader) return false;
  log_.push_back({term_, cmd});
  match_index_[id_] = last_index();
  broadcast_append();
  if (n_ == 1) {
    advance_commit();
  }
  return true;
}

void RaftNode::broadcast_append() {
  for (NodeId p = 0; p < n_; ++p) {
    if (p != id_) send_append_to(p);
  }
}

void RaftNode::send_append_to(NodeId peer) {
  if (next_index_[peer] <= snapshot_index_) {
    // The prefix the follower needs was compacted away: ship the snapshot
    // boundary instead; the cluster's install handler moves the state.
    cluster_.rpc(id_, peer,
                 InstallSnapshot{term_, id_, snapshot_index_, snapshot_term_},
                 &RaftNode::on_install_snapshot);
    return;
  }
  const LogIndex prev = next_index_[peer] - 1;
  AppendEntries ae;
  ae.term = term_;
  ae.leader = id_;
  ae.prev_index = prev;
  ae.prev_term = term_at(prev);
  ae.leader_commit = commit_index_;
  for (LogIndex i = next_index_[peer]; i <= last_index(); ++i) {
    ae.entries.push_back(entry_at(i));
  }
  cluster_.rpc(id_, peer, std::move(ae), &RaftNode::on_append_entries);
}

void RaftNode::on_append_entries(const AppendEntries& ae) {
  if (ae.term > term_) become_follower(ae.term);
  AppendReply reply{term_, false, id_, 0, last_index()};
  if (ae.term == term_) {
    if (role_ != Role::kFollower) role_ = Role::kFollower;
    reset_election_deadline();
    // Normalize a prev below our snapshot boundary: everything at or below
    // it is committed and identical in any log that contains it, so skip
    // the covered prefix of the entries instead of failing.
    LogIndex prev_index = ae.prev_index;
    std::size_t skip = 0;
    if (prev_index < snapshot_index_) {
      skip = static_cast<std::size_t>(
          std::min<LogIndex>(snapshot_index_ - prev_index, ae.entries.size()));
      prev_index += skip;
    }
    const bool prev_ok = prev_index >= snapshot_index_ &&
                         prev_index <= last_index() &&
                         (prev_index == ae.prev_index
                              ? term_at(prev_index) == ae.prev_term
                              : true);  // skipped prefix: committed, matches
    if (prev_ok) {
      // Append, truncating conflicting suffixes.
      LogIndex idx = prev_index;
      for (std::size_t e = skip; e < ae.entries.size(); ++e) {
        const LogEntry& entry = ae.entries[e];
        ++idx;
        if (idx <= last_index()) {
          if (term_at(idx) != entry.term) {
            log_.resize(static_cast<std::size_t>(idx - snapshot_index_ - 1));
            log_.push_back(entry);
          }
        } else {
          log_.push_back(entry);
        }
      }
      const LogIndex match = ae.prev_index + ae.entries.size();
      if (ae.leader_commit > commit_index_) {
        commit_index_ = std::min(ae.leader_commit, last_index());
        apply_committed();
      }
      reply.success = true;
      reply.match_index = match;
      reply.hint_last_index = last_index();
    }
  }
  cluster_.rpc(id_, ae.leader, reply, &RaftNode::on_append_reply);
}

void RaftNode::on_install_snapshot(const InstallSnapshot& is) {
  if (is.term > term_) become_follower(is.term);
  AppendReply reply{term_, false, id_, 0, last_index()};
  if (is.term == term_) {
    if (role_ != Role::kFollower) role_ = Role::kFollower;
    reset_election_deadline();
    if (is.last_index > last_applied_ &&
        !cluster_.can_install(id_, is.leader, is.last_index)) {
      // Stale: the leader no longer holds this boundary's state. Decline;
      // the failed reply makes it resend its current boundary.
      cluster_.rpc(id_, is.leader, reply, &RaftNode::on_append_reply);
      return;
    }
    if (is.last_index > last_applied_) {
      // Adopt the snapshot wholesale: any local suffix is either stale or
      // will be re-replicated by the leader from last_index on.
      log_.clear();
      snapshot_index_ = is.last_index;
      snapshot_term_ = is.last_term;
      commit_index_ = is.last_index;
      last_applied_ = is.last_index;
      cluster_.record_install(id_, is.leader, is.last_index);
    }
    reply.success = true;
    reply.match_index = std::max(is.last_index, commit_index_);
    reply.hint_last_index = last_index();
  }
  cluster_.rpc(id_, is.leader, reply, &RaftNode::on_append_reply);
}

void RaftNode::on_append_reply(const AppendReply& ar) {
  if (ar.term > term_) {
    become_follower(ar.term);
    return;
  }
  if (role_ != Role::kLeader || ar.term != term_) return;
  if (ar.success) {
    match_index_[ar.follower] =
        std::max(match_index_[ar.follower], ar.match_index);
    next_index_[ar.follower] = match_index_[ar.follower] + 1;
    advance_commit();
    // A lagging follower (e.g. fresh snapshot install) gets the remaining
    // suffix on the next heartbeat (<= 50 virtual ms away).
  } else {
    LogIndex next = next_index_[ar.follower];
    if (next > 1) --next;
    // Fast backoff: jump straight past the follower's log end instead of
    // probing one index per round trip (matters after wipe-restarts).
    if (ar.hint_last_index + 1 < next) next = ar.hint_last_index + 1;
    next_index_[ar.follower] = std::max<LogIndex>(next, 1);
    send_append_to(ar.follower);
  }
}

void RaftNode::advance_commit() {
  // Largest N with majority match and log[N].term == current term (§5.4.2).
  for (LogIndex n = last_index(); n > commit_index_; --n) {
    if (term_at(n) != term_) break;
    unsigned count = 0;
    for (NodeId p = 0; p < n_; ++p) {
      if (match_index_[p] >= n) ++count;
    }
    if (count > n_ / 2) {
      commit_index_ = n;
      apply_committed();
      break;
    }
  }
}

void RaftNode::apply_committed() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    // The apply callback may compact the log up to last_applied_ (the
    // replicated database checkpoints + compacts from inside apply), so
    // read the command before invoking it and use boundary-aware indexing.
    cluster_.record_apply(id_, entry_at(last_applied_).command);
  }
}

// --- cluster -------------------------------------------------------------------

RaftCluster::RaftCluster(unsigned n, std::uint64_t seed,
                         SimNet::Options net_opts, ApplyFn apply)
    : net_(seed, net_opts), applied_(n), apply_(std::move(apply)) {
  PROG_CHECK(n >= 1);
  nodes_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<RaftNode>(i, n, *this));
  }
}

int RaftCluster::leader() const {
  int best = -1;
  Term best_term = 0;
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    const RaftNode& node = *nodes_[i];
    if (net_.is_down(i)) continue;
    if (node.role() == RaftNode::Role::kLeader && node.term() >= best_term) {
      best = static_cast<int>(i);
      best_term = node.term();
    }
  }
  return best;
}

bool RaftCluster::submit(Command cmd) {
  const int l = leader();
  if (l < 0) return false;
  return nodes_[static_cast<std::size_t>(l)]->submit(cmd);
}

}  // namespace prog::consensus
