// Deterministic replica checkpoints.
//
// A checkpoint is the canonical state image of one replica after applying a
// prefix of the agreed batch sequence, keyed by (batch_seq, state_hash).
// Determinism makes checkpoints free of coordination: every replica that
// applies the same prefix produces the *byte-identical* image, so any
// replica's checkpoint can seed any other replica (InstallSnapshot state
// transfer), and a checkpoint whose hash disagrees with the cluster's hash
// history is evidence of divergence, never of timing.
//
// The store is in-memory (the simulated deployment's stand-in for a durable
// checkpoint directory) and survives replica crashes by construction — the
// recovery layer owns it outside the Database object it rebuilds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "consensus/raft.hpp"
#include "sched/engine.hpp"

namespace prog::consensus {

struct Checkpoint {
  /// Number of committed batches folded into the image (= the log index of
  /// the last batch included).
  LogIndex batch_seq = 0;
  /// Raft term of entry `batch_seq` — lets a restarted node rejoin at this
  /// boundary as if it had installed a snapshot there.
  Term term = 0;
  /// state_hash() of the image; with batch_seq, the checkpoint's identity.
  std::uint64_t state_hash = 0;
  /// Canonical serialized visible state (store::serialize_visible). Shared:
  /// the replica's image builder, its durable copy and every checkpoint
  /// store holding this checkpoint point at one buffer.
  std::shared_ptr<const std::string> image;
  /// Commands (batch ids) applied to reach this state, in order — the
  /// applied record a rejoining node fast-forwards to.
  std::vector<Command> command_prefix;
  /// Cumulative deterministic engine counters at this boundary. Restoring a
  /// checkpoint resets the replica's stats baseline to this value, so a
  /// batch replayed after a restore is counted exactly once — the
  /// deterministic-counter snapshot (telemetry divergence oracle, DESIGN.md
  /// §9) stays byte-identical to a replica that never crashed. Only the
  /// deterministic fields matter for that contract; timing fields in
  /// EngineStats are zero by construction (EngineStats holds counts only).
  sched::EngineStats engine_stats{};
};

/// Retention-bounded collection of checkpoints, keyed (batch_seq, hash).
class CheckpointStore {
 public:
  using Key = std::pair<LogIndex, std::uint64_t>;  // (batch_seq, state_hash)

  /// Inserts `cp` (idempotent for an identical (batch_seq, hash) key) and
  /// drops the oldest entries beyond `max_retained`. The recovery anchor
  /// (set_anchor) is never dropped: it is the newest checkpoint at or below
  /// the log compaction point, i.e. the only image from which a rejoining
  /// node can still reach the retained log suffix. Pruning it would leave a
  /// gap no replay can cross.
  void add(Checkpoint cp, std::size_t max_retained) {
    const Key key{cp.batch_seq, cp.state_hash};
    map_.insert_or_assign(key, std::move(cp));
    auto it = map_.begin();
    std::size_t kept = map_.size();
    while (max_retained > 0 && kept > max_retained && it != map_.end()) {
      if (anchor_ >= 0 && it->first.first == static_cast<LogIndex>(anchor_)) {
        ++it;  // anchored: exempt from retention
        continue;
      }
      it = map_.erase(it);
      --kept;
    }
  }

  /// Pins the checkpoint(s) at batch_seq `seq` against retention. Pass -1
  /// to clear. The anchor tracks the log compaction point: everything below
  /// it is unreachable by log replay, so the anchor image must survive.
  void set_anchor(std::int64_t seq) { anchor_ = seq; }
  std::int64_t anchor() const noexcept { return anchor_; }

  /// Newest checkpoint, or nullptr when empty.
  const Checkpoint* latest() const {
    return map_.empty() ? nullptr : &map_.rbegin()->second;
  }

  /// Newest checkpoint with batch_seq <= seq, or nullptr.
  const Checkpoint* latest_at_or_before(LogIndex seq) const {
    const Checkpoint* best = nullptr;
    for (const auto& [key, cp] : map_) {
      if (key.first > seq) break;
      best = &cp;
    }
    return best;
  }

  /// Exact lookup by batch_seq (any hash), or nullptr.
  const Checkpoint* at(LogIndex seq) const {
    auto it = map_.lower_bound({seq, 0});
    if (it == map_.end() || it->first.first != seq) return nullptr;
    return &it->second;
  }

  /// Exact lookup by the full (batch_seq, state_hash) key, or nullptr.
  const Checkpoint* find(LogIndex seq, std::uint64_t hash) const {
    auto it = map_.find({seq, hash});
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Ordered (oldest-first) view — recovery scans it newest-first looking
  /// for a checkpoint the hash history vouches for.
  const std::map<Key, Checkpoint>& entries() const noexcept { return map_; }

  std::size_t size() const noexcept { return map_.size(); }
  bool empty() const noexcept { return map_.empty(); }
  void clear() { map_.clear(); }

 private:
  std::map<Key, Checkpoint> map_;
  std::int64_t anchor_ = -1;  ///< batch_seq pinned against pruning; -1 = none
};

}  // namespace prog::consensus
