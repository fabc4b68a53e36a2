// Deterministic replica checkpoints.
//
// A checkpoint is the canonical state image of one replica after applying a
// prefix of the agreed batch sequence, keyed by (seq, state_hash).
// Determinism makes checkpoints free of coordination: every replica that
// applies the same prefix produces the *byte-identical* image, so any
// replica's checkpoint can seed any other replica (InstallSnapshot state
// transfer), and a checkpoint whose hash disagrees with the cluster's hash
// history is evidence of divergence, never of timing.
//
// The store is the replica process's in-memory index of its checkpoints:
// the ones it took, the ones it received by InstallSnapshot, and, after a
// restart, the ones recovery read back from disk. It dies with the process;
// the replica's durable storage (dur::DurableReplicaStorage) is what a
// crash spares.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

#include "consensus/raft.hpp"
#include "dur/checkpoint_file.hpp"

namespace prog::consensus {

/// One checkpoint type for memory and disk (see dur/checkpoint_file.hpp).
using Checkpoint = dur::CheckpointImage;

/// Retention-bounded collection of checkpoints, keyed (seq, hash).
class CheckpointStore {
 public:
  using Key = std::pair<LogIndex, std::uint64_t>;  // (seq, state_hash)

  /// Inserts `cp` (idempotent for an identical (seq, hash) key) and
  /// drops the oldest entries beyond `max_retained`. The recovery anchor
  /// (set_anchor) is never dropped: it is the newest checkpoint at or below
  /// the log compaction point, i.e. the only image from which a rejoining
  /// node can still reach the retained log suffix. Pruning it would leave a
  /// gap no replay can cross.
  void add(Checkpoint cp, std::size_t max_retained) {
    const Key key{cp.seq, cp.state_hash};
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

  /// Pins the checkpoint(s) at `seq` against retention. Pass -1
  /// to clear. The anchor tracks the log compaction point: everything below
  /// it is unreachable by log replay, so the anchor image must survive.
  void set_anchor(std::int64_t seq) { anchor_ = seq; }
  std::int64_t anchor() const noexcept { return anchor_; }

  /// Newest checkpoint, or nullptr when empty.
  const Checkpoint* latest() const {
    return map_.empty() ? nullptr : &map_.rbegin()->second;
  }

  /// Newest checkpoint with seq <= `seq`, or nullptr.
  const Checkpoint* latest_at_or_before(LogIndex seq) const {
    const Checkpoint* best = nullptr;
    for (const auto& [key, cp] : map_) {
      if (key.first > seq) break;
      best = &cp;
    }
    return best;
  }

  /// Exact lookup by seq (any hash), or nullptr.
  const Checkpoint* at(LogIndex seq) const {
    auto it = map_.lower_bound({seq, 0});
    if (it == map_.end() || it->first.first != seq) return nullptr;
    return &it->second;
  }

  /// Exact lookup by the full (seq, state_hash) key, or nullptr.
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
  std::int64_t anchor_ = -1;  ///< seq pinned against pruning; -1 = none
};

}  // namespace prog::consensus
