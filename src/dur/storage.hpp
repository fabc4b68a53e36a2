// Per-replica durable storage: raft metadata + batch WAL + checkpoint slots.
//
// Directory layout (one directory per replica, on any Vfs):
//
//   meta                      — raft term/vote, CRC'd, atomic rewrite
//   wal-<%016x seq>.wal       — WAL segment holding batches with seq > <seq>
//   ckpt-<%016x seq>-<%016x hash>.ckpt — checkpoint slots (newest K kept)
//   quarantine-<n>.bad        — corrupt WAL suffixes kept for forensics
//
// Write path: every agreed batch is appended to the tail WAL segment and
// fsynced (group commit — one barrier per batch, amortized over all its
// transactions). Every checkpoint is published atomically, opens a fresh
// WAL segment at its boundary, and prunes segments and slots the retention
// policy no longer needs (dual-slot default: the newest two checkpoints
// plus every segment reachable from the older one, so a corrupt newest
// slot still leaves a recoverable chain).
//
// Recovery path (recover()): load meta, decode every checkpoint slot
// (corrupt slots skipped), scan WAL segments with torn-tail truncation and
// corrupt-record quarantine, then stitch the longest contiguous batch
// suffix on top of the newest decodable checkpoint. The caller replays the
// suffix and re-verifies state hashes; anything this layer could not
// salvage is re-fetched from the leader.
//
// All metrics are cold-path and aggregated cluster-wide.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dur/checkpoint_file.hpp"
#include "dur/wal.hpp"
#include "obs/metrics.hpp"

namespace prog::dur {

/// Pre-resolved handles for the durability metric families.
struct DurMetrics {
  obs::Counter* wal_bytes = nullptr;
  obs::Counter* wal_fsyncs = nullptr;
  obs::Counter* wal_records = nullptr;
  obs::Counter* torn_tails_truncated = nullptr;
  obs::Counter* records_quarantined = nullptr;
  obs::Counter* io_errors = nullptr;
  obs::Counter* checkpoints_persisted = nullptr;
  obs::Counter* checkpoint_bytes = nullptr;
  obs::Counter* checkpoint_decode_failures = nullptr;
  obs::Counter* wal_records_replayed = nullptr;
  obs::Counter* replay_hash_mismatches = nullptr;
  /// dur_recovery_total{source=...}: which substrate a restart recovered
  /// from — "checkpoint_wal", "checkpoint", "wal", or "none" (leader).
  obs::Counter* recovery_checkpoint_wal = nullptr;
  obs::Counter* recovery_checkpoint = nullptr;
  obs::Counter* recovery_wal = nullptr;
  obs::Counter* recovery_none = nullptr;

  static DurMetrics create(obs::Registry& reg);
};

class DurableReplicaStorage {
 public:
  /// Checkpoint slots retained on disk: two survive one corrupt or torn
  /// newest image.
  static constexpr std::size_t kCheckpointSlots = 2;

  /// `dir` is created if missing. `metrics` may be nullptr (benches).
  DurableReplicaStorage(Vfs& vfs, std::string dir,
                        DurMetrics* metrics = nullptr);

  // --- write path ----------------------------------------------------------
  /// Appends one agreed batch and fsyncs — the group-commit barrier.
  /// IoError from the Vfs is absorbed: the record is rolled back
  /// (truncated) so the WAL stays frame-aligned, the io_errors counter
  /// ticks, and the batch is simply not durable here.
  void append_batch(const WalRecord& rec);

  /// Appends one agreed batch WITHOUT the group-commit barrier — the async
  /// commit queue's write half (DESIGN.md §14). Several appends may share
  /// one sync_wal() barrier, which is the whole point of group-commit
  /// coalescing. Emits no tracing span (the queue emits one per record
  /// after the shared sync). IoError is absorbed with the same
  /// truncate-to-frame-boundary rollback as append_batch. Returns the
  /// framed byte count (0 when the append failed and was rolled back).
  std::size_t append_batch_nosync(const WalRecord& rec);

  /// The group-commit barrier for records appended via append_batch_nosync.
  /// Returns false when the file system refused the fsync — for the
  /// caller's durable watermark that is equivalent to a lying drive (one of
  /// the injected fault modes): the records may not be durable, and
  /// recovery's checkpoint chain plus leader catch-up covers the loss.
  bool sync_wal();

  /// Publishes `cp` atomically, rotates the WAL to a fresh segment at the
  /// checkpoint boundary, and prunes slots/segments per retention.
  void persist_checkpoint(const CheckpointImage& cp);

  /// Atomically rewrites the raft term/vote metadata.
  void persist_meta(std::uint64_t term, std::int64_t voted_for);

  // --- recovery ------------------------------------------------------------
  struct Recovered {
    /// All decodable checkpoint slots, oldest first.
    std::vector<CheckpointImage> checkpoints;
    /// Contiguous batch suffix starting right after the newest checkpoint
    /// (or at seq 1 when there is none).
    std::vector<WalRecord> wal;
    std::uint64_t term = 0;
    std::int64_t voted_for = -1;
    bool meta_ok = false;

    const CheckpointImage* newest_checkpoint() const {
      return checkpoints.empty() ? nullptr : &checkpoints.back();
    }
  };

  /// Scans the directory, repairing the WAL in place (truncation +
  /// quarantine). Also re-opens the tail segment for writing, so the
  /// storage object is ready for append_batch immediately after.
  Recovered recover();

  const std::string& dir() const noexcept { return dir_; }

 private:
  std::string wal_path(std::uint64_t start_seq) const;
  std::string ckpt_path(std::uint64_t seq, std::uint64_t hash) const;
  void open_tail(std::uint64_t start_seq);
  void prune(std::uint64_t newest_ckpt_seq);
  void count_io_error();

  Vfs& vfs_;
  std::string dir_;
  DurMetrics* m_;
  std::unique_ptr<WalWriter> tail_;
  std::uint64_t tail_start_ = 0;  ///< segment boundary of the open tail
  std::uint64_t quarantine_n_ = 0;
};

}  // namespace prog::dur
