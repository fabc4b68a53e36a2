// Atomic, self-verifying checkpoint files.
//
// A checkpoint file is one replica state image published atomically:
// write to `<name>.tmp`, sync the bytes, rename into place, sync the
// directory. A reader therefore sees either the complete previous slot or
// the complete new one — never a torn image. Content corruption (bit rot,
// injected faults) is caught by a whole-file CRC32C footer; a checkpoint
// that fails to decode is simply skipped and recovery falls back to the
// next-older slot or to the leader.
//
// On-disk format v1 — text headers, raw image bytes, CRC footer:
//
//   progckpt v1
//   seq <u64> term <u64> hash <u64>
//   stats <16 u64 engine counters, DESIGN.md §12 order>
//   prefix <count> <command>*
//   image <byte-count>
//   <raw canonical state image (store::serialize_visible)>
//   crc <8 lowercase hex digits of crc32c over everything above>
//
// The durability layer owns the checkpoint struct: the consensus layer,
// which sits above it, uses it as its in-memory checkpoint too
// (consensus::Checkpoint), so a checkpoint is persisted, recovered and
// served to followers without conversion.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dur/vfs.hpp"
#include "sched/engine.hpp"

namespace prog::dur {

/// One replica's state after a prefix of the agreed batch sequence, keyed by
/// (seq, state_hash).
struct CheckpointImage {
  /// Number of committed batches folded into the image (= the log index of
  /// the last batch included).
  std::uint64_t seq = 0;
  /// Raft term of entry `seq`: lets a restarted node rejoin at this
  /// boundary as if it had installed a snapshot there.
  std::uint64_t term = 0;
  /// state_hash() of the image; with seq, the checkpoint's identity.
  std::uint64_t state_hash = 0;
  /// Commands (batch ids) applied to reach this state, in order: the
  /// applied record a rejoining node fast-forwards to.
  std::vector<std::uint64_t> command_prefix;
  /// Cumulative deterministic engine counters at this boundary. Restoring a
  /// checkpoint resets the replica's stats baseline to this value, so a
  /// batch replayed after a restore is counted exactly once and the
  /// deterministic-counter snapshot (DESIGN.md §9) stays byte-identical to
  /// a replica that never crashed.
  sched::EngineStats engine_stats{};
  /// Canonical serialized visible state (store::serialize_visible). Shared:
  /// the replica's image builder, its checkpoint store and every follower
  /// it was installed on point at one buffer.
  std::shared_ptr<const std::string> image;
};

/// Encodes `cp` into the v1 on-disk byte string.
std::string encode_checkpoint(const CheckpointImage& cp);

/// Decodes a v1 checkpoint file. Throws IoError on any malformation or CRC
/// mismatch — recovery treats the slot as unusable and moves on.
CheckpointImage decode_checkpoint(const std::string& bytes);

/// Publishes `cp` atomically as `path` (write `path`.tmp + sync + rename +
/// sync_dir of `dir`). Returns the encoded byte count.
std::size_t write_checkpoint_file(Vfs& vfs, const std::string& dir,
                                  const std::string& path,
                                  const CheckpointImage& cp);

}  // namespace prog::dur
