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
// The header fields mirror consensus::Checkpoint exactly; the decoupled
// CheckpointImage struct exists so the durability layer does not depend on
// the consensus module (which sits above it).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dur/vfs.hpp"
#include "sched/engine.hpp"

namespace prog::dur {

/// consensus::Checkpoint, flattened for persistence.
struct CheckpointImage {
  std::uint64_t seq = 0;
  std::uint64_t term = 0;
  std::uint64_t state_hash = 0;
  /// Commands (batch ids) applied to reach this state, in order.
  std::vector<std::uint64_t> command_prefix;
  /// Cumulative deterministic engine counters at this boundary.
  sched::EngineStats engine_stats{};
  /// Canonical serialized visible state (store::serialize_visible), shared
  /// with the in-memory checkpoint and the image builder, never copied.
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
