// Canonical state-image serialization — the checkpoint format.
//
// A StateImage is the full visible key->row map of a VersionedStore at one
// snapshot, flattened into a canonical, line-oriented text encoding. The
// encoding is *byte-identical* across replicas: keys are emitted in sorted
// (table, key) order and row fields are sorted (Row keeps them sorted), so
// two stores with equal visible state serialize to equal bytes regardless of
// the insertion/interleaving history that produced them. That property is
// what lets the replication layer key checkpoints by (batch_seq, state_hash)
// and ship them byte-for-byte as InstallSnapshot payloads.
//
// Format (one record per line):
//   state v1 <row-count> <state-hash>
//   r <table> <key> <field-count> [<field> <value>]...
//   end
//
// restore_visible() reconciles a live store to an image *in place*: every
// image row is (re)written and every visible key absent from the image is
// tombstoned, all tagged with the caller's batch id. This supports both the
// bootstrap path (restore over freshly loaded batch-0 state) and the
// catch-up path (restore over a live store that lags the cluster).
//
// StateImageBuilder produces the same bytes as serialize_visible for a
// sequence of latest-state images of one store, re-formatting only the rows
// written since its previous image (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/store.hpp"

namespace prog::store {

/// Serializes the state visible at `snapshot` into the canonical text form.
std::string serialize_visible(const VersionedStore& store,
                              BatchId snapshot = VersionedStore::kLatest);

/// Parses the header of an image without materializing rows. Returns the
/// state hash recorded at serialization time. Throws UsageError on garbage.
std::uint64_t image_state_hash(const std::string& image);

/// Reconciles `dst`'s visible state to equal `image`, writing every change
/// as version `at` (puts for image rows, tombstones for stale keys). `at`
/// must be >= the newest version already installed for any touched key —
/// recovery uses the replica's last-applied batch id. Throws UsageError on
/// malformed input.
void restore_visible(VersionedStore& dst, const std::string& image,
                     BatchId at);

/// Successive latest-state images of one store, each byte-identical to
/// serialize_visible(store), at a cost of O(rows written since the previous
/// image) plus one memcpy of the unchanged lines.
///
/// The builder keeps its previous image (shared, not copied: callers that
/// retain the newest image hold the same buffer) and the offset of every row
/// line in it. The first build(), and any build() after reset() or after the
/// store lost track of its writes (VersionedStore::take_written_keys), runs
/// serialize_visible and indexes its lines. Later builds sort and dedupe the
/// keys the store recorded, format only those rows, copy the unchanged runs
/// of the previous image around them into one allocation of exactly the
/// final size, and update the header's row count and state hash: minus the
/// row_term of each replaced line (parsed back), plus that of each new row.
/// The result must equal store.state_hash() — a write the recording missed
/// fails that check instead of yielding a wrong image.
class StateImageBuilder {
 public:
  using Image = std::shared_ptr<const std::string>;

  /// Image of `store`'s latest state. Call only while no writer runs on
  /// `store`, and from one builder per store.
  Image build(VersionedStore& store);

  /// Drops the previous image; the next build() is a full one. Call when
  /// the store is replaced or rebuilt.
  void reset();

  /// build() calls that ran serialize_visible.
  std::uint64_t full_builds() const noexcept { return full_builds_; }

 private:
  Image full_build(VersionedStore& store);

  /// A dirty key's place in the next image: the old line it replaces (or
  /// inserts before) and its freshly formatted line in `fresh_` (empty when
  /// the key is no longer visible).
  struct Patch {
    std::uint32_t old_line;
    bool replaces;
    std::uint32_t fresh_begin;
    std::uint32_t fresh_end;
  };

  const VersionedStore* store_ = nullptr;
  Image image_;  ///< previous image; nullptr = next build is full
  std::uint32_t body_begin_ = 0;  ///< offset of the first row line
  std::uint64_t hash_ = 0;        ///< state hash in image_'s header
  std::vector<std::uint32_t> lines_;  ///< row line offsets, in key order
  std::uint64_t full_builds_ = 0;
  // Scratch reused across builds.
  std::vector<TKey> keys_;
  std::vector<Patch> patches_;
  std::string fresh_;
  std::vector<std::uint32_t> next_lines_;
};

}  // namespace prog::store
