// Multi-versioned key/value store — the RocksDB stand-in.
//
// Versions are tagged with the batch that produced them, which is exactly the
// granularity the deterministic engine needs:
//   - read-only transactions and the "prepare indirect keys" phase read the
//     snapshot left by the previous batch (lock-free, always consistent);
//   - the Calvin baseline prepares against an older snapshot to emulate the
//     client-side reconnaissance lag;
//   - update-phase reads see "latest", which is deterministic because the
//     lock table serializes conflicting writers.
//
// The store is sharded; each shard is guarded by a shared_mutex. Within a
// batch the lock table guarantees write-write exclusion per key, so shard
// locks only order the map operations themselves.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "store/row.hpp"

namespace prog::store {

struct StoreStats {
  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> dels{0};
};

/// Abstract read interface so the interpreter and the profile predictor can
/// run against a snapshot, the live head, or a transaction write buffer.
class ReadView {
 public:
  virtual ~ReadView() = default;
  /// nullptr means "no such record (at this snapshot)".
  virtual RowPtr get(TKey key) const = 0;

  /// Borrowing read for the bytecode VM hot loop (DESIGN.md §15): returns a
  /// raw pointer valid for the duration of the current batch phase. The
  /// default implementation pins the row via `keepalive` so the borrow is
  /// safe against any view; views whose rows are already pinned elsewhere
  /// (SnapshotView — snapshot versions are never replaced mid-batch and GC
  /// runs quiesced) override this to skip the refcount round-trip.
  virtual const Row* get_raw(TKey key, RowPtr& keepalive) const {
    keepalive = get(key);
    return keepalive.get();
  }
};

class VersionedStore {
 public:
  /// Snapshot id that sees every installed version.
  static constexpr BatchId kLatest = ~BatchId{0};

  explicit VersionedStore(unsigned shard_count = 64);

  VersionedStore(const VersionedStore&) = delete;
  VersionedStore& operator=(const VersionedStore&) = delete;

  /// Latest version with batch <= snapshot, or nullptr (absent/tombstone).
  RowPtr get(TKey key, BatchId snapshot = kLatest) const;

  /// Borrowing variant of get(): returns the raw row pointer without
  /// touching the shared_ptr control block. Only safe when the caller can
  /// guarantee the version outlives the borrow — i.e. fixed snapshots whose
  /// versions are never replaced and with GC quiesced (the engine's batch
  /// snapshots). Counted in stats().gets like get().
  const Row* get_ptr(TKey key, BatchId snapshot = kLatest) const;

  /// Installs `row` as the version for `batch`. A second put for the same
  /// (key, batch) replaces it — the lock table serializes such writers.
  void put(TKey key, Row row, BatchId batch);

  /// Installs a tombstone for `batch`.
  void del(TKey key, BatchId batch);

  /// Hash of the version (0 when absent) — cheap pivot-validation token.
  std::uint64_t version_hash(TKey key, BatchId snapshot = kLatest) const;

  /// Drops versions that no snapshot >= `watermark` can observe.
  void gc_before(BatchId watermark);

  /// Commutative hash of the full visible state at `snapshot`; equal on two
  /// stores iff the visible key->row maps are equal: the sum mod 2^64 of
  /// row_term() over the visible rows. Each shard keeps that sum for its
  /// newest versions up to date on every write, so the latest-state hash
  /// reads one accumulator per shard (O(shards)); a historical `snapshot`
  /// scans every chain.
  std::uint64_t state_hash(BatchId snapshot = kLatest) const;

  /// Copies the state visible at `snapshot` into `dst` as its batch-0
  /// image (rows are shared, not deep-copied — they are immutable). `dst`
  /// must be empty. Used to stamp out identical initial states cheaply
  /// (benchmark trials, replica bootstrap/state transfer).
  void clone_visible_into(VersionedStore& dst,
                          BatchId snapshot = kLatest) const;

  /// Number of live (non-tombstone) keys at `snapshot`.
  std::size_t size(BatchId snapshot = kLatest) const;

  /// Invokes `fn(key, row)` for every live key visible at `snapshot`.
  /// Iteration order is unspecified (shard/map order) — callers needing a
  /// canonical order sort, as store::serialize_visible does. A template so
  /// the full-image paths inline the visitor.
  template <typename Fn>
  void for_each_visible(BatchId snapshot, Fn&& fn) const {
    for (const Shard& shard : shards_) {
      std::shared_lock lock(shard.mu);
      for (const auto& [key, chain] : shard.map) {
        const Version* v = visible(chain, snapshot);
        if (v == nullptr || v->row == nullptr) continue;
        fn(key, *v->row);
      }
    }
  }

  /// Written-key recording for the incremental image builder
  /// (store::StateImageBuilder, DESIGN.md §8). Appends to `out` every key
  /// whose newest version changed since the previous call (unsorted, may
  /// repeat) and (re)starts recording. Returns false when that list is not
  /// complete — nothing was recording (first call, or a fresh store), or a
  /// shard's list overflowed its bound (the shard's key count) and stopped
  /// — and the caller must then rebuild from a full scan. Until the first
  /// call no write records anything. One recorder per store; call only
  /// while no writer runs.
  bool take_written_keys(std::vector<TKey>& out);

  /// One visible row's contribution to state_hash(): `row_hash` is the
  /// row's Row::hash(). Public so an image can be re-hashed line by line.
  static std::uint64_t row_term(TKey key, std::uint64_t row_hash) noexcept {
    const std::uint64_t k =
        mix64((static_cast<std::uint64_t>(key.table) << 48) ^ key.key);
    return mix64(k ^ row_hash);
  }

  /// Total versions currently retained (GC observability).
  std::size_t version_count() const;

  /// Emulates a slower backing store (e.g. the paper's RocksDB-over-JNI):
  /// every get/put/del busy-waits this many nanoseconds. 0 disables.
  /// Benches use this; tests and loaders leave it off.
  void set_access_delay_ns(std::uint64_t ns) noexcept {
    access_delay_ns_.store(ns, std::memory_order_relaxed);
  }

  const StoreStats& stats() const noexcept { return stats_; }

 private:
  struct Version {
    BatchId batch;
    RowPtr row;  // nullptr == tombstone
  };
  struct Chain {
    std::vector<Version> versions;  // ascending by batch
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::unordered_map<TKey, Chain, TKeyHash> map;
    // Sum mod 2^64 of row_term() over the newest version of every key in
    // `map` (tombstones add nothing). Guarded by `mu` like `map`.
    std::uint64_t latest_hash = 0;
    // Written-key recording (take_written_keys), guarded by `mu`. While
    // `recording`, install() keeps `max_batch` (the newest batch in the
    // shard) and appends a key the first time its newest version moves
    // past `floor` (max_batch at the last take), so a key written by many
    // batches is listed once. A newest version above `floor` therefore
    // proves the key is already listed. Overflowing the shard's key count
    // stops recording and frees the list. A shard that is not recording
    // pays one branch per write.
    bool recording = false;
    BatchId max_batch = 0;
    BatchId floor = 0;
    std::vector<TKey> written;
  };

  /// row_term() of a stored version; 0 for a tombstone.
  static std::uint64_t row_term(TKey key, const RowPtr& row) {
    return row == nullptr ? 0 : row_term(key, row->hash());
  }

  const Shard& shard_for(TKey key) const {
    return shards_[TKeyHash{}(key) % shards_.size()];
  }
  Shard& shard_for(TKey key) {
    return shards_[TKeyHash{}(key) % shards_.size()];
  }

  static const Version* visible(const Chain& chain, BatchId snapshot);

  /// Appends (or same-batch replaces) the newest version of `key` and keeps
  /// `shard.latest_hash` and the written-key list in step. Caller holds
  /// `shard.mu` exclusively.
  static void install(Shard& shard, TKey key, RowPtr row, BatchId batch);

  void access_delay() const;

  std::vector<Shard> shards_;
  mutable StoreStats stats_;
  std::atomic<std::uint64_t> access_delay_ns_{0};
};

/// ReadView pinned to one snapshot of one store.
class SnapshotView final : public ReadView {
 public:
  SnapshotView(const VersionedStore& store, BatchId snapshot)
      : store_(store), snapshot_(snapshot) {}

  RowPtr get(TKey key) const override { return store_.get(key, snapshot_); }
  const Row* get_raw(TKey key, RowPtr& keepalive) const override {
    (void)keepalive;  // snapshot versions are pinned by the store itself
    return store_.get_ptr(key, snapshot_);
  }
  BatchId snapshot() const noexcept { return snapshot_; }

 private:
  const VersionedStore& store_;
  BatchId snapshot_;
};

/// ReadView over the live head of the store.
class LiveView final : public ReadView {
 public:
  explicit LiveView(const VersionedStore& store) : store_(store) {}
  RowPtr get(TKey key) const override {
    return store_.get(key, VersionedStore::kLatest);
  }

 private:
  const VersionedStore& store_;
};

}  // namespace prog::store
