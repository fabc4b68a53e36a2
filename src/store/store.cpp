#include "store/store.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "common/check.hpp"

namespace prog::store {

VersionedStore::VersionedStore(unsigned shard_count)
    : shards_(shard_count == 0 ? 1 : shard_count) {}

void VersionedStore::access_delay() const {
  const std::uint64_t ns = access_delay_ns_.load(std::memory_order_relaxed);
  if (ns == 0) return;
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::nanoseconds(ns);
  while (std::chrono::steady_clock::now() < until) {
    // busy-wait: emulated storage-access latency
  }
}

const VersionedStore::Version* VersionedStore::visible(const Chain& chain,
                                                       BatchId snapshot) {
  // Chains are short (GC keeps them bounded); scan from the newest version.
  for (auto it = chain.versions.rbegin(); it != chain.versions.rend(); ++it) {
    if (it->batch <= snapshot) return &*it;
  }
  return nullptr;
}

RowPtr VersionedStore::get(TKey key, BatchId snapshot) const {
  access_delay();
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  const Shard& shard = shard_for(key);
  std::shared_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  const Version* v = visible(it->second, snapshot);
  return v != nullptr ? v->row : nullptr;
}

const Row* VersionedStore::get_ptr(TKey key, BatchId snapshot) const {
  access_delay();
  stats_.gets.fetch_add(1, std::memory_order_relaxed);
  const Shard& shard = shard_for(key);
  std::shared_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return nullptr;
  const Version* v = visible(it->second, snapshot);
  return v != nullptr ? v->row.get() : nullptr;
}

void VersionedStore::put(TKey key, Row row, BatchId batch) {
  access_delay();
  stats_.puts.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shard_for(key);
  RowPtr fresh = make_row(std::move(row));
  std::unique_lock lock(shard.mu);
  install(shard, key, std::move(fresh), batch);
}

void VersionedStore::install(Shard& shard, TKey key, RowPtr row,
                             BatchId batch) {
  Chain& chain = shard.map[key];
  PROG_CHECK_MSG(chain.versions.empty() || chain.versions.back().batch <= batch,
                 "store writes must carry monotonically increasing batches");
  if (shard.recording) {
    shard.max_batch = std::max(shard.max_batch, batch);
    const bool listed = !chain.versions.empty() &&
                        chain.versions.back().batch > shard.floor;
    if (!listed) {
      if (shard.written.size() < shard.map.size()) {
        shard.written.push_back(key);
      } else {  // a full rebuild is cheaper than a list this long
        shard.recording = false;
        std::vector<TKey>().swap(shard.written);
      }
    }
  }
  // The new version replaces the newest one in the latest-state hash.
  shard.latest_hash += row_term(key, row);
  if (!chain.versions.empty()) {
    Version& newest = chain.versions.back();
    shard.latest_hash -= row_term(key, newest.row);
    if (newest.batch == batch) {  // same-batch overwrite
      newest.row = std::move(row);
      return;
    }
  }
  chain.versions.push_back({batch, std::move(row)});
}

void VersionedStore::del(TKey key, BatchId batch) {
  access_delay();
  stats_.dels.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = shard_for(key);
  std::unique_lock lock(shard.mu);
  install(shard, key, nullptr, batch);
}

std::uint64_t VersionedStore::version_hash(TKey key, BatchId snapshot) const {
  const Shard& shard = shard_for(key);
  std::shared_lock lock(shard.mu);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) return 0;
  const Version* v = visible(it->second, snapshot);
  if (v == nullptr || v->row == nullptr) return 0;
  // Tag with the batch so an ABA rewrite of identical bytes still validates,
  // while distinct versions virtually never collide.
  return mix64(v->row->hash() ^ v->batch) | 1;
}

void VersionedStore::gc_before(BatchId watermark) {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      auto& versions = it->second.versions;
      // Keep the newest version with batch <= watermark plus all later ones.
      auto keep = std::find_if(
          versions.rbegin(), versions.rend(),
          [&](const Version& v) { return v.batch <= watermark; });
      if (keep != versions.rend()) {
        versions.erase(versions.begin(),
                       versions.begin() + (versions.rend() - keep - 1));
      }
      // Fully-dead key: single tombstone at or below the watermark.
      if (versions.size() == 1 && versions[0].row == nullptr &&
          versions[0].batch <= watermark) {
        it = shard.map.erase(it);
      } else {
        ++it;
      }
    }
  }
}

std::uint64_t VersionedStore::state_hash(BatchId snapshot) const {
  std::uint64_t acc = 0;  // commutative combine: sum mod 2^64
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    if (snapshot == kLatest) {
      acc += shard.latest_hash;
      continue;
    }
    for (const auto& [key, chain] : shard.map) {
      const Version* v = visible(chain, snapshot);
      if (v != nullptr) acc += row_term(key, v->row);
    }
  }
  return acc;
}

std::size_t VersionedStore::size(BatchId snapshot) const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [key, chain] : shard.map) {
      const Version* v = visible(chain, snapshot);
      if (v != nullptr && v->row != nullptr) ++n;
    }
  }
  return n;
}

void VersionedStore::clone_visible_into(VersionedStore& dst,
                                        BatchId snapshot) const {
  PROG_CHECK_MSG(dst.version_count() == 0,
                 "clone_visible_into requires an empty destination");
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [key, chain] : shard.map) {
      const Version* v = visible(chain, snapshot);
      if (v == nullptr || v->row == nullptr) continue;
      Shard& dshard = dst.shard_for(key);
      // Single-threaded bootstrap path: no dst locking contention expected,
      // but take the lock for interface consistency.
      std::unique_lock dlock(dshard.mu);
      install(dshard, key, v->row, 0);
    }
  }
}

bool VersionedStore::take_written_keys(std::vector<TKey>& out) {
  bool complete = true;
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mu);
    if (!shard.recording) {
      // max_batch is kept only while recording: find it once.
      complete = false;
      shard.recording = true;
      shard.max_batch = 0;
      for (const auto& [key, chain] : shard.map) {
        if (chain.versions.empty()) continue;
        shard.max_batch =
            std::max(shard.max_batch, chain.versions.back().batch);
      }
    }
    out.insert(out.end(), shard.written.begin(), shard.written.end());
    shard.written.clear();
    shard.floor = shard.max_batch;
  }
  return complete;
}

std::size_t VersionedStore::version_count() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [key, chain] : shard.map) n += chain.versions.size();
  }
  return n;
}

}  // namespace prog::store
