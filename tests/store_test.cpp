// Tests for the multi-versioned store.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"

namespace prog::store {
namespace {

// Test oracle for the incrementally maintained state hash: the commutative
// per-row sum recomputed from scratch over the visible rows.
std::uint64_t scan_hash(const VersionedStore& s,
                        BatchId snapshot = VersionedStore::kLatest) {
  std::uint64_t acc = 0;
  s.for_each_visible(snapshot, [&acc](TKey key, const Row& row) {
    const std::uint64_t k =
        mix64((static_cast<std::uint64_t>(key.table) << 48) ^ key.key);
    acc += mix64(k ^ row.hash());
  });
  return acc;
}

TEST(RowTest, SetGetMergeHash) {
  Row r;
  r.set(1, 10);
  r.set(2, 20);
  EXPECT_EQ(r.at(1), 10);
  EXPECT_EQ(r.get_or(3, -1), -1);
  EXPECT_THROW(r.at(3), UsageError);
  Row s;
  s.set(2, 99);
  s.set(4, 40);
  r.merge_from(s);
  EXPECT_EQ(r.at(2), 99);
  EXPECT_EQ(r.at(4), 40);
  EXPECT_EQ(r.field_count(), 3u);
}

TEST(RowTest, HashIsContentBased) {
  Row a{{1, 10}, {2, 20}};
  Row b;
  b.set(2, 20);
  b.set(1, 10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(1, 11);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(StoreTest, PutGetLatest) {
  VersionedStore s;
  s.put({1, 5}, Row{{0, 42}}, 1);
  const RowPtr r = s.get({1, 5});
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->at(0), 42);
  EXPECT_EQ(s.get({1, 6}), nullptr);
  EXPECT_EQ(s.get({2, 5}), nullptr);
}

TEST(StoreTest, SnapshotIsolation) {
  VersionedStore s;
  s.put({1, 5}, Row{{0, 1}}, 1);
  s.put({1, 5}, Row{{0, 2}}, 2);
  s.put({1, 5}, Row{{0, 3}}, 5);
  EXPECT_EQ(s.get({1, 5}, 0), nullptr);
  EXPECT_EQ(s.get({1, 5}, 1)->at(0), 1);
  EXPECT_EQ(s.get({1, 5}, 2)->at(0), 2);
  EXPECT_EQ(s.get({1, 5}, 4)->at(0), 2);  // between versions
  EXPECT_EQ(s.get({1, 5}, 5)->at(0), 3);
  EXPECT_EQ(s.get({1, 5})->at(0), 3);
}

TEST(StoreTest, SameBatchOverwrite) {
  VersionedStore s;
  s.put({1, 1}, Row{{0, 1}}, 3);
  s.put({1, 1}, Row{{0, 2}}, 3);
  EXPECT_EQ(s.get({1, 1}, 3)->at(0), 2);
  EXPECT_EQ(s.version_count(), 1u);
}

TEST(StoreTest, NonMonotonicBatchRejected) {
  VersionedStore s;
  s.put({1, 1}, Row{{0, 1}}, 5);
  EXPECT_THROW(s.put({1, 1}, Row{{0, 2}}, 4), InvariantError);
}

TEST(StoreTest, TombstonesHideRows) {
  VersionedStore s;
  s.put({1, 1}, Row{{0, 1}}, 1);
  s.del({1, 1}, 2);
  EXPECT_NE(s.get({1, 1}, 1), nullptr);
  EXPECT_EQ(s.get({1, 1}, 2), nullptr);
  EXPECT_EQ(s.get({1, 1}), nullptr);
  s.put({1, 1}, Row{{0, 9}}, 3);  // resurrection
  EXPECT_EQ(s.get({1, 1})->at(0), 9);
}

TEST(StoreTest, VersionHashDistinguishesVersions) {
  VersionedStore s;
  EXPECT_EQ(s.version_hash({1, 1}), 0u);
  s.put({1, 1}, Row{{0, 1}}, 1);
  const auto h1 = s.version_hash({1, 1});
  EXPECT_NE(h1, 0u);
  s.put({1, 1}, Row{{0, 2}}, 2);
  EXPECT_NE(s.version_hash({1, 1}), h1);
  EXPECT_EQ(s.version_hash({1, 1}, 1), h1);  // snapshot pinned
  s.del({1, 1}, 3);
  EXPECT_EQ(s.version_hash({1, 1}), 0u);
}

TEST(StoreTest, GcKeepsWatermarkVisibility) {
  VersionedStore s;
  for (BatchId b = 1; b <= 10; ++b) s.put({1, 1}, Row{{0, Value(b)}}, b);
  EXPECT_EQ(s.version_count(), 10u);
  s.gc_before(7);
  EXPECT_EQ(s.get({1, 1}, 7)->at(0), 7);
  EXPECT_EQ(s.get({1, 1}, 8)->at(0), 8);
  EXPECT_EQ(s.get({1, 1})->at(0), 10);
  EXPECT_EQ(s.version_count(), 4u);  // versions 7..10
}

TEST(StoreTest, GcDropsDeadTombstones) {
  VersionedStore s;
  s.put({1, 1}, Row{{0, 1}}, 1);
  s.del({1, 1}, 2);
  s.gc_before(5);
  EXPECT_EQ(s.version_count(), 0u);
  EXPECT_EQ(s.get({1, 1}), nullptr);
}

TEST(StoreTest, StateHashEqualIffStateEqual) {
  VersionedStore a, b;
  a.put({1, 1}, Row{{0, 1}}, 1);
  a.put({1, 2}, Row{{0, 2}}, 1);
  b.put({1, 2}, Row{{0, 2}}, 1);  // insertion order differs
  b.put({1, 1}, Row{{0, 1}}, 1);
  EXPECT_EQ(a.state_hash(), b.state_hash());
  b.put({1, 2}, Row{{0, 99}}, 2);
  EXPECT_NE(a.state_hash(), b.state_hash());
  EXPECT_EQ(a.state_hash(1), b.state_hash(1));
}

TEST(StoreTest, StateHashAtSnapshot) {
  VersionedStore s;
  s.put({1, 1}, Row{{0, 1}}, 1);
  const auto h1 = s.state_hash(1);
  s.put({1, 1}, Row{{0, 2}}, 2);
  EXPECT_EQ(s.state_hash(1), h1);
  EXPECT_NE(s.state_hash(2), h1);
}

TEST(StoreTest, SizeCountsLiveKeys) {
  VersionedStore s;
  s.put({1, 1}, Row{}, 1);
  s.put({1, 2}, Row{}, 1);
  s.put({2, 1}, Row{}, 1);
  EXPECT_EQ(s.size(), 3u);
  s.del({1, 2}, 2);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.size(1), 3u);
}

TEST(StoreTest, ViewsReadThroughCorrectSnapshot) {
  VersionedStore s;
  s.put({1, 1}, Row{{0, 1}}, 1);
  s.put({1, 1}, Row{{0, 2}}, 2);
  SnapshotView snap(s, 1);
  LiveView live(s);
  EXPECT_EQ(snap.get({1, 1})->at(0), 1);
  EXPECT_EQ(live.get({1, 1})->at(0), 2);
}

TEST(StoreTest, ConcurrentDisjointWritesAndReads) {
  VersionedStore s;
  constexpr int kThreads = 8;
  constexpr int kKeys = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int k = t; k < kKeys; k += kThreads) {
        s.put({1, static_cast<Key>(k)}, Row{{0, Value(k)}}, 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  threads.clear();
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int k = 0; k < kKeys; ++k) {
        const RowPtr r = s.get({1, static_cast<Key>(k)});
        if (r == nullptr || r->at(0) != k) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kKeys));
}

// Every path that changes a newest version keeps the per-shard hash in step:
// a seeded mix of puts, same-batch overwrites, deletes, delete-then-put,
// version GC, clones and image restores, checked against a full scan after
// every step.
TEST(StoreTest, IncrementalStateHashMatchesScan) {
  Rng rng(20240613);
  VersionedStore s(8);  // few shards: many keys share an accumulator
  BatchId batch = 1;
  const auto random_key = [&rng] {
    return TKey{static_cast<TableId>(rng.uniform(1, 3)),
                static_cast<Key>(rng.uniform(0, 47))};
  };
  const auto random_row = [&rng] {
    Row r;
    const auto fields = rng.uniform(0, 3);
    for (std::int64_t f = 0; f < fields; ++f) {
      r.set(static_cast<FieldId>(rng.uniform(0, 5)), rng.uniform(-9, 9));
    }
    return r;
  };
  for (int step = 0; step < 4000; ++step) {
    const auto op = rng.bounded(100);
    if (op < 40) {
      s.put(random_key(), random_row(), batch);  // may overwrite in-batch
    } else if (op < 60) {
      s.del(random_key(), batch);
    } else if (op < 70) {
      const TKey key = random_key();
      s.del(key, batch);
      s.put(key, random_row(), batch);
    } else if (op < 85) {
      ++batch;
    } else if (op < 92) {
      s.gc_before(batch - rng.bounded(std::min<BatchId>(batch, 4)));
    } else if (op < 96) {
      const BatchId at = rng.percent(50) ? VersionedStore::kLatest
                                         : batch - rng.bounded(batch);
      VersionedStore copy(5);
      s.clone_visible_into(copy, at);
      ASSERT_EQ(copy.state_hash(), scan_hash(copy)) << "step " << step;
      ASSERT_EQ(copy.state_hash(), scan_hash(s, at)) << "step " << step;
    } else {
      // Roll the store back to an earlier snapshot's image, written as the
      // current batch (restore_visible puts and tombstones in place).
      const BatchId at = batch - rng.bounded(batch);
      const std::string image = serialize_visible(s, at);
      ++batch;
      restore_visible(s, image, batch);
      ASSERT_EQ(s.state_hash(), image_state_hash(image)) << "step " << step;
    }
    ASSERT_EQ(s.state_hash(), scan_hash(s)) << "step " << step;
    ASSERT_EQ(s.state_hash(), s.state_hash(batch)) << "step " << step;
  }
}

// Workers write disjoint keys of one batch concurrently, as the engine's
// workers do; the shard sums must end where a from-scratch scan does.
TEST(StoreTest, ConcurrentDisjointWritesKeepStateHash) {
  VersionedStore s;
  constexpr int kThreads = 4;
  constexpr int kKeys = 4000;
  for (int k = 0; k < kKeys; ++k) {
    s.put({1, static_cast<Key>(k)}, Row{{0, Value(k)}}, 1);
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, t] {
      for (int k = t; k < kKeys; k += kThreads) {
        const TKey key{static_cast<TableId>(1 + k % 2), static_cast<Key>(k)};
        s.put(key, Row{{0, Value(k)}, {1, t}}, 2);
        if (k % 3 == 0) s.del(key, 2);
        if (k % 5 == 0) s.put(key, Row{{0, -Value(k)}}, 2);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(s.state_hash(), scan_hash(s));
  EXPECT_EQ(s.state_hash(1), scan_hash(s, 1));
}

// The same disjoint concurrent writers while the store records written keys
// for an image builder: each shard's list is appended under its lock, and
// the next image is a patch equal to the full serialization.
TEST(StoreTest, ConcurrentDisjointWritesWhileRecordingKeys) {
  VersionedStore s;
  constexpr int kThreads = 4;
  constexpr int kKeys = 4000;
  for (int k = 0; k < kKeys; ++k) {
    s.put({1, static_cast<Key>(k)}, Row{{0, Value(k)}}, 1);
  }
  StateImageBuilder builder;
  ASSERT_EQ(*builder.build(s), serialize_visible(s));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&s, t] {
      for (int k = t; k < kKeys; k += kThreads) {
        const TKey key{static_cast<TableId>(1 + k % 2), static_cast<Key>(k)};
        s.put(key, Row{{0, Value(k)}, {1, t}}, 2);
        if (k % 3 == 0) s.del(key, 2);
        if (k % 5 == 0) s.put(key, Row{{0, -Value(k)}}, 2);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(*builder.build(s), serialize_visible(s));
  EXPECT_EQ(builder.full_builds(), 1u);
}

TEST(StoreTest, StatsCount) {
  VersionedStore s;
  s.put({1, 1}, Row{}, 1);
  s.get({1, 1});
  s.get({1, 2});
  s.del({1, 1}, 2);
  EXPECT_EQ(s.stats().puts.load(), 1u);
  EXPECT_EQ(s.stats().gets.load(), 2u);
  EXPECT_EQ(s.stats().dels.load(), 1u);
}

}  // namespace
}  // namespace prog::store
