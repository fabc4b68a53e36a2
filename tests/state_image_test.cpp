// Canonical state-image tests: serialize_visible / restore_visible are the
// foundation of replica checkpoints, so the properties the recovery layer
// leans on are pinned here: canonical bytes (identical images regardless of
// write order or dead versions), hash round-trips, and reconciling restores
// (stale rows overwritten, extra rows tombstoned). StateImageBuilder's
// incremental images are checked byte for byte against serialize_visible.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"

namespace prog::store {
namespace {

constexpr TableId kA = 1;
constexpr TableId kB = 2;
constexpr FieldId kF = 0;
constexpr FieldId kG = 1;

TEST(StateImageTest, RoundTripsIntoEmptyStore) {
  VersionedStore src;
  src.put({kA, 1}, Row{{kF, 10}, {kG, 20}}, 0);
  src.put({kA, 2}, Row{{kF, -5}}, 1);
  src.put({kB, 7}, Row{{kF, 42}}, 2);

  const std::string image = serialize_visible(src);
  EXPECT_EQ(image_state_hash(image), src.state_hash());

  VersionedStore dst;
  restore_visible(dst, image, 0);
  EXPECT_EQ(dst.state_hash(), src.state_hash());
  ASSERT_NE(dst.get({kA, 1}), nullptr);
  EXPECT_EQ(dst.get({kA, 1})->at(kG), 20);
  EXPECT_EQ(dst.get({kB, 7})->at(kF), 42);
}

TEST(StateImageTest, CanonicalBytesIgnoreWriteOrderAndDeadVersions) {
  VersionedStore a;
  a.put({kA, 1}, Row{{kF, 1}}, 0);
  a.put({kA, 2}, Row{{kF, 2}}, 0);
  a.put({kA, 1}, Row{{kF, 9}}, 1);  // overwrites; old version is dead

  VersionedStore b;
  b.put({kA, 2}, Row{{kF, 2}}, 0);  // different write order, same visible state
  b.put({kA, 1}, Row{{kF, 9}}, 0);

  EXPECT_EQ(serialize_visible(a), serialize_visible(b));
}

TEST(StateImageTest, TombstonesAreInvisibleInImages) {
  VersionedStore src;
  src.put({kA, 1}, Row{{kF, 1}}, 0);
  src.put({kA, 2}, Row{{kF, 2}}, 0);
  src.del({kA, 2}, 1);

  VersionedStore dst;
  restore_visible(dst, serialize_visible(src), 0);
  EXPECT_EQ(dst.get({kA, 2}), nullptr);
  EXPECT_EQ(dst.state_hash(), src.state_hash());
}

TEST(StateImageTest, RestoreReconcilesDivergedState) {
  VersionedStore truth;
  truth.put({kA, 1}, Row{{kF, 10}}, 0);
  truth.put({kA, 2}, Row{{kF, 20}}, 0);
  const std::string image = serialize_visible(truth);

  // A diverged replica: one stale row, one corrupt row, one extra row.
  VersionedStore bad;
  bad.put({kA, 1}, Row{{kF, 10}}, 0);   // matches (left untouched)
  bad.put({kA, 2}, Row{{kF, 999}}, 1);  // corrupt (overwritten)
  bad.put({kB, 3}, Row{{kF, 7}}, 2);    // extra (tombstoned)

  restore_visible(bad, image, 3);
  EXPECT_EQ(bad.state_hash(), truth.state_hash());
  EXPECT_EQ(bad.get({kA, 2})->at(kF), 20);
  EXPECT_EQ(bad.get({kB, 3}), nullptr);
}

TEST(StateImageTest, SnapshotSelectsHistoricalState) {
  VersionedStore src;
  src.put({kA, 1}, Row{{kF, 1}}, 1);
  src.put({kA, 1}, Row{{kF, 2}}, 2);

  const std::string at1 = serialize_visible(src, 1);
  const std::string at2 = serialize_visible(src, 2);
  EXPECT_NE(at1, at2);

  VersionedStore dst;
  restore_visible(dst, at1, 0);
  EXPECT_EQ(dst.get({kA, 1})->at(kF), 1);
}

// The image bytes are a wire and on-disk format (checkpoint files,
// InstallSnapshot payloads), so they are frozen here byte for byte:
// multi-field rows, an empty row, a tombstone, several tables, extreme keys
// and values, and a historical snapshot next to the latest one.
TEST(StateImageTest, GoldenBytesAreFrozen) {
  constexpr TableId kC = 3;
  VersionedStore s;
  s.put({kA, 1}, Row{{kF, 10}, {kG, -20}, {7, 0}}, 0);
  s.put({kA, 2}, Row{{kF, std::numeric_limits<Value>::min()}}, 0);
  s.put({kA, 3}, Row{}, 0);
  s.put({kB, std::numeric_limits<Key>::max()},
        Row{{65535, std::numeric_limits<Value>::max()}}, 0);
  s.put({kC, 0}, Row{{kG, 5}}, 0);
  s.put({kA, 1}, Row{{kF, 11}, {kG, -20}, {7, 0}}, 1);
  s.del({kA, 2}, 1);
  s.put({kB, 9}, Row{{kG, 1}, {kF, 123456789012}}, 2);

  EXPECT_EQ(serialize_visible(s, 0),
            "state v1 5 4916119848360442935\n"
            "r 1 1 3 0 10 1 -20 7 0\n"
            "r 1 2 1 0 -9223372036854775808\n"
            "r 1 3 0\n"
            "r 2 18446744073709551615 1 65535 9223372036854775807\n"
            "r 3 0 1 1 5\n"
            "end\n");
  EXPECT_EQ(serialize_visible(s),
            "state v1 5 11511004959255478741\n"
            "r 1 1 3 0 11 1 -20 7 0\n"
            "r 1 3 0\n"
            "r 2 9 2 0 123456789012 1 1\n"
            "r 2 18446744073709551615 1 65535 9223372036854775807\n"
            "r 3 0 1 1 5\n"
            "end\n");
}

TEST(StateImageTest, EmptyStoreRoundTrips) {
  VersionedStore src;
  VersionedStore dst;
  dst.put({kA, 5}, Row{{kF, 3}}, 0);  // must be tombstoned by the restore
  restore_visible(dst, serialize_visible(src), 1);
  EXPECT_EQ(dst.get({kA, 5}), nullptr);
  EXPECT_EQ(dst.state_hash(), src.state_hash());
}

// Every write path the store has, in a seeded mix, with an incremental image
// every `every` steps that must equal the full serialization byte for byte.
// A second builder follows clones into a fresh store (clone_visible_into
// writes through the same install path).
TEST(StateImageTest, IncrementalImageMatchesFullSerialize) {
  for (const int every : {1, 3, 17}) {
    Rng rng(7000 + every);
    VersionedStore s(8);  // few shards: several dirty keys per shard
    StateImageBuilder builder;
    BatchId batch = 1;
    const auto random_key = [&rng] {
      return TKey{static_cast<TableId>(rng.uniform(1, 3)),
                  static_cast<Key>(rng.uniform(0, 63))};
    };
    const auto random_row = [&rng] {
      Row r;
      const auto fields = rng.uniform(0, 3);
      for (std::int64_t f = 0; f < fields; ++f) {
        r.set(static_cast<FieldId>(rng.uniform(0, 5)), rng.uniform(-99, 99));
      }
      return r;
    };
    for (int k = 0; k < 100; ++k) s.put(random_key(), random_row(), 0);
    int images = 0;
    for (int step = 0; step < 3000; ++step) {
      const auto op = rng.bounded(100);
      if (op < 40) {
        s.put(random_key(), random_row(), batch);  // may overwrite in-batch
      } else if (op < 55) {
        s.del(random_key(), batch);
      } else if (op < 63) {
        const TKey key = random_key();
        s.del(key, batch);
        s.put(key, random_row(), batch);
      } else if (op < 83) {
        ++batch;
      } else if (op < 93) {
        // Erases tombstone-only chains at or below the watermark.
        s.gc_before(batch - rng.bounded(std::min<BatchId>(batch, 3)));
      } else if (op < 96) {
        const BatchId at = batch - rng.bounded(batch);
        const std::string image = serialize_visible(s, at);
        ++batch;
        restore_visible(s, image, batch);
      } else {
        VersionedStore copy(5);
        StateImageBuilder copy_builder;
        ASSERT_EQ(*copy_builder.build(copy), serialize_visible(copy));
        s.clone_visible_into(copy, batch - rng.bounded(batch));
        ASSERT_EQ(*copy_builder.build(copy), serialize_visible(copy))
            << "step " << step;
        EXPECT_EQ(copy_builder.full_builds(), 1u);
      }
      if (step % every == 0) {
        ASSERT_EQ(*builder.build(s), serialize_visible(s))
            << "every " << every << " step " << step;
        ++images;
      }
    }
    // The images were patches, not full rebuilds in disguise.
    EXPECT_LT(builder.full_builds(), static_cast<std::uint64_t>(images / 4))
        << "every " << every;
  }
}

TEST(StateImageTest, BuilderStartsOverAfterResetOrOnAnotherStore) {
  VersionedStore a(4);
  VersionedStore b(4);
  a.put({kA, 1}, Row{{kF, 1}}, 0);
  b.put({kB, 2}, Row{{kF, 2}}, 0);
  StateImageBuilder builder;
  EXPECT_EQ(*builder.build(a), serialize_visible(a));
  a.put({kA, 3}, Row{{kF, 3}}, 1);
  EXPECT_EQ(*builder.build(a), serialize_visible(a));
  EXPECT_EQ(builder.full_builds(), 1u);
  EXPECT_EQ(*builder.build(b), serialize_visible(b));  // not a's patch
  EXPECT_EQ(builder.full_builds(), 2u);
  builder.reset();
  b.put({kB, 2}, Row{{kG, 5}}, 1);
  EXPECT_EQ(*builder.build(b), serialize_visible(b));
  EXPECT_EQ(builder.full_builds(), 3u);
}

// A store that keeps writing without images stops recording once a shard's
// list would outgrow the shard, and the next image is rebuilt in full.
TEST(StateImageTest, WrittenKeyOverflowFallsBackToFullRebuild) {
  VersionedStore s(1);  // one shard: its bound is the store's key count
  for (Key k = 0; k < 4; ++k) s.put({kA, k}, Row{{kF, Value(k)}}, 0);
  StateImageBuilder builder;
  ASSERT_EQ(*builder.build(s), serialize_visible(s));

  // Each insert is listed once; deleting it and erasing its chain keeps the
  // shard at four keys, so the list overflows after a few rounds.
  BatchId batch = 1;
  for (Key k = 100; k < 110; ++k) {
    s.put({kB, k}, Row{{kF, 1}}, batch++);
    s.del({kB, k}, batch++);
    s.gc_before(batch);
  }
  s.put({kA, 2}, Row{{kG, 9}}, batch);
  EXPECT_EQ(*builder.build(s), serialize_visible(s));
  EXPECT_EQ(builder.full_builds(), 2u);

  // The rebuild re-armed recording: the next image is a patch again.
  s.put({kA, 7}, Row{{kF, 7}}, ++batch);
  s.del({kA, 0}, batch);
  EXPECT_EQ(*builder.build(s), serialize_visible(s));
  EXPECT_EQ(builder.full_builds(), 2u);
}

}  // namespace
}  // namespace prog::store
