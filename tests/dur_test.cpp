// Durability subsystem unit suite: CRC32C vectors, the fault-injecting VFS
// power-fail model, WAL framing + recovery-scan repair (torn tails vs
// quarantined corruption), checkpoint-file round-trips (engine stats
// included), the golden-file lock on the v1 on-disk format, and the
// DurableReplicaStorage write/recover cycle with retention pruning.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "dur/checkpoint_file.hpp"
#include "dur/crc32c.hpp"
#include "dur/fault_vfs.hpp"
#include "dur/storage.hpp"
#include "dur/wal.hpp"

namespace prog::dur {
namespace {

// --- crc32c ------------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // RFC 3720 / Castagnoli reference vectors.
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
}

// Bit-at-a-time CRC32C: the definition the table-driven version must match.
std::uint32_t crc32c_bitwise(std::string_view data) {
  std::uint32_t crc = ~0u;
  for (const char c : data) {
    crc ^= static_cast<std::uint8_t>(c);
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32cTest, KnownAnswerAtEveryAlignment) {
  // The eight-byte loop sees the check string at every start offset and
  // with every split between its word loop and its byte tail.
  std::string buf(32, '#');
  for (std::size_t off = 0; off < 16; ++off) {
    buf.replace(off, 9, "123456789");
    EXPECT_EQ(crc32c(std::string_view(buf).substr(off, 9)), 0xE3069283u)
        << "offset " << off;
  }
}

TEST(Crc32cTest, MatchesBytewiseReferenceOnRandomInput) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::string buf(128, '\0');
  for (char& c : buf) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    c = static_cast<char>(x >> 56);
  }
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::string_view piece = std::string_view(buf).substr(off, len);
      ASSERT_EQ(crc32c(piece), crc32c_bitwise(piece))
          << "offset " << off << " length " << len;
    }
  }
  // Chaining across a split inside a word gives the whole-buffer value.
  const std::string_view all(buf);
  EXPECT_EQ(crc32c(all.substr(13), crc32c(all.substr(0, 13))),
            crc32c_bitwise(all));
}

TEST(Crc32cTest, SeedChaining) {
  const std::string all = "hello, durable world";
  const std::uint32_t whole = crc32c(all);
  const std::uint32_t chained =
      crc32c(all.substr(7), crc32c(all.substr(0, 7)));
  EXPECT_EQ(whole, chained);
}

// --- FaultVfs power-fail model -----------------------------------------------

TEST(FaultVfsTest, SyncedBytesSurvivePowerFailUnsyncedDoNot) {
  FaultVfs vfs(1);
  {
    auto f = vfs.open_append("d/a");
    f->append("durable");
    f->sync();
    f->append("volatile");
  }
  EXPECT_EQ(vfs.read_all("d/a"), "durablevolatile");  // process view
  vfs.power_fail("d/");
  EXPECT_EQ(vfs.read_all("d/a"), "durable");  // platter view
}

TEST(FaultVfsTest, FilesCreatedAfterFreezeNeverExistedOnThePlatter) {
  FaultVfs vfs(2);
  auto f = vfs.open_append("d/a");
  f->append("x");
  f->sync();
  vfs.arm("d/", {FaultMode::kNone, 1});
  f->append("y");  // 1st counted syscall: the moment of death
  EXPECT_TRUE(vfs.crash_triggered());
  auto g = vfs.open_append("d/b");  // created by a process already dead
  g->append("ghost");
  g->sync();  // appears to succeed, but nothing is durable anymore
  vfs.power_fail("d/");
  EXPECT_TRUE(vfs.exists("d/a"));
  EXPECT_EQ(vfs.read_all("d/a"), "x");  // the unsynced "y" died with it
  EXPECT_FALSE(vfs.exists("d/b"));
}

TEST(FaultVfsTest, TornTailKeepsAPrefixOfTheUnsyncedTail) {
  FaultVfs vfs(3);
  {
    auto f = vfs.open_append("d/a");
    f->append("SYNCED");
    f->sync();
    f->append("TAILTAILTAIL");
  }
  vfs.arm("d/", {FaultMode::kTornTail, 0});
  vfs.power_fail("d/");
  const std::string after = vfs.read_all("d/a");
  ASSERT_GE(after.size(), 6u);
  EXPECT_EQ(after.substr(0, 6), "SYNCED");
  EXPECT_LE(after.size(), 18u);
  // Whatever survived of the tail is a byte prefix, never a rearrangement.
  EXPECT_EQ(after, std::string("SYNCEDTAILTAILTAIL").substr(0, after.size()));
}

TEST(FaultVfsTest, FsyncNoopLosesAcknowledgedWrites) {
  FaultVfs vfs(4);
  auto f = vfs.open_append("d/a");
  f->append("early");
  f->sync();
  vfs.arm("d/", {FaultMode::kFsyncNoop, 0});
  f->append("lied-about");
  f->sync();  // acknowledged, not persisted
  vfs.power_fail("d/");
  EXPECT_EQ(vfs.read_all("d/a"), "early");
}

TEST(FaultVfsTest, DeterministicAcrossIdenticalSeeds) {
  auto run = [](std::uint64_t seed) {
    FaultVfs vfs(seed);
    auto f = vfs.open_append("d/a");
    f->append("base");
    f->sync();
    f->append("0123456789abcdef");
    vfs.arm("d/", {FaultMode::kTornTail, 0});
    vfs.power_fail("d/");
    return vfs.read_all("d/a");
  };
  EXPECT_EQ(run(99), run(99));
}

// --- WAL ---------------------------------------------------------------------

WalRecord sample_record(std::uint64_t seq) {
  WalRecord rec;
  rec.seq = seq;
  rec.term = 3;
  rec.command = seq - 1;
  rec.state_hash = 0xFEEDC0DEu + seq;
  sched::TxRequest a;
  a.proc = 2;
  a.tag = 77;
  a.input.add(-5);
  a.input.add(123456789);
  sched::TxRequest b;
  b.proc = 0;
  b.tag = 0;
  b.input.add_array({1, 2, 3, -4});
  b.input.add(9);
  rec.batch = {std::move(a), std::move(b)};
  return rec;
}

TEST(WalTest, PayloadRoundTripPreservesRequests) {
  const WalRecord rec = sample_record(7);
  const WalRecord back = decode_wal_payload(encode_wal_payload(rec));
  EXPECT_EQ(back.seq, rec.seq);
  EXPECT_EQ(back.term, rec.term);
  EXPECT_EQ(back.command, rec.command);
  EXPECT_EQ(back.state_hash, rec.state_hash);
  ASSERT_EQ(back.batch.size(), 2u);
  EXPECT_EQ(back.batch[0].proc, 2u);
  EXPECT_EQ(back.batch[0].tag, 77u);
  ASSERT_EQ(back.batch[0].input.args.size(), 2u);
  EXPECT_EQ(back.batch[0].input.args[0].scalar, -5);
  ASSERT_TRUE(back.batch[1].input.args[0].is_array);
  EXPECT_EQ(back.batch[1].input.args[0].array,
            (std::vector<Value>{1, 2, 3, -4}));
}

TEST(WalTest, ScanRecoversCleanRecords) {
  FaultVfs vfs(10);
  WalWriter w(vfs, "d/wal");
  for (std::uint64_t s = 1; s <= 5; ++s) w.append(sample_record(s));
  w.sync();
  WalScanStats st;
  const auto recs = scan_wal(vfs, "d/wal", "d/q", &st);
  ASSERT_EQ(recs.size(), 5u);
  EXPECT_EQ(recs[0].seq, 1u);
  EXPECT_EQ(recs[4].seq, 5u);
  EXPECT_EQ(st.torn_tail_truncated, 0u);
  EXPECT_EQ(st.records_quarantined, 0u);
  EXPECT_FALSE(vfs.exists("d/q"));
}

TEST(WalTest, TornTailIsTruncatedNotQuarantined) {
  FaultVfs vfs(11);
  WalWriter w(vfs, "d/wal");
  for (std::uint64_t s = 1; s <= 3; ++s) w.append(sample_record(s));
  w.sync();
  // Simulate a frame cut off mid-payload by a power failure.
  const std::uint64_t clean = vfs.read_all("d/wal").size();
  w.append(sample_record(4));
  vfs.truncate("d/wal", clean + 20);  // header + a sliver of payload
  WalScanStats st;
  const auto recs = scan_wal(vfs, "d/wal", "d/q", &st);
  EXPECT_EQ(recs.size(), 3u);
  EXPECT_EQ(st.torn_tail_truncated, 1u);
  EXPECT_EQ(st.records_quarantined, 0u);
  EXPECT_EQ(vfs.read_all("d/wal").size(), clean);  // repaired in place
  EXPECT_FALSE(vfs.exists("d/q"));                 // a torn tail is not forensic
}

TEST(WalTest, CorruptRecordIsQuarantinedAndSuffixDropped) {
  FaultVfs vfs(12);
  WalWriter w(vfs, "d/wal");
  std::uint64_t off_record2 = 0;
  for (std::uint64_t s = 1; s <= 4; ++s) {
    if (s == 2) off_record2 = vfs.read_all("d/wal").size();
    w.append(sample_record(s));
  }
  w.sync();
  // Flip one payload bit inside record 2: its CRC must fail, and records 3-4
  // (bytes after the corruption) are untrusted.
  vfs.corrupt("d/wal", off_record2 + 16, 0x10);
  WalScanStats st;
  const auto recs = scan_wal(vfs, "d/wal", "d/q", &st);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].seq, 1u);
  EXPECT_EQ(st.records_quarantined, 1u);
  EXPECT_EQ(st.torn_tail_truncated, 0u);
  EXPECT_TRUE(vfs.exists("d/q"));  // the bad suffix is kept for forensics
  EXPECT_EQ(vfs.read_all("d/wal").size(), off_record2);
  // A second scan of the repaired file is clean and idempotent.
  WalScanStats st2;
  EXPECT_EQ(scan_wal(vfs, "d/wal", "d/q2", &st2).size(), 1u);
  EXPECT_EQ(st2.records_quarantined, 0u);
}

// --- checkpoint files --------------------------------------------------------

CheckpointImage sample_checkpoint() {
  CheckpointImage cp;
  cp.seq = 12;
  cp.term = 4;
  cp.state_hash = 0xABCDEF0123456789ull;
  cp.command_prefix = {0, 1, 2, 5, 6, 7, 8, 9, 10, 11, 12, 13};
  cp.engine_stats.batches = 12;
  cp.engine_stats.committed = 96;
  cp.engine_stats.rolled_back = 3;
  cp.engine_stats.validation_aborts = 2;
  cp.engine_stats.rounds = 14;
  cp.engine_stats.mf_fallback_txns = 1;
  cp.engine_stats.mf_fallback_batches = 1;
  for (std::size_t c = 0; c < 3; ++c) {
    cp.engine_stats.committed_by_class[c] = 30 + c;
    cp.engine_stats.rolled_back_by_class[c] = c;
    cp.engine_stats.validation_aborts_by_class[c] = 2 - c;
  }
  cp.image = std::make_shared<const std::string>(
      "state v1 1 42\nr 1 0 7 1 0=42\nend\n");
  return cp;
}

TEST(CheckpointFileTest, RoundTripIncludingEngineStats) {
  const CheckpointImage cp = sample_checkpoint();
  const CheckpointImage back = decode_checkpoint(encode_checkpoint(cp));
  EXPECT_EQ(back.seq, cp.seq);
  EXPECT_EQ(back.term, cp.term);
  EXPECT_EQ(back.state_hash, cp.state_hash);
  EXPECT_EQ(back.command_prefix, cp.command_prefix);
  EXPECT_EQ(*back.image, *cp.image);
  // Every one of the 16 deterministic engine counters survives.
  EXPECT_EQ(back.engine_stats.batches, cp.engine_stats.batches);
  EXPECT_EQ(back.engine_stats.committed, cp.engine_stats.committed);
  EXPECT_EQ(back.engine_stats.rolled_back, cp.engine_stats.rolled_back);
  EXPECT_EQ(back.engine_stats.validation_aborts,
            cp.engine_stats.validation_aborts);
  EXPECT_EQ(back.engine_stats.rounds, cp.engine_stats.rounds);
  EXPECT_EQ(back.engine_stats.mf_fallback_txns,
            cp.engine_stats.mf_fallback_txns);
  EXPECT_EQ(back.engine_stats.mf_fallback_batches,
            cp.engine_stats.mf_fallback_batches);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_EQ(back.engine_stats.committed_by_class[c],
              cp.engine_stats.committed_by_class[c]);
    EXPECT_EQ(back.engine_stats.rolled_back_by_class[c],
              cp.engine_stats.rolled_back_by_class[c]);
    EXPECT_EQ(back.engine_stats.validation_aborts_by_class[c],
              cp.engine_stats.validation_aborts_by_class[c]);
  }
}

TEST(CheckpointFileTest, AnySingleBitFlipFailsTheCrc) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  // Sample a spread of positions (exhaustive is slow under sanitizers).
  for (std::size_t pos = 0; pos + 13 < bytes.size();
       pos += 1 + bytes.size() / 23) {
    std::string bad = bytes;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x04);
    EXPECT_THROW(decode_checkpoint(bad), IoError) << "at byte " << pos;
  }
}

TEST(CheckpointFileTest, TruncatedFileIsRejected) {
  const std::string bytes = encode_checkpoint(sample_checkpoint());
  EXPECT_THROW(decode_checkpoint(bytes.substr(0, bytes.size() - 1)), IoError);
  EXPECT_THROW(decode_checkpoint(bytes.substr(0, 10)), IoError);
  EXPECT_THROW(decode_checkpoint(""), IoError);
}

TEST(CheckpointFileTest, GoldenV1FileDecodesExactly) {
  // The checked-in golden locks the v1 on-disk format: field order, the
  // 16-counter stats line, the image framing, the CRC footer. Breaking this
  // test means a format bump (progckpt v2 + migration), not a golden update.
  std::ifstream in(std::string(PROG_GOLDEN_DIR) + "/checkpoint_v1.ckpt",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "tests/golden/checkpoint_v1.ckpt missing";
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  const CheckpointImage cp = decode_checkpoint(bytes);
  EXPECT_EQ(cp.seq, 12u);
  EXPECT_EQ(cp.term, 4u);
  EXPECT_EQ(cp.state_hash, 0xABCDEF0123456789ull);
  ASSERT_EQ(cp.command_prefix.size(), 12u);
  EXPECT_EQ(cp.command_prefix.front(), 0u);
  EXPECT_EQ(cp.command_prefix[3], 5u);
  EXPECT_EQ(cp.engine_stats.batches, 12u);
  EXPECT_EQ(cp.engine_stats.committed, 96u);
  EXPECT_EQ(cp.engine_stats.validation_aborts_by_class[0], 2u);
  EXPECT_EQ(*cp.image, "state v1 1 42\nr 1 0 7 1 0=42\nend\n");
  // And the current encoder still produces byte-identical v1 output.
  EXPECT_EQ(encode_checkpoint(cp), bytes);
}

TEST(CheckpointFileTest, AtomicPublishLeavesNoTmpBehind) {
  FaultVfs vfs(20);
  const CheckpointImage cp = sample_checkpoint();
  write_checkpoint_file(vfs, "d", "d/ckpt-1", cp);
  EXPECT_TRUE(vfs.exists("d/ckpt-1"));
  EXPECT_FALSE(vfs.exists("d/ckpt-1.tmp"));
  EXPECT_EQ(decode_checkpoint(vfs.read_all("d/ckpt-1")).seq, cp.seq);
}

// --- PosixVfs smoke test -----------------------------------------------------

TEST(PosixVfsTest, AppendSyncListRenameRoundTrip) {
  PosixVfs vfs;
  const std::string dir =
      ::testing::TempDir() + "prog_dur_posix_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  vfs.mkdirs(dir);
  {
    auto f = vfs.open_append(dir + "/a.tmp");
    f->append("hello ");
    f->append("disk");
    f->sync();
    EXPECT_EQ(f->size(), 10u);
  }
  vfs.rename(dir + "/a.tmp", dir + "/a");
  vfs.sync_dir(dir);
  EXPECT_TRUE(vfs.exists(dir + "/a"));
  EXPECT_FALSE(vfs.exists(dir + "/a.tmp"));
  EXPECT_EQ(vfs.read_all(dir + "/a"), "hello disk");
  const auto names = vfs.list(dir);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "a");
  vfs.truncate(dir + "/a", 5);
  EXPECT_EQ(vfs.read_all(dir + "/a"), "hello");
  vfs.remove(dir + "/a");
  EXPECT_FALSE(vfs.exists(dir + "/a"));
}

// --- DurableReplicaStorage ---------------------------------------------------

CheckpointImage storage_checkpoint(std::uint64_t seq) {
  CheckpointImage cp;
  cp.seq = seq;
  cp.term = 1;
  cp.state_hash = 1000 + seq;
  for (std::uint64_t c = 0; c < seq; ++c) cp.command_prefix.push_back(c);
  cp.image = std::make_shared<const std::string>("img@" + std::to_string(seq));
  return cp;
}

TEST(StorageTest, WriteRecoverRoundTrip) {
  FaultVfs vfs(30);
  {
    DurableReplicaStorage st(vfs, "r0");
    st.persist_meta(5, 2);
    for (std::uint64_t s = 1; s <= 3; ++s) st.append_batch(sample_record(s));
    st.persist_checkpoint(storage_checkpoint(3));
    for (std::uint64_t s = 4; s <= 5; ++s) st.append_batch(sample_record(s));
  }
  DurableReplicaStorage st2(vfs, "r0");
  const auto rec = st2.recover();
  EXPECT_TRUE(rec.meta_ok);
  EXPECT_EQ(rec.term, 5u);
  EXPECT_EQ(rec.voted_for, 2);
  ASSERT_NE(rec.newest_checkpoint(), nullptr);
  EXPECT_EQ(rec.newest_checkpoint()->seq, 3u);
  ASSERT_EQ(rec.wal.size(), 2u);  // the contiguous suffix above the checkpoint
  EXPECT_EQ(rec.wal[0].seq, 4u);
  EXPECT_EQ(rec.wal[1].seq, 5u);
  // recover() leaves the tail open: appends continue the chain.
  st2.append_batch(sample_record(6));
  const auto rec2 = DurableReplicaStorage(vfs, "r0").recover();
  ASSERT_EQ(rec2.wal.size(), 3u);
  EXPECT_EQ(rec2.wal.back().seq, 6u);
}

TEST(StorageTest, RetentionKeepsSlotsAndCoveringSegments) {
  FaultVfs vfs(31);
  DurableReplicaStorage st(vfs, "r0");
  std::uint64_t s = 1;
  for (std::uint64_t ck = 2; ck <= 8; ck += 2) {
    for (; s <= ck; ++s) st.append_batch(sample_record(s));
    st.persist_checkpoint(storage_checkpoint(ck));
  }
  const auto rec = DurableReplicaStorage(vfs, "r0").recover();
  // Dual-slot retention: exactly the two newest checkpoints survive.
  ASSERT_EQ(rec.checkpoints.size(), 2u);
  EXPECT_EQ(rec.checkpoints[0].seq, 6u);
  EXPECT_EQ(rec.checkpoints[1].seq, 8u);
  // Every surviving WAL segment must be above the oldest kept slot: no dead
  // segment below seq 6 (pruned), and the chain from 6 on is intact.
  for (const std::string& name : vfs.list("r0")) {
    if (name.rfind("wal-", 0) == 0) {
      EXPECT_GE(std::stoull(name.substr(4, 16), nullptr, 16), 4u) << name;
    }
  }
}

TEST(StorageTest, MetaCorruptionFallsBackToDefaults) {
  FaultVfs vfs(32);
  {
    DurableReplicaStorage st(vfs, "r0");
    st.persist_meta(9, 1);
  }
  vfs.corrupt("r0/meta", 3, 0x20);
  const auto rec = DurableReplicaStorage(vfs, "r0").recover();
  EXPECT_FALSE(rec.meta_ok);
  EXPECT_EQ(rec.term, 0u);
  EXPECT_EQ(rec.voted_for, -1);
}

TEST(StorageTest, CorruptNewestCheckpointFallsBackToOlderSlot) {
  FaultVfs vfs(33);
  {
    DurableReplicaStorage st(vfs, "r0");
    for (std::uint64_t s = 1; s <= 2; ++s) st.append_batch(sample_record(s));
    st.persist_checkpoint(storage_checkpoint(2));
    for (std::uint64_t s = 3; s <= 4; ++s) st.append_batch(sample_record(s));
    st.persist_checkpoint(storage_checkpoint(4));
  }
  // Rot a byte in the newest slot: CRC must reject it, recovery lands on
  // the older slot — the reason the default retention keeps two.
  for (const std::string& name : vfs.list("r0")) {
    if (name.rfind("ckpt-0000000000000004-", 0) == 0) {
      vfs.corrupt("r0/" + name, 20, 0x08);
    }
  }
  const auto rec = DurableReplicaStorage(vfs, "r0").recover();
  ASSERT_NE(rec.newest_checkpoint(), nullptr);
  EXPECT_EQ(rec.newest_checkpoint()->seq, 2u);
}

}  // namespace
}  // namespace prog::dur
