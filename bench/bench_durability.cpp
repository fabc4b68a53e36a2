// Durability bench: the write path and the recovery path of the durable
// replica storage.
//
// Three tables:
//   1. WAL group commit — append+fsync throughput per batch size, on the
//      real file system (PosixVfs, a temp directory) and on the in-memory
//      FaultVfs (the simulator's disk, i.e. the cost ceiling the fuzzing
//      layer pays);
//   2. checkpoint publish — encode + atomic write (tmp + fsync + rename +
//      dir fsync) latency across image sizes;
//   3. crash-recovery fuzz cells — one seeded end-to-end scenario per fault
//      mode, reporting which recovery paths fired and the wall cost of the
//      whole scenario. Every row reproduces from the printed seed.
//
//   PROG_BENCH_FAST=1  — fewer records / smaller images (CI smoke).
//   --out <path>       — also write a BENCH_durability.json result: the WAL
//                        and checkpoint throughput cases, gate field
//                        "throughput" (records/s for WAL rows, MB/s for
//                        checkpoint rows), higher is better. CI soft-gates it
//                        against the checked-in baseline via
//                        tools/perf_gate.py with loose thresholds (absolute
//                        I/O throughput is host-dependent). Only the cases
//                        present in every mode are emitted, so a fast-mode
//                        run gates cleanly against a full-mode baseline.
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "benchutil/harness.hpp"
#include "benchutil/table.hpp"
#include "consensus/recovery_fuzz.hpp"
#include "dur/fault_vfs.hpp"
#include "dur/storage.hpp"
#include "lang/builder.hpp"

using namespace prog;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

dur::WalRecord make_record(std::uint64_t seq, std::size_t batch_size) {
  dur::WalRecord rec;
  rec.seq = seq;
  rec.term = 1;
  rec.command = seq - 1;
  rec.state_hash = seq * 0x9E3779B97F4A7C15ull;
  rec.batch.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    sched::TxRequest r;
    r.proc = static_cast<std::uint32_t>(i % 7);
    r.tag = seq * 1000 + i;
    r.input.add(static_cast<Value>(i * 31));
    r.input.add(static_cast<Value>(i));
    rec.batch.push_back(std::move(r));
  }
  return rec;
}

struct WalRow {
  double recs_per_s = 0;
  double mb_per_s = 0;
};

WalRow wal_throughput(dur::Vfs& vfs, const std::string& dir,
                      std::size_t batch_size, std::uint64_t records) {
  dur::StorageOptions opts;
  dur::DurableReplicaStorage st(vfs, dir, opts);
  std::uint64_t bytes = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t s = 1; s <= records; ++s) {
    const dur::WalRecord rec = make_record(s, batch_size);
    bytes += dur::frame_wal_record(dur::encode_wal_payload(rec)).size();
    st.append_batch(rec);
  }
  const double ms = ms_since(t0);
  WalRow row;
  row.recs_per_s = ms > 0 ? records / ms * 1000.0 : 0;
  row.mb_per_s = ms > 0 ? bytes / ms / 1048.576 : 0;
  return row;
}

std::string posix_scratch_dir() {
  return "/tmp/prog_bench_dur_" + std::to_string(::getpid());
}

void posix_cleanup(dur::PosixVfs& vfs, const std::string& root) {
  if (!vfs.exists(root) && vfs.list(root).empty()) return;
  for (const std::string& sub : vfs.list(root)) {
    const std::string subdir = root + "/" + sub;
    for (const std::string& name : vfs.list(subdir)) {
      vfs.remove(subdir + "/" + name);
    }
  }
}

// Tiny counter workload for the fuzz cells (same shape as the test suite).
constexpr TableId kT = 1;
constexpr Value kKeys = 64;

consensus::ReplicatedDb::SetupFn bump_setup() {
  return [](db::Database& d) {
    lang::ProcBuilder b("bump");
    auto k = b.param("k", 0, kKeys - 1);
    auto amt = b.param("amt", 1, 9);
    auto row = b.get(kT, k);
    b.put(kT, k, {{0, row.field(0) + amt}});
    d.register_procedure(std::move(b).build());
    for (Key key = 0; key < static_cast<Key>(kKeys); ++key) {
      d.store().put({kT, key}, store::Row{{0, 100}}, 0);
    }
    d.finalize();
  };
}

std::vector<sched::TxRequest> bump_batch(std::size_t n, Rng& rng) {
  std::vector<sched::TxRequest> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sched::TxRequest r;
    r.proc = 0;
    r.input.add(rng.uniform(0, kKeys - 1));
    r.input.add(rng.uniform(1, 9));
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool fast = benchutil::fast_mode();
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  // case name -> throughput (records/s for WAL, MB/s for checkpoints).
  std::map<std::string, double> json_cases;

  // --- 1. WAL group commit ---------------------------------------------------
  {
    const std::uint64_t posix_records = fast ? 200 : 2000;
    const std::uint64_t mem_records = fast ? 2000 : 20000;
    dur::PosixVfs posix;
    const std::string root = posix_scratch_dir();
    benchutil::Table table(
        {"vfs", "txns/record", "records", "records/s", "MB/s"});
    int run = 0;
    for (const std::size_t bs : {std::size_t{1}, std::size_t{8},
                                 std::size_t{32}}) {
      const WalRow p = wal_throughput(
          posix, root + "/p" + std::to_string(run), bs, posix_records);
      table.row({"posix (fsync/record)", std::to_string(bs),
                 std::to_string(posix_records),
                 std::to_string(static_cast<std::uint64_t>(p.recs_per_s)),
                 std::to_string(p.mb_per_s).substr(0, 6)});
      json_cases["wal-posix/bs" + std::to_string(bs)] = p.recs_per_s;
      dur::FaultVfs mem(1);
      const WalRow m = wal_throughput(mem, "m", bs, mem_records);
      table.row({"faultvfs (in-memory)", std::to_string(bs),
                 std::to_string(mem_records),
                 std::to_string(static_cast<std::uint64_t>(m.recs_per_s)),
                 std::to_string(m.mb_per_s).substr(0, 6)});
      json_cases["wal-mem/bs" + std::to_string(bs)] = m.recs_per_s;
      ++run;
    }
    std::cout << "=== Durability: WAL append + group-commit fsync ===\n";
    table.print();
    posix_cleanup(posix, root);
  }

  // --- 2. checkpoint publish -------------------------------------------------
  {
    // 64 KiB and 256 KiB run in every mode (they are the gated JSON cases);
    // the 4 MiB image is full-mode-only color for the table.
    std::vector<std::size_t> sizes = {std::size_t{64} << 10,
                                      std::size_t{256} << 10};
    if (!fast) sizes.push_back(std::size_t{4} << 20);
    dur::PosixVfs posix;
    const std::string root = posix_scratch_dir() + "/ckpt";
    benchutil::Table table({"vfs", "image bytes", "publish ms", "MB/s"});
    dur::FaultVfs mem(2);
    auto publish = [&table](dur::Vfs& vfs, const char* name,
                            const std::string& dir,
                            const dur::CheckpointImage& cp) {
      vfs.mkdirs(dir);
      const auto t0 = std::chrono::steady_clock::now();
      dur::write_checkpoint_file(vfs, dir, dir + "/ckpt-bench", cp);
      const double ms = ms_since(t0);
      const double mb_s = ms > 0 ? cp.image->size() / ms / 1048.576 : 0;
      table.row({name, std::to_string(cp.image->size()),
                 std::to_string(ms).substr(0, 6),
                 std::to_string(mb_s).substr(0, 7)});
      vfs.remove(dir + "/ckpt-bench");
      return mb_s;
    };
    for (const std::size_t sz : sizes) {
      dur::CheckpointImage cp;
      cp.seq = 42;
      cp.term = 2;
      cp.state_hash = 0xFEEDFACEull;
      cp.image = std::make_shared<const std::string>(sz, 'x');
      const double p = publish(posix, "posix", root, cp);
      const double m = publish(mem, "faultvfs", "c", cp);
      if (sz <= (std::size_t{256} << 10)) {
        const std::string kib = std::to_string(sz >> 10) + "KiB";
        json_cases["ckpt-posix/" + kib] = p;
        json_cases["ckpt-mem/" + kib] = m;
      }
    }
    std::cout << "\n=== Durability: atomic checkpoint publish "
                 "(encode + tmp + fsync + rename) ===\n";
    table.print();
  }

  // --- 3. crash-recovery fuzz cells ------------------------------------------
  {
    const std::uint64_t seeds = fast ? 1 : 2;
    const dur::FaultMode modes[] = {
        dur::FaultMode::kTornTail, dur::FaultMode::kPartialWrite,
        dur::FaultMode::kBitFlip, dur::FaultMode::kFsyncNoop};
    benchutil::Table table({"mode", "seed", "batches", "durable recov",
                            "wal replayed", "torn", "quarantined",
                            "snap installs", "wall ms", "ok"});
    bool all_ok = true;
    for (const dur::FaultMode mode : modes) {
      for (std::uint64_t s = 1; s <= seeds; ++s) {
        consensus::RecoveryFuzzOptions opts;
        opts.mode = mode;
        opts.warmup_rounds = fast ? 5 : 8;
        opts.armed_rounds = fast ? 5 : 8;
        opts.post_rounds = 3;
        opts.batch_size = 8;
        opts.recovery.checkpoint_interval = 3;
        const std::uint64_t seed = s * 101;
        const auto t0 = std::chrono::steady_clock::now();
        const consensus::RecoveryFuzzReport rep =
            consensus::run_recovery_fuzz(bump_setup(), bump_batch, opts, seed);
        const double ms = ms_since(t0);
        all_ok = all_ok && rep.ok();
        table.row({dur::to_string(mode), std::to_string(seed),
                   std::to_string(rep.batches_submitted),
                   std::to_string(rep.recovery.durable_recoveries),
                   std::to_string(rep.recovery.wal_records_replayed),
                   std::to_string(rep.torn_tails_truncated),
                   std::to_string(rep.records_quarantined),
                   std::to_string(rep.recovery.snapshot_installs),
                   std::to_string(static_cast<std::uint64_t>(ms)),
                   rep.ok() ? "yes" : "NO"});
      }
    }
    std::cout << "\n=== Durability: crash-recovery fuzz scenarios "
                 "(kill-at-syscall x fault mode) ===\n";
    table.print();
    if (!all_ok) {
      std::cout << "RECOVERY FAILURE DETECTED\n";
      return 1;
    }
    std::cout << "all scenarios recovered byte-identical to the witness.\n";
  }

  if (!out_path.empty()) {
    std::ofstream js(out_path);
    js << "{\n  \"bench\": \"durability\",\n  \"mode\": \""
       << (fast ? "fast" : "full")
       << "\",\n  \"metric\": \"throughput (records/s WAL, MB/s ckpt)\",\n"
       << "  \"gate\": {\"field\": \"throughput\", \"direction\": "
          "\"higher\"},\n  \"cases\": {\n";
    for (auto it = json_cases.begin(); it != json_cases.end(); ++it) {
      js << "    \"" << it->first << "\": {\"throughput\": "
         << static_cast<std::uint64_t>(it->second) << "}";
      js << (std::next(it) == json_cases.end() ? "\n" : ",\n");
    }
    js << "  }\n}\n";
    js.close();
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
