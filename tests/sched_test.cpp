// Tests for the lock table and the deterministic execution engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>

#include "baselines/variants.hpp"
#include "common/rng.hpp"
#include "lang/builder.hpp"
#include "sched/engine.hpp"
#include "sym/symexec.hpp"

namespace prog::sched {
namespace {

using lang::Proc;
using lang::ProcBuilder;
using lang::TxInput;

constexpr TableId kAcct = 1;
constexpr TableId kCtr = 2;
constexpr TableId kLog = 3;
constexpr FieldId kBal = 0;
constexpr FieldId kNext = 0;
constexpr FieldId kVal = 1;

// --- lock table ---------------------------------------------------------------

TEST(LockTableTest, FifoGrantAndRelease) {
  LockTable lt;
  EXPECT_TRUE(lt.enqueue(1, 1, {kAcct, 5}, true));
  EXPECT_FALSE(lt.enqueue(2, 2, {kAcct, 5}, true));
  EXPECT_FALSE(lt.enqueue(3, 3, {kAcct, 5}, true));
  EXPECT_EQ(lt.entry_count(), 3u);

  std::vector<TxIdx> granted;
  lt.release(1, {kAcct, 5}, granted);
  EXPECT_EQ(granted, std::vector<TxIdx>{2});
  granted.clear();
  lt.release(2, {kAcct, 5}, granted);
  EXPECT_EQ(granted, std::vector<TxIdx>{3});
  granted.clear();
  lt.release(3, {kAcct, 5}, granted);
  EXPECT_TRUE(granted.empty());
  EXPECT_TRUE(lt.empty());
}

TEST(LockTableTest, IndependentKeysIndependentQueues) {
  LockTable lt;
  EXPECT_TRUE(lt.enqueue(1, 1, {kAcct, 5}, true));
  EXPECT_TRUE(lt.enqueue(2, 2, {kAcct, 6}, true));
  EXPECT_TRUE(lt.enqueue(3, 3, {kCtr, 5}, true));  // same key id, other table
}

TEST(LockTableTest, ReleaseErrorsAreDetected) {
  LockTable lt;
  std::vector<TxIdx> granted;
  EXPECT_THROW(lt.release(1, {kAcct, 5}, granted), InvariantError);
  lt.enqueue(1, 1, {kAcct, 5}, true);
  lt.enqueue(2, 2, {kAcct, 5}, true);
  // Releasing an ungranted entry is a protocol violation.
  EXPECT_THROW(lt.release(2, {kAcct, 5}, granted), InvariantError);
}

TEST(LockTableTest, ExclusiveModeSerializesReaders) {
  LockTable lt;  // default: exclusive
  EXPECT_TRUE(lt.enqueue(1, 1, {kAcct, 5}, false));
  EXPECT_FALSE(lt.enqueue(2, 2, {kAcct, 5}, false));
}

TEST(LockTableTest, SharedModeGrantsReaderPrefix) {
  LockTable lt(LockTable::Options{.shared_reads = true, .shards = 8});
  EXPECT_TRUE(lt.enqueue(1, 1, {kAcct, 5}, false));
  EXPECT_TRUE(lt.enqueue(2, 2, {kAcct, 5}, false));   // reader joins
  EXPECT_FALSE(lt.enqueue(3, 3, {kAcct, 5}, true));   // writer waits
  EXPECT_FALSE(lt.enqueue(4, 4, {kAcct, 5}, false));  // reader behind writer

  std::vector<TxIdx> granted;
  lt.release(2, {kAcct, 5}, granted);  // out-of-order reader release is fine
  EXPECT_TRUE(granted.empty());        // tx1 still holds the prefix
  lt.release(1, {kAcct, 5}, granted);
  EXPECT_EQ(granted, std::vector<TxIdx>{3});  // writer now at head
  granted.clear();
  lt.release(3, {kAcct, 5}, granted);
  EXPECT_EQ(granted, std::vector<TxIdx>{4});
}

TEST(LockTableTest, SharedModeWriterHeadBlocksAll) {
  LockTable lt(LockTable::Options{.shared_reads = true, .shards = 8});
  EXPECT_TRUE(lt.enqueue(1, 1, {kAcct, 5}, true));
  EXPECT_FALSE(lt.enqueue(2, 2, {kAcct, 5}, false));
  std::vector<TxIdx> granted;
  lt.release(1, {kAcct, 5}, granted);
  EXPECT_EQ(granted, std::vector<TxIdx>{2});
}

// --- engine fixtures ----------------------------------------------------------

/// Bundles procs + profiles + store + engine for a toy bank schema.
struct Bench {
  std::vector<std::unique_ptr<Proc>> procs;
  std::vector<std::unique_ptr<sym::TxProfile>> profiles;
  std::vector<ProcEntry> entries;
  store::VersionedStore store;

  ProcId add(Proc p) {
    procs.push_back(std::make_unique<Proc>(std::move(p)));
    profiles.push_back(sym::Profiler::profile(*procs.back()));
    entries.push_back({procs.back().get(), profiles.back().get()});
    return static_cast<ProcId>(entries.size() - 1);
  }

  void load_accounts(Value n, Value balance) {
    for (Value i = 0; i < n; ++i) {
      store.put({kAcct, static_cast<Key>(i)}, store::Row{{kBal, balance}}, 0);
    }
  }
  void load_counter(Value v) {
    store.put({kCtr, 0}, store::Row{{kNext, v}}, 0);
  }
};

Proc make_append() {
  // DT: reads the counter (pivot), writes a log row at that id, bumps it.
  ProcBuilder b("append");
  auto payload = b.param("payload", 0, 1000000);
  auto ctr = b.get(kCtr, b.lit(0));
  auto next = b.let("next", ctr.field(kNext));
  b.put(kLog, next, {{kVal, payload}});
  b.put(kCtr, b.lit(0), {{kNext, next + 1}});
  return std::move(b).build();
}

Proc make_read_balance() {
  ProcBuilder b("read_balance");
  auto acct = b.param("acct", 0, 999);
  auto h = b.get(kAcct, acct);
  b.emit(h.field(kBal));
  return std::move(b).build();
}

TxRequest req(ProcId p, std::initializer_list<Value> scalars) {
  TxRequest r;
  r.proc = p;
  for (Value v : scalars) r.input.add(v);
  return r;
}

Proc make_transfer_simple() {
  ProcBuilder b("transfer");
  auto from = b.param("from", 0, 999);
  auto to = b.param("to", 0, 999);
  auto amount = b.param("amount", 1, 100);
  auto src = b.get(kAcct, from);
  auto dst = b.get(kAcct, to);
  b.put(kAcct, from, {{kBal, src.field(kBal) - amount}});
  b.put(kAcct, to, {{kBal, dst.field(kBal) + amount}});
  return std::move(b).build();
}

TEST(EngineTest, NonConflictingTransactionsAllCommit) {
  Bench bench;
  const ProcId transfer = bench.add(make_transfer_simple());
  bench.load_accounts(10, 100);
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.check_containment = true;
  Engine engine(bench.store, bench.entries, cfg);

  std::vector<TxRequest> batch;
  batch.push_back(req(transfer, {0, 1, 10}));
  batch.push_back(req(transfer, {2, 3, 20}));
  batch.push_back(req(transfer, {4, 5, 30}));
  const BatchResult r = engine.run_batch(std::move(batch));
  EXPECT_EQ(r.committed, 3u);
  EXPECT_EQ(r.validation_aborts, 0u);
  EXPECT_EQ(bench.store.get({kAcct, 0})->at(kBal), 90);
  EXPECT_EQ(bench.store.get({kAcct, 1})->at(kBal), 110);
  EXPECT_EQ(bench.store.get({kAcct, 4})->at(kBal), 70);
  EXPECT_EQ(bench.store.get({kAcct, 5})->at(kBal), 130);
}

TEST(EngineTest, ConflictingTransactionsSerializeInAgreedOrder) {
  Bench bench;
  const ProcId transfer = bench.add(make_transfer_simple());
  bench.load_accounts(3, 100);
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.audit_commit_order = true;
  Engine engine(bench.store, bench.entries, cfg);

  // A chain of conflicts on account 1.
  std::vector<TxRequest> batch;
  batch.push_back(req(transfer, {0, 1, 10}));
  batch.push_back(req(transfer, {1, 2, 50}));
  batch.push_back(req(transfer, {2, 1, 5}));
  const BatchResult r = engine.run_batch(std::move(batch));
  EXPECT_EQ(r.committed, 3u);
  EXPECT_EQ(bench.store.get({kAcct, 0})->at(kBal), 90);
  EXPECT_EQ(bench.store.get({kAcct, 1})->at(kBal), 100 + 10 - 50 + 5);
  EXPECT_EQ(bench.store.get({kAcct, 2})->at(kBal), 100 + 50 - 5);
  // All ITs: the commit order must equal the agreed order.
  EXPECT_EQ(r.commit_order, (std::vector<TxIdx>{0, 1, 2}));
}

TEST(EngineTest, DependentTransactionFailsOnceThenSucceeds) {
  Bench bench;
  const ProcId append = bench.add(make_append());
  bench.load_counter(100);
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.check_containment = true;
  Engine engine(bench.store, bench.entries, cfg);

  // Two appends conflict on the counter; both predict slot 100 from the
  // prepare snapshot. The first commits; the second must abort and retry.
  std::vector<TxRequest> batch;
  batch.push_back(req(append, {7}));
  batch.push_back(req(append, {8}));
  const BatchResult r = engine.run_batch(std::move(batch));
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(r.validation_aborts, 1u);
  EXPECT_EQ(r.rounds, 1u);
  EXPECT_EQ(bench.store.get({kCtr, 0})->at(kNext), 102);
  ASSERT_NE(bench.store.get({kLog, 100}), nullptr);
  ASSERT_NE(bench.store.get({kLog, 101}), nullptr);
  EXPECT_EQ(bench.store.get({kLog, 100})->at(kVal), 7);
  EXPECT_EQ(bench.store.get({kLog, 101})->at(kVal), 8);
}

TEST(EngineTest, SingleFailedModeAlsoConverges) {
  Bench bench;
  const ProcId append = bench.add(make_append());
  bench.load_counter(0);
  EngineConfig cfg;
  cfg.workers = 4;
  cfg.parallel_failed = false;  // SF
  Engine engine(bench.store, bench.entries, cfg);

  std::vector<TxRequest> batch;
  for (Value i = 0; i < 6; ++i) batch.push_back(req(append, {i}));
  const BatchResult r = engine.run_batch(std::move(batch));
  EXPECT_EQ(r.committed, 6u);
  EXPECT_EQ(r.rounds, 1u);  // SF clears everything in one pass
  EXPECT_EQ(bench.store.get({kCtr, 0})->at(kNext), 6);
  for (Value i = 0; i < 6; ++i) {
    EXPECT_EQ(bench.store.get({kLog, static_cast<Key>(i)})->at(kVal), i);
  }
}

TEST(EngineTest, ReadOnlyTransactionsSeePreviousBatch) {
  Bench bench;
  const ProcId transfer = bench.add(make_transfer_simple());
  const ProcId reader = bench.add(make_read_balance());
  bench.load_accounts(2, 100);
  EngineConfig cfg;
  cfg.workers = 2;
  Engine engine(bench.store, bench.entries, cfg);

  std::vector<TxRequest> batch;
  batch.push_back(req(transfer, {0, 1, 10}));
  batch.push_back(req(reader, {0}));
  const BatchResult r = engine.run_batch(std::move(batch));
  // Both commit; the ROT ran against the pre-batch snapshot (no way to
  // observe its emitted value here, but it must not deadlock or lock).
  EXPECT_EQ(r.committed, 2u);
  EXPECT_EQ(bench.store.get({kAcct, 0})->at(kBal), 90);
}

TEST(EngineTest, EmptyAndRotOnlyBatches) {
  Bench bench;
  const ProcId reader = bench.add(make_read_balance());
  bench.load_accounts(2, 100);
  EngineConfig cfg;
  cfg.workers = 2;
  Engine engine(bench.store, bench.entries, cfg);
  EXPECT_EQ(engine.run_batch({}).committed, 0u);
  std::vector<TxRequest> batch;
  batch.push_back(req(reader, {0}));
  batch.push_back(req(reader, {1}));
  EXPECT_EQ(engine.run_batch(std::move(batch)).committed, 2u);
}

TEST(EngineTest, CalvinDefersFailedTransactions) {
  Bench bench;
  const ProcId append = bench.add(make_append());
  bench.load_counter(0);
  EngineConfig cfg = baselines::calvin(100, 2).config;
  Engine engine(bench.store, bench.entries, cfg);

  std::vector<TxRequest> b1;
  b1.push_back(req(append, {1}));
  b1.push_back(req(append, {2}));
  BatchResult r1 = engine.run_batch(std::move(b1));
  EXPECT_EQ(r1.committed, 1u);
  ASSERT_EQ(r1.deferred.size(), 1u);
  EXPECT_EQ(bench.store.get({kCtr, 0})->at(kNext), 1);

  // The deferred request is marked for fresh reconnaissance (OLLP re-runs
  // the recon phase after an abort), so resubmission converges quickly.
  EXPECT_TRUE(r1.deferred[0].recon_fresh);
  std::vector<TxRequest> pending = std::move(r1.deferred);
  int resubmissions = 0;
  while (!pending.empty()) {
    ASSERT_LT(resubmissions, 20) << "Calvin resubmission never converged";
    ++resubmissions;
    BatchResult r = engine.run_batch(std::move(pending));
    pending = std::move(r.deferred);
  }
  EXPECT_EQ(resubmissions, 1);
  EXPECT_EQ(bench.store.get({kCtr, 0})->at(kNext), 2);
}

TEST(EngineTest, NodoNeverAbortsAndMatchesSeq) {
  // Run the same workload under NODO and SEQ: table-granular locking cannot
  // abort and must produce the agreed-order state.
  Rng rng(11);
  auto run = [&](EngineConfig cfg) {
    Bench bench;
    const ProcId transfer = bench.add(make_transfer_simple());
    const ProcId append = bench.add(make_append());
    bench.load_accounts(10, 1000);
    bench.load_counter(0);
    Engine engine(bench.store, bench.entries, cfg);
    Rng local(99);
    for (int batch = 0; batch < 5; ++batch) {
      std::vector<TxRequest> reqs;
      for (int i = 0; i < 20; ++i) {
        if (local.percent(50)) {
          reqs.push_back(req(transfer, {local.uniform(0, 9),
                                        local.uniform(0, 9),
                                        local.uniform(1, 10)}));
        } else {
          reqs.push_back(req(append, {local.uniform(0, 100)}));
        }
      }
      const BatchResult r = engine.run_batch(std::move(reqs));
      EXPECT_EQ(r.validation_aborts, 0u);
    }
    return bench.store.state_hash();
  };
  const auto nodo_hash = run(baselines::nodo(4).config);
  const auto seq_hash = run(baselines::seq().config);
  EXPECT_EQ(nodo_hash, seq_hash);
}

TEST(EngineTest, SharedReadLocksPreserveState) {
  auto run = [&](bool shared) {
    Bench bench;
    const ProcId transfer = bench.add(make_transfer_simple());
    bench.load_accounts(6, 100);
    EngineConfig cfg;
    cfg.workers = 4;
    cfg.shared_read_locks = shared;
    Engine engine(bench.store, bench.entries, cfg);
    std::vector<TxRequest> batch;
    batch.push_back(req(transfer, {0, 1, 10}));
    batch.push_back(req(transfer, {0, 2, 10}));
    batch.push_back(req(transfer, {0, 3, 10}));
    engine.run_batch(std::move(batch));
    return bench.store.state_hash();
  };
  EXPECT_EQ(run(false), run(true));
}

// ---------------------------------------------------------------------------
// Determinism sweep: same workload, different parallelism/variants -> same
// final state, across multiple batches with dependent transactions.
// ---------------------------------------------------------------------------

struct VariantParam {
  unsigned workers;
  bool multi_queue;
  bool parallel_failed;
  bool dt_before_it;
  // gtest names each instance after the raw bytes of its param, so the
  // struct has no padding: an uninitialised padding byte made the test
  // names differ from one run to the next.
  std::uint8_t reserved = 0;
};

class DeterminismTest : public ::testing::TestWithParam<VariantParam> {};

std::uint64_t run_workload(const VariantParam& vp, bool audit_and_check) {
  Bench bench;
  const ProcId transfer = bench.add(make_transfer_simple());
  const ProcId append = bench.add(make_append());
  const ProcId reader = bench.add(make_read_balance());
  bench.load_accounts(20, 1000);
  bench.load_counter(0);

  EngineConfig cfg;
  cfg.workers = vp.workers;
  cfg.multi_queue_prepare = vp.multi_queue;
  cfg.parallel_failed = vp.parallel_failed;
  cfg.dt_before_it = vp.dt_before_it;
  cfg.check_containment = audit_and_check;
  Engine engine(bench.store, bench.entries, cfg);

  Rng rng(1234);  // identical workload across every variant
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<TxRequest> reqs;
    for (int i = 0; i < 30; ++i) {
      switch (rng.bounded(3)) {
        case 0:
          reqs.push_back(req(transfer, {rng.uniform(0, 19),
                                        rng.uniform(0, 19),
                                        rng.uniform(1, 10)}));
          break;
        case 1:
          reqs.push_back(req(append, {rng.uniform(0, 100)}));
          break;
        default:
          reqs.push_back(req(reader, {rng.uniform(0, 19)}));
          break;
      }
    }
    engine.run_batch(std::move(reqs));
  }
  return bench.store.state_hash();
}

TEST_P(DeterminismTest, StateHashIndependentOfParallelism) {
  const VariantParam vp = GetParam();
  const std::uint64_t h = run_workload(vp, true);
  // Reference: same variant flags, single worker.
  VariantParam ref = vp;
  ref.workers = 1;
  EXPECT_EQ(h, run_workload(ref, false));
  // And repeated runs are stable.
  EXPECT_EQ(h, run_workload(vp, false));
}

INSTANTIATE_TEST_SUITE_P(
    Variants, DeterminismTest,
    ::testing::Values(VariantParam{4, true, true, true},
                      VariantParam{4, true, false, true},
                      VariantParam{4, false, true, true},
                      VariantParam{4, false, false, true},
                      VariantParam{8, true, true, true},
                      VariantParam{8, true, true, false},
                      VariantParam{2, false, false, false}));

TEST(DeterminismTest, SfAndMfAgreeOnFinalState) {
  EXPECT_EQ(run_workload({4, true, true, true}, false),
            run_workload({4, true, false, true}, false));
}

// Serializability audit: replaying committed transactions serially in the
// recorded commit order over the same initial state reproduces the state.
TEST(EngineTest, CommitOrderReplayReproducesState) {
  Bench bench;
  const ProcId transfer = bench.add(make_transfer_simple());
  const ProcId append = bench.add(make_append());
  bench.load_accounts(10, 500);
  bench.load_counter(0);

  EngineConfig cfg;
  cfg.workers = 4;
  cfg.audit_commit_order = true;
  Engine engine(bench.store, bench.entries, cfg);

  Rng rng(7);
  std::vector<TxRequest> reqs;
  for (int i = 0; i < 40; ++i) {
    if (rng.percent(60)) {
      reqs.push_back(req(transfer, {rng.uniform(0, 9), rng.uniform(0, 9),
                                    rng.uniform(1, 10)}));
    } else {
      reqs.push_back(req(append, {rng.uniform(0, 100)}));
    }
  }
  const std::vector<TxRequest> reqs_copy = reqs;
  const BatchResult r = engine.run_batch(std::move(reqs));
  ASSERT_EQ(r.commit_order.size(), r.committed);

  // Replay on a fresh store.
  Bench replay;
  const ProcId t2 = replay.add(make_transfer_simple());
  const ProcId a2 = replay.add(make_append());
  (void)t2;
  (void)a2;
  replay.load_accounts(10, 500);
  replay.load_counter(0);
  lang::Interp interp;
  for (TxIdx idx : r.commit_order) {
    const TxRequest& rq = reqs_copy[idx];
    store::LiveView live(replay.store);
    const lang::ExecResult er =
        interp.run(*replay.procs[rq.proc], rq.input, live);
    if (er.committed) lang::apply_writes(replay.store, er, 1);
  }
  EXPECT_EQ(bench.store.state_hash(), replay.store.state_hash());
}

}  // namespace
}  // namespace prog::sched
