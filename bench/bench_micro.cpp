// Micro-benchmarks (google-benchmark) for the building blocks: lock table,
// versioned store, constraint solver, profile prediction, interpreter.
#include <benchmark/benchmark.h>

#include "lang/builder.hpp"
#include "lang/interp.hpp"
#include "sched/lock_table.hpp"
#include "solver/solver.hpp"
#include "store/snapshot.hpp"
#include "store/store.hpp"
#include "sym/symexec.hpp"
#include "workloads/tpcc.hpp"

namespace {

using namespace prog;

void BM_LockTableEnqueueRelease(benchmark::State& state) {
  const int keys_per_tx = static_cast<int>(state.range(0));
  sched::LockTable lt;
  std::vector<sched::TxIdx> granted;
  std::uint64_t tx = 0;
  for (auto _ : state) {
    const sched::TxIdx id = static_cast<sched::TxIdx>(tx++);
    for (int k = 0; k < keys_per_tx; ++k) {
      lt.enqueue(id, /*seq=*/id, {1, static_cast<Key>((tx * 7 + k) % 1024)},
                 true);
    }
    for (int k = 0; k < keys_per_tx; ++k) {
      lt.release(id, {1, static_cast<Key>((tx * 7 + k) % 1024)}, granted);
    }
    granted.clear();
    // Model the engine's per-batch arena reset (the table is drained here);
    // without it the bump arena would grow for the whole benchmark run.
    if ((tx & 1023) == 0) lt.begin_batch();
  }
  state.SetItemsProcessed(state.iterations() * keys_per_tx);
}
BENCHMARK(BM_LockTableEnqueueRelease)->Arg(4)->Arg(16)->Arg(32);

void BM_StoreGet(benchmark::State& state) {
  store::VersionedStore s;
  for (Key k = 0; k < 100000; ++k) {
    s.put({1, k}, store::Row{{0, static_cast<Value>(k)}}, 0);
  }
  Key k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.get({1, (k++ * 2654435761u) % 100000}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StoreGet);

// Steady-state puts: each round of 65,536 keys writes a new batch, and the
// untimed GC after it keeps every chain at one or two versions, as the
// engine's per-batch GC does.
void BM_StorePut(benchmark::State& state) {
  store::VersionedStore s;
  Key k = 0;
  BatchId b = 1;
  for (auto _ : state) {
    s.put({1, k++ % 65536}, store::Row{{0, 1}, {1, 2}}, b);
    if (k % 65536 == 0) {
      state.PauseTiming();
      s.gc_before(b++);
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StorePut);

/// A store of `rows` eight-field rows over four tables.
void fill_rows(store::VersionedStore& s, std::int64_t rows) {
  for (std::int64_t i = 0; i < rows; ++i) {
    store::Row r;
    for (FieldId f = 0; f < 8; ++f) r.set(f, i * 131 + f);
    s.put({static_cast<TableId>(i % 4), static_cast<Key>(i)}, std::move(r),
          0);
  }
}

// The latest-state hash reads one accumulator per shard: flat in the rows.
void BM_StateHash(benchmark::State& state) {
  store::VersionedStore s;
  fill_rows(s, state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(s.state_hash());
}
BENCHMARK(BM_StateHash)->Arg(10000)->Arg(40000)->Arg(160000);

void BM_SerializeVisible(benchmark::State& state) {
  store::VersionedStore s;
  fill_rows(s, state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store::serialize_visible(s));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SerializeVisible)->Arg(10000)->Arg(40000)->Arg(160000)
    ->Unit(benchmark::kMillisecond);

// The checkpoint path: an image patched from the previous one after
// range(1) percent of range(0) rows were rewritten (untimed, one batch per
// image). Compare with BM_SerializeVisible at the same row count.
void BM_IncrementalImage(benchmark::State& state) {
  const std::int64_t rows = state.range(0);
  const std::int64_t dirty = rows * state.range(1) / 100;
  store::VersionedStore s;
  fill_rows(s, rows);
  store::StateImageBuilder builder;
  builder.build(s);
  std::uint64_t x = 1;
  BatchId b = 1;
  for (auto _ : state) {
    state.PauseTiming();
    for (std::int64_t i = 0; i < dirty; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      const auto key = static_cast<std::int64_t>((x >> 33) % rows);
      store::Row r;
      for (FieldId f = 0; f < 8; ++f) r.set(f, key * 131 + f + b);
      s.put({static_cast<TableId>(key % 4), static_cast<Key>(key)},
            std::move(r), b);
    }
    s.gc_before(b++);
    state.ResumeTiming();
    benchmark::DoNotOptimize(builder.build(s));
  }
  state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_IncrementalImage)->Args({40000, 1})->Args({40000, 10})
    ->Unit(benchmark::kMillisecond);

void BM_SolverFeasibility(benchmark::State& state) {
  expr::ExprPool pool;
  solver::DomainMap domains;
  const expr::Expr* x = pool.input(0);
  const expr::Expr* y = pool.input(1);
  domains.declare(x, {0, 100});
  domains.declare(y, {0, 100});
  std::vector<const expr::Expr*> cs{
      pool.cmp(expr::Op::kLt, x, y),
      pool.cmp(expr::Op::kGe, pool.add(x, y), pool.constant(50)),
      pool.cmp(expr::Op::kLe, y, pool.constant(80)),
  };
  for (auto _ : state) {
    solver::Solver s;
    benchmark::DoNotOptimize(s.check(cs, domains));
  }
}
BENCHMARK(BM_SolverFeasibility);

void BM_ProfileBuildNewOrder(benchmark::State& state) {
  const auto sc = workloads::tpcc::Scale::small(4);
  const lang::Proc proc = workloads::tpcc::build_new_order(sc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sym::Profiler::profile(proc));
  }
}
BENCHMARK(BM_ProfileBuildNewOrder);

void BM_ProfilePredictNewOrder(benchmark::State& state) {
  const auto sc = workloads::tpcc::Scale::small(4);
  const lang::Proc proc = workloads::tpcc::build_new_order(sc);
  auto profile = sym::Profiler::profile(proc);
  store::VersionedStore s;
  workloads::tpcc::load(s, sc);
  store::SnapshotView view(s, 0);
  lang::TxInput in;
  in.add(0).add(3).add(7).add(10);
  in.add_array({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  in.add_array(std::vector<Value>(15, 0));
  in.add_array(std::vector<Value>(15, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(profile->predict(in, view));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilePredictNewOrder);

void BM_InterpNewOrder(benchmark::State& state) {
  const auto sc = workloads::tpcc::Scale::small(4);
  const lang::Proc proc = workloads::tpcc::build_new_order(sc);
  store::VersionedStore s;
  workloads::tpcc::load(s, sc);
  store::SnapshotView view(s, 0);
  lang::Interp interp;
  lang::TxInput in;
  in.add(0).add(3).add(7).add(10);
  in.add_array({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15});
  in.add_array(std::vector<Value>(15, 0));
  in.add_array(std::vector<Value>(15, 5));
  for (auto _ : state) {
    benchmark::DoNotOptimize(interp.run(proc, in, view));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InterpNewOrder);

}  // namespace

BENCHMARK_MAIN();
