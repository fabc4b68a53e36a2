// Tests for the flat-bytecode compiler and VM (DESIGN.md §15):
//  - compiler shape: key fusion, constant folding, disassembly, attachment
//    at ProcBuilder::build / Profiler::profile;
//  - directed semantic edges where the tree-walker is subtle: wrap-around
//    arithmetic, total division (divisor 0, INT64_MIN / -1), short-circuit
//    && / ||, arity and step-limit error strings;
//  - a seeded differential fuzzer: 1000 randomly generated procedures run
//    against the tree-walking interpreter (byte-identical ExecResult) and,
//    via symbolic execution, against the PSC-tree prediction walker
//    (identical key-sets, write-sets and pivot observations);
//  - engine-level equivalence: tree_walk_ablation is a pure performance
//    switch across workloads x worker counts (identical state hashes and
//    deterministic telemetry);
//  - a crash-recovery fuzz arm proving the durable path converges to the
//    same witness hash with the VM and with the tree-walk oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "consensus/recovery_fuzz.hpp"
#include "db/database.hpp"
#include "lang/builder.hpp"
#include "lang/bytecode/bytecode.hpp"
#include "lang/bytecode/pred_program.hpp"
#include "lang/interp.hpp"
#include "sched/engine.hpp"
#include "store/store.hpp"
#include "sym/symexec.hpp"
#include "workloads/microbench.hpp"
#include "workloads/rubis.hpp"
#include "workloads/tpcc.hpp"

namespace prog {
namespace {

constexpr TableId kAcct = 1;
constexpr FieldId kBal = 0;

lang::Proc make_transfer() {
  lang::ProcBuilder b("transfer");
  auto from = b.param("from", 0, 100);
  auto to = b.param("to", 0, 100);
  auto amount = b.param("amount", 1, 50);
  auto src = b.get(kAcct, from);
  auto dst = b.get(kAcct, to);
  b.put(kAcct, from, {{kBal, src.field(kBal) - amount}});
  b.put(kAcct, to, {{kBal, dst.field(kBal) + amount}});
  return std::move(b).build();
}

void make_accounts(store::VersionedStore& s, Value n, Value balance) {
  for (Value i = 0; i < n; ++i) {
    s.put({kAcct, static_cast<Key>(i)}, store::Row{{kBal, balance}}, 0);
  }
}

// ---------------------------------------------------------------------------
// Compiler shape
// ---------------------------------------------------------------------------

TEST(BytecodeCompilerTest, BuildAttachesCompiledCode) {
  const lang::Proc p = make_transfer();
  ASSERT_NE(p.code, nullptr);
  EXPECT_EQ(p.code->name, "transfer");
  EXPECT_EQ(p.code->num_params, 3u);
  EXPECT_FALSE(p.code->code.empty());
  EXPECT_EQ(p.code->code.back().op, bytecode::Op::kHalt);
}

TEST(BytecodeCompilerTest, ParamAndConstantKeysFuse) {
  lang::ProcBuilder b("fused");
  auto k = b.param("k", 0, 100);
  auto row = b.get(kAcct, k);                       // param key -> kGetP
  b.get(kAcct, b.lit(2) + b.lit(3));                // folds to 5 -> kGetC
  b.put(kAcct, k + 1, {{kBal, row.field(kBal)}});   // computed key -> kPutR
  const lang::Proc p = std::move(b).build();
  ASSERT_NE(p.code, nullptr);
  const std::string listing = bytecode::disassemble(*p.code);
  EXPECT_NE(listing.find("get.p"), std::string::npos) << listing;
  EXPECT_NE(listing.find("get.c"), std::string::npos) << listing;
  EXPECT_NE(listing.find("put.r"), std::string::npos) << listing;
  // The folded key constant lives in the pool; no instruction computes it.
  EXPECT_TRUE(std::any_of(p.code->pool.begin(), p.code->pool.end(),
                          [](Value v) { return v == 5; }))
      << listing;
}

TEST(BytecodeCompilerTest, VariableKeysFuseToHomeRegister) {
  lang::ProcBuilder b("varkey");
  auto k = b.param("k", 0, 100);
  auto v = b.let("v", k * 2);
  auto row = b.get(kAcct, v);  // variable key -> kGetR on the home register
  b.put(kAcct, v, {{kBal, row.field(kBal) + 1}});
  const lang::Proc p = std::move(b).build();
  ASSERT_NE(p.code, nullptr);
  // No kMov should be needed to stage the variable into a temp for the key.
  const std::string listing = bytecode::disassemble(*p.code);
  EXPECT_NE(listing.find("get.r"), std::string::npos) << listing;
  EXPECT_NE(listing.find("put.r"), std::string::npos) << listing;
}

TEST(BytecodeCompilerTest, PredictionProgramAttachesAtProfileTime) {
  lang::ProcBuilder b("chase");
  auto k = b.param("k", 0, 30);
  auto head = b.get(kAcct, k);
  auto next = b.get(kAcct, head.field(kBal));  // pivot-dependent key: DT
  b.put(kAcct, next.field(kBal), {{kBal, k}});
  const lang::Proc p = std::move(b).build();
  auto profile = sym::Profiler::profile(p);
  ASSERT_NE(profile, nullptr);
  EXPECT_EQ(profile->klass(), sym::TxClass::kDependent);
  ASSERT_NE(profile->pred_code(), nullptr);
  const std::string listing =
      bytecode::disassemble_prediction(*profile->pred_code());
  EXPECT_NE(listing.find("pkey"), std::string::npos) << listing;
  EXPECT_NE(listing.find("pwr"), std::string::npos) << listing;
}

// ---------------------------------------------------------------------------
// Directed semantic edges
// ---------------------------------------------------------------------------

/// Runs `proc` under both engines and returns (vm, tree) outcomes; an
/// outcome is the ExecResult or the exception message, whichever happened.
struct Outcome {
  bool threw = false;
  std::string error;
  lang::ExecResult result;
};

Outcome run_one(const lang::Interp& interp, const lang::Proc& proc,
                const lang::TxInput& input, const store::ReadView& view) {
  Outcome o;
  try {
    o.result = interp.run(proc, input, view);
  } catch (const std::exception& e) {
    o.threw = true;
    o.error = e.what();
  }
  return o;
}

void expect_identical(const Outcome& vm, const Outcome& tree,
                      const std::string& context) {
  ASSERT_EQ(vm.threw, tree.threw)
      << context << ": vm=" << vm.error << " tree=" << tree.error;
  if (vm.threw) {
    EXPECT_EQ(vm.error, tree.error) << context;
    return;
  }
  const lang::ExecResult& a = vm.result;
  const lang::ExecResult& b = tree.result;
  EXPECT_EQ(a.committed, b.committed) << context;
  EXPECT_EQ(a.emitted, b.emitted) << context;
  EXPECT_EQ(a.reads, b.reads) << context;
  EXPECT_EQ(a.writes, b.writes) << context;
  ASSERT_EQ(a.ops.size(), b.ops.size()) << context;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    EXPECT_EQ(a.ops[i].key, b.ops[i].key) << context << " op " << i;
    EXPECT_EQ(a.ops[i].row.has_value(), b.ops[i].row.has_value())
        << context << " op " << i;
    if (a.ops[i].row.has_value() && b.ops[i].row.has_value()) {
      EXPECT_EQ(*a.ops[i].row, *b.ops[i].row) << context << " op " << i;
    }
  }
}

class DirectedSemanticsTest : public ::testing::Test {
 protected:
  void run_both(const lang::Proc& proc, const lang::TxInput& input) {
    store::VersionedStore s;
    make_accounts(s, 8, 100);
    store::SnapshotView view(s, 0);
    const Outcome vm = run_one(lang::Interp(), proc, input, view);
    const Outcome tree = run_one(
        lang::Interp(lang::Interp::Options{.tree_walk = true}), proc, input,
        view);
    expect_identical(vm, tree, proc.name);
  }
};

TEST_F(DirectedSemanticsTest, DivisionEdgeCases) {
  lang::ProcBuilder b("div_edges");
  auto x = b.param("x", std::numeric_limits<Value>::min(),
                   std::numeric_limits<Value>::max());
  auto y = b.param("y", std::numeric_limits<Value>::min(),
                   std::numeric_limits<Value>::max());
  b.emit(x / y);
  b.emit(x % y);
  const lang::Proc p = std::move(b).build();
  ASSERT_NE(p.code, nullptr);
  // Note INT64_MIN / -1 is absent: the tree-walker only guards divisor == 0,
  // so that pair traps natively under BOTH engines (the compiler's constant
  // folder skips it for the same reason). The VM matches the oracle exactly,
  // including that edge — which a unit test cannot observe.
  for (auto [xv, yv] : std::vector<std::pair<Value, Value>>{
           {5, 0},  // total division: -> 0
           {-7, 2},
           {std::numeric_limits<Value>::min(), 0}}) {
    lang::TxInput in;
    in.add(xv).add(yv);
    run_both(p, in);
  }
}

TEST_F(DirectedSemanticsTest, WrapAroundArithmetic) {
  lang::ProcBuilder b("wrap");
  auto x = b.param("x", std::numeric_limits<Value>::min(),
                   std::numeric_limits<Value>::max());
  b.emit(x + 1);
  b.emit(x * 3);
  b.emit(b.lit(0) - x);
  const lang::Proc p = std::move(b).build();
  for (Value v : {std::numeric_limits<Value>::max(),
                  std::numeric_limits<Value>::min(), Value{0}, Value{-1}}) {
    lang::TxInput in;
    in.add(v);
    run_both(p, in);
  }
}

TEST_F(DirectedSemanticsTest, ShortCircuitSkipsRightOperand) {
  // (y == 0) || (x / y > 1): the tree-walker short-circuits, so y == 0 must
  // never evaluate the division. The VM's jump scheme must agree (the
  // division is total either way, but the emitted truth value must match).
  lang::ProcBuilder b("shortcircuit");
  auto x = b.param("x", 0, 1000);
  auto y = b.param("y", 0, 1000);
  b.emit((y == b.lit(0)) || (x / y > 1));
  b.emit((y != b.lit(0)) && (x / y > 1));
  const lang::Proc p = std::move(b).build();
  for (auto [xv, yv] :
       std::vector<std::pair<Value, Value>>{{10, 0}, {10, 3}, {2, 3}}) {
    lang::TxInput in;
    in.add(xv).add(yv);
    run_both(p, in);
  }
}

TEST(BytecodeVmTest, ArityMismatchMatchesTreeWalker) {
  const lang::Proc p = make_transfer();
  ASSERT_NE(p.code, nullptr);
  store::VersionedStore s;
  store::SnapshotView view(s, 0);
  lang::TxInput in;
  in.add(1);  // 3 params expected
  const Outcome vm = run_one(lang::Interp(), p, in, view);
  const Outcome tree = run_one(
      lang::Interp(lang::Interp::Options{.tree_walk = true}), p, in, view);
  ASSERT_TRUE(vm.threw);
  ASSERT_TRUE(tree.threw);
  EXPECT_EQ(vm.error, tree.error);
  EXPECT_EQ(vm.error, "argument count mismatch for procedure transfer");
}

TEST(BytecodeVmTest, StepLimitMatchesTreeWalker) {
  lang::ProcBuilder b("spin");
  auto n = b.param("n", 0, 1 << 20);
  auto acc = b.let("acc", b.lit(0));
  b.for_(b.lit(0), n, 1 << 20,
         [&](lang::ProcBuilder& body, lang::Val i) { body.assign(acc, acc + i); });
  b.emit(acc);
  const lang::Proc p = std::move(b).build();
  ASSERT_NE(p.code, nullptr);
  store::VersionedStore s;
  store::SnapshotView view(s, 0);
  lang::TxInput in;
  in.add(1 << 18);
  const lang::Interp::Options tight{.max_steps = 64};
  const Outcome vm = run_one(lang::Interp(tight), p, in, view);
  const Outcome tree = run_one(
      lang::Interp(lang::Interp::Options{.max_steps = 64, .tree_walk = true}),
      p, in, view);
  ASSERT_TRUE(vm.threw);
  ASSERT_TRUE(tree.threw);
  EXPECT_EQ(vm.error, tree.error);
  EXPECT_EQ(vm.error, "Interp: step limit exceeded (runaway loop?)");
}

TEST(BytecodeVmTest, BorrowedReadsMatchOwnedReads) {
  // The borrowed-pointer read path (ReadView::get_raw) must be
  // observationally identical to the legacy shared_ptr copy per GET.
  const lang::Proc p = make_transfer();
  ASSERT_NE(p.code, nullptr);
  store::VersionedStore s;
  make_accounts(s, 8, 100);
  store::SnapshotView view(s, 0);
  lang::TxInput in;
  in.add(0).add(1).add(25);
  lang::ExecResult borrowed, owned;
  bytecode::run(*p.code, in, view, 1 << 22, borrowed, /*borrow_rows=*/true);
  bytecode::run(*p.code, in, view, 1 << 22, owned, /*borrow_rows=*/false);
  EXPECT_EQ(borrowed.committed, owned.committed);
  EXPECT_EQ(borrowed.emitted, owned.emitted);
  EXPECT_EQ(borrowed.reads, owned.reads);
  EXPECT_EQ(borrowed.writes, owned.writes);
  ASSERT_EQ(borrowed.ops.size(), owned.ops.size());
}

// ---------------------------------------------------------------------------
// Differential fuzzer: random procedures, VM vs tree, prediction VM vs PSC
// ---------------------------------------------------------------------------

/// Random procedure generator. Conservatively scoped: nested blocks only
/// reference values declared in enclosing scopes, and declarations made
/// inside a block are popped on exit, so every generated procedure is
/// well-formed under both engines.
class FuzzGen {
 public:
  FuzzGen(lang::ProcBuilder& b, Rng& rng) : b_(b), rng_(rng) {}

  void generate() {
    const int params = static_cast<int>(rng_.uniform(1, 3));
    for (int i = 0; i < params; ++i) {
      std::string name = "p";
      name += std::to_string(i);
      scalars_.push_back(b_.param(std::move(name), -64, 64));
    }
    block(b_, /*budget=*/static_cast<int>(rng_.uniform(3, 7)), /*depth=*/0);
    if (rng_.percent(60)) b_.emit(expr(b_, 2));
  }

  lang::TxInput random_input(Rng& rng) const {
    lang::TxInput in;
    for (std::size_t i = 0; i < scalars_.size(); ++i) {
      in.add(rng.uniform(-64, 64));
    }
    return in;
  }

 private:
  static constexpr TableId kTables[3] = {1, 2, 3};

  lang::Val expr(lang::ProcBuilder& b, int depth) {
    const int pick = static_cast<int>(rng_.uniform(0, depth > 0 ? 9 : 3));
    switch (pick) {
      case 0:
        return b.lit(rng_.uniform(-40, 40));
      case 1:
      case 2:
        return scalars_[rng_.bounded(scalars_.size())];
      case 3:
        if (!handles_.empty()) {
          const lang::Handle h = handles_[rng_.bounded(handles_.size())];
          return rng_.percent(25)
                     ? b.exists(h)
                     : b.field(h, static_cast<FieldId>(rng_.uniform(0, 2)));
        }
        return b.lit(rng_.uniform(0, 9));
      case 4:
        return !expr(b, depth - 1);
      case 5:
        return b.min(expr(b, depth - 1), expr(b, depth - 1));
      default: {
        const lang::Val lhs = expr(b, depth - 1);
        const lang::Val rhs = expr(b, depth - 1);
        switch (rng_.uniform(0, 9)) {
          case 0: return lhs + rhs;
          case 1: return lhs - rhs;
          case 2: return lhs * rhs;
          case 3: return lhs / rhs;
          case 4: return lhs % rhs;
          case 5: return lhs == rhs;
          case 6: return lhs < rhs;
          case 7: return lhs >= rhs;
          case 8: return lhs && rhs;
          default: return lhs || rhs;
        }
      }
    }
  }

  /// Any expression is a valid key: the interpreter reduces it mod the key
  /// space via the cast to Key, identically under both engines.
  lang::Val key(lang::ProcBuilder& b) { return expr(b, 2) % Value{32}; }

  void block(lang::ProcBuilder& b, int budget, int depth) {
    const std::size_t scalar_mark = scalars_.size();
    const std::size_t handle_mark = handles_.size();
    const std::size_t let_mark = lets_.size();
    for (int i = 0; i < budget; ++i) {
      switch (rng_.uniform(0, 11)) {
        case 0:
        case 1: {
          const lang::Handle h =
              b.get(kTables[rng_.bounded(3)], key(b));
          handles_.push_back(h);
          break;
        }
        case 2:
        case 3: {
          std::vector<std::pair<FieldId, lang::Val>> fields;
          const int nf = static_cast<int>(rng_.uniform(1, 2));
          for (int f = 0; f < nf; ++f) {
            fields.emplace_back(static_cast<FieldId>(rng_.uniform(0, 2)),
                                expr(b, 2));
          }
          b.put(kTables[rng_.bounded(3)], key(b), std::move(fields));
          break;
        }
        case 4: {
          const lang::Val v =
              b.let("v" + std::to_string(lets_.size()), expr(b, 2));
          scalars_.push_back(v);
          lets_.push_back(v);
          break;
        }
        case 5:
          if (lets_.size() > let_mark) {
            b.assign(lets_[let_mark + rng_.bounded(lets_.size() - let_mark)],
                     expr(b, 2));
          } else {
            b.emit(expr(b, 2));
          }
          break;
        case 6:
          b.emit(expr(b, 2));
          break;
        case 7:
          // Rarely-true abort so most cases exercise the commit path.
          b.abort_if((expr(b, 2) % Value{17}) == Value{0});
          break;
        case 8:
          if (rng_.percent(50)) b.del(kTables[rng_.bounded(3)], key(b));
          break;
        case 9:
        case 10:
          if (depth < 2) {
            const lang::Val cond = expr(b, 2);
            if (rng_.percent(50)) {
              b.if_(cond, [&](lang::ProcBuilder& t) {
                block(t, budget / 2 + 1, depth + 1);
              });
            } else {
              b.if_(
                  cond,
                  [&](lang::ProcBuilder& t) {
                    block(t, budget / 2 + 1, depth + 1);
                  },
                  [&](lang::ProcBuilder& e) {
                    block(e, budget / 2 + 1, depth + 1);
                  });
            }
          }
          break;
        default:
          if (depth < 2) {
            b.for_(b.lit(0), expr(b, 1) % Value{4}, 4,
                   [&](lang::ProcBuilder& body, lang::Val iv) {
                     scalars_.push_back(iv);
                     block(body, budget / 2 + 1, depth + 1);
                     scalars_.pop_back();
                   });
          }
          break;
      }
    }
    scalars_.resize(scalar_mark);
    handles_.resize(handle_mark);
    lets_.resize(let_mark);
  }

  lang::ProcBuilder& b_;
  Rng& rng_;
  std::vector<lang::Val> scalars_;
  std::vector<lang::Val> lets_;
  std::vector<lang::Handle> handles_;
};

void expect_predictions_identical(const sym::Prediction& vm,
                                  const sym::Prediction& tree,
                                  const std::string& context) {
  EXPECT_EQ(std::vector<TKey>(vm.keys.begin(), vm.keys.end()),
            std::vector<TKey>(tree.keys.begin(), tree.keys.end()))
      << context;
  EXPECT_EQ(std::vector<TKey>(vm.write_keys.begin(), vm.write_keys.end()),
            std::vector<TKey>(tree.write_keys.begin(), tree.write_keys.end()))
      << context;
  ASSERT_EQ(vm.pivots.size(), tree.pivots.size()) << context;
  for (std::size_t i = 0; i < vm.pivots.size(); ++i) {
    EXPECT_EQ(vm.pivots[i].key, tree.pivots[i].key) << context << " pivot " << i;
    EXPECT_EQ(vm.pivots[i].version_hash, tree.pivots[i].version_hash)
        << context << " pivot " << i;
  }
}

TEST(BytecodeFuzzTest, RandomProceduresAreByteIdenticalUnderBothEngines) {
  constexpr int kCases = 1000;
  constexpr int kInputsPerCase = 3;

  store::VersionedStore s;
  Rng content(0xC0FFEE);
  for (TableId t : {1, 2, 3}) {
    for (Key k = 0; k < 32; ++k) {
      if (content.percent(20)) continue;  // leave some keys absent
      store::Row row;
      for (FieldId f = 0; f < 3; ++f) {
        row.set(f, content.uniform(-100, 100));
      }
      s.put({t, k}, std::move(row), 0);
    }
  }
  store::SnapshotView view(s, 0);

  const lang::Interp vm_interp;
  const lang::Interp tree_interp(lang::Interp::Options{.tree_walk = true});

  int exec_compared = 0;
  int pred_compared = 0;
  int pred_compiled = 0;
  for (int c = 0; c < kCases; ++c) {
    Rng rng(0xF022u + static_cast<std::uint64_t>(c) * 0x9e3779b97f4a7c15ull);
    lang::ProcBuilder b("fuzz_" + std::to_string(c));
    FuzzGen gen(b, rng);
    gen.generate();
    const lang::Proc proc = std::move(b).build();
    ASSERT_NE(proc.code, nullptr) << proc.name;

    for (int i = 0; i < kInputsPerCase; ++i) {
      const lang::TxInput in = gen.random_input(rng);
      const std::string ctx = proc.name + " input " + std::to_string(i);
      const Outcome vm = run_one(vm_interp, proc, in, view);
      const Outcome tree = run_one(tree_interp, proc, in, view);
      expect_identical(vm, tree, ctx);
      ++exec_compared;
    }

    // Prediction side: symbolic execution may legitimately bail on some
    // generated shapes (state cap); compare whenever a profile exists.
    std::unique_ptr<sym::TxProfile> profile;
    try {
      profile = sym::Profiler::profile(proc);
    } catch (const std::exception&) {
      continue;
    }
    if (profile == nullptr || !profile->complete()) continue;
    if (profile->pred_code() != nullptr) ++pred_compiled;
    for (int i = 0; i < kInputsPerCase; ++i) {
      const lang::TxInput in = gen.random_input(rng);
      sym::Prediction from_vm, from_tree;
      profile->predict_into(in, view, from_vm, /*tree_walk=*/false);
      profile->predict_into(in, view, from_tree, /*tree_walk=*/true);
      expect_predictions_identical(
          from_vm, from_tree, proc.name + " predict " + std::to_string(i));
      ++pred_compared;
    }
  }
  EXPECT_EQ(exec_compared, kCases * kInputsPerCase);
  EXPECT_GT(pred_compared, 0);
  EXPECT_GT(pred_compiled, kCases / 2)
      << "prediction compiler fell back to tree-walking on most profiles";
}

// ---------------------------------------------------------------------------
// Engine-level equivalence matrix
// ---------------------------------------------------------------------------

enum class Wl { kTpcc, kRubis, kCatalog };

std::unique_ptr<db::Database> run_workload(Wl which, sched::EngineConfig cfg,
                                           int batches, std::size_t n) {
  cfg.telemetry = true;
  auto db = std::make_unique<db::Database>(cfg);
  Rng rng(4242);
  switch (which) {
    case Wl::kTpcc: {
      workloads::tpcc::Workload wl(*db, workloads::tpcc::Scale::tiny(2));
      for (int i = 0; i < batches; ++i) db->execute(wl.batch(n, rng));
      break;
    }
    case Wl::kRubis: {
      workloads::rubis::Workload wl(*db, workloads::rubis::Scale::small());
      for (int i = 0; i < batches; ++i) db->execute(wl.batch(n, rng));
      break;
    }
    case Wl::kCatalog: {
      workloads::micro::CatalogOptions wopts;
      wopts.catalog_keys = 80;
      wopts.accounts = 400;
      wopts.zipf_theta = 1.1;
      workloads::micro::CatalogWorkload wl(*db, wopts);
      for (int i = 0; i < batches; ++i) {
        db->execute(wl.batch(n, /*reprice_count=*/n / 4, rng));
      }
      break;
    }
  }
  return db;
}

TEST(BytecodeEngineTest, AblationIsAPurePerformanceSwitch) {
  // For every workload: a tree-walking single-worker run is the oracle;
  // the VM must match it byte for byte at every worker count (state hash +
  // deterministic telemetry).
  for (Wl which : {Wl::kTpcc, Wl::kRubis, Wl::kCatalog}) {
    sched::EngineConfig oracle_cfg;
    oracle_cfg.workers = 1;
    oracle_cfg.tree_walk_ablation = true;
    auto oracle = run_workload(which, oracle_cfg, /*batches=*/3, /*n=*/48);
    const std::uint64_t ref_hash = oracle->state_hash();
    const std::string ref_metrics =
        oracle->telemetry()->serialize_deterministic();
    ASSERT_NE(ref_hash, 0u);
    ASSERT_FALSE(ref_metrics.empty());

    for (unsigned workers : {1u, 2u, 8u}) {
      sched::EngineConfig cfg;
      cfg.workers = workers;
      auto db = run_workload(which, cfg, 3, 48);
      EXPECT_EQ(db->state_hash(), ref_hash)
          << "workload " << static_cast<int>(which) << " workers " << workers;
      EXPECT_EQ(db->telemetry()->serialize_deterministic(), ref_metrics)
          << "workload " << static_cast<int>(which) << " workers " << workers;
    }
  }
}

// ---------------------------------------------------------------------------
// Crash-recovery fuzz arm: durable path equivalence with the oracle
// ---------------------------------------------------------------------------

constexpr TableId kBumpT = 5;
constexpr FieldId kBumpV = 0;
constexpr Value kBumpKeys = 8;

lang::Proc make_bump() {
  lang::ProcBuilder b("bump");
  auto k = b.param("k", 0, kBumpKeys - 1);
  auto amt = b.param("amt", 1, 3);
  auto row = b.get(kBumpT, k);
  b.put(kBumpT, k, {{kBumpV, row.field(kBumpV) + amt}});
  return std::move(b).build();
}

TEST(BytecodeRecoveryTest, RecoversToSameWitnessAsTreeWalker) {
  auto setup = [](db::Database& d) {
    d.register_procedure(make_bump());
    for (Key k = 0; k < static_cast<Key>(kBumpKeys); ++k) {
      d.store().put({kBumpT, k}, store::Row{{kBumpV, 0}}, 0);
    }
    d.finalize();
  };
  auto make_batch = [](std::size_t n, Rng& rng) {
    std::vector<sched::TxRequest> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      sched::TxRequest r;
      r.proc = 0;
      r.input.add(rng.uniform(0, kBumpKeys - 1));
      r.input.add(rng.uniform(1, 3));
      out.push_back(std::move(r));
    }
    return out;
  };

  consensus::RecoveryFuzzOptions opts;
  opts.warmup_rounds = 5;
  opts.armed_rounds = 5;
  opts.post_rounds = 3;
  opts.batch_size = 8;
  opts.recovery.checkpoint_interval = 3;
  opts.config.workers = 2;

  const consensus::RecoveryFuzzReport vm_rep =
      consensus::run_recovery_fuzz(setup, make_batch, opts, /*seed=*/31337);
  opts.config.tree_walk_ablation = true;
  const consensus::RecoveryFuzzReport tree_rep =
      consensus::run_recovery_fuzz(setup, make_batch, opts, /*seed=*/31337);

  EXPECT_TRUE(vm_rep.ok());
  EXPECT_TRUE(tree_rep.ok());
  EXPECT_EQ(vm_rep.witness_hash, tree_rep.witness_hash);
  EXPECT_EQ(vm_rep.state_hash, tree_rep.state_hash);
  EXPECT_EQ(vm_rep.batches_submitted, tree_rep.batches_submitted);
}

}  // namespace
}  // namespace prog
