// Table I — profiling of the symbolic-execution analysis of every update
// transaction in TPC-C and RUBiS, with and without the optimizations
// (irrelevant-variable concolic execution + DFS subtree merging).
//
// Matches the paper's columns: states explored/total, depth optimized/max,
// unique key-sets, indirect keys (pivot reads per execution), memory
// optimized/unoptimized, execution time optimized/unoptimized.
#include <iostream>

#include "benchutil/table.hpp"
#include "lang/builder.hpp"
#include "sym/symexec.hpp"
#include "workloads/rubis.hpp"
#include "workloads/tpcc.hpp"

namespace {

using prog::benchutil::fmt;
using prog::benchutil::Table;
using prog::sym::Profiler;

struct RowInput {
  std::string name;
  prog::lang::Proc proc;
};

void profile_row(Table& table, const RowInput& in) {
  Profiler::Options opt;  // all optimizations on
  auto optimized = Profiler::profile(in.proc, opt);

  Profiler::Options unopt;
  unopt.use_relevance = false;
  unopt.merge_subtrees = false;
  unopt.max_states = 1u << 20;  // cap the unoptimized exploration
  auto unoptimized = Profiler::profile(in.proc, unopt);

  const auto& m = optimized->metrics();
  const auto& mu = unoptimized->metrics();
  std::string total_states = std::to_string(mu.states_explored);
  if (!unoptimized->complete()) {
    total_states.insert(0, 1, '>');
    total_states += " (capped; est " +
                    prog::benchutil::fmt_si(
                        static_cast<double>(m.states_total_est)) +
                    ")";
  }
  table.row({
      in.name,
      std::to_string(m.states_explored) + " / " + total_states,
      std::to_string(m.depth) + " / " + std::to_string(mu.depth_max),
      std::to_string(m.unique_key_sets),
      std::to_string(m.pivot_sites),
      fmt(static_cast<double>(m.memory_bytes) / 1024.0, 0) + " / " +
          fmt(static_cast<double>(mu.memory_bytes) / 1024.0, 0),
      fmt(m.analysis_seconds * 1000, 1) + " / " +
          fmt(mu.analysis_seconds * 1000, 1) +
          (unoptimized->complete() ? "" : " (capped)"),
  });
}

}  // namespace

int main() {
  using prog::workloads::tpcc::Scale;
  std::cout << "=== Table I: Symbolic-execution analysis of update "
               "transactions ===\n"
            << "(states explored with optimizations / without; depth "
               "optimized / max;\n memory and time optimized / unoptimized; "
               "KB and ms on this host)\n\n";

  Table table({"transaction", "states expl/total", "depth opt/max",
               "key-sets", "indirect keys", "memory KB opt/unopt",
               "time ms opt/unopt"});

  const Scale sc = Scale::small(4);
  const prog::workloads::rubis::Scale rsc = prog::workloads::rubis::Scale::small();

  // The paper instantiates new_order at fixed iteration counts.
  for (int iters : {5, 10, 15}) {
    profile_row(table,
                {"TPC-C: new order (" + std::to_string(iters) + " iters.)",
                 prog::workloads::tpcc::build_new_order(sc, iters, iters)});
  }
  profile_row(table, {"TPC-C: new order (5-15 iters.)",
                      prog::workloads::tpcc::build_new_order(sc)});
  profile_row(table, {"TPC-C: payment",
                      prog::workloads::tpcc::build_payment(sc)});
  profile_row(table, {"TPC-C: delivery",
                      prog::workloads::tpcc::build_delivery(sc)});
  profile_row(table, {"RUBiS: store bid",
                      prog::workloads::rubis::build_store_bid(rsc)});
  profile_row(table, {"RUBiS: store buy now",
                      prog::workloads::rubis::build_store_buy_now(rsc)});
  profile_row(table, {"RUBiS: store comment",
                      prog::workloads::rubis::build_store_comment(rsc)});
  profile_row(table, {"RUBiS: register user",
                      prog::workloads::rubis::build_register_user(rsc)});
  profile_row(table, {"RUBiS: register item",
                      prog::workloads::rubis::build_register_item(rsc)});

  table.print();
  std::cout << "\nPaper shape check: new_order collapses to 1 key-set with 1 "
               "pivot at fixed\niterations; delivery explodes to 1024 "
               "key-sets (2^10 districts) with 20-30 pivot\nreads; every "
               "RUBiS update transaction is a DT with >=1 pivot; analysis "
               "stays\nwithin seconds and megabytes.\n";
  return 0;
}
