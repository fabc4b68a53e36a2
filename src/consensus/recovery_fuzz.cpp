#include "consensus/recovery_fuzz.hpp"

#include <sstream>

#include "common/check.hpp"
#include "obs/tracing/tracing.hpp"

namespace prog::consensus {

RecoveryFuzzReport run_recovery_fuzz(const ReplicatedDb::SetupFn& setup,
                                     const BatchFn& make_batch,
                                     const RecoveryFuzzOptions& opts,
                                     std::uint64_t seed) {
  PROG_CHECK_MSG(opts.replicas >= 1, "recovery fuzz needs replicas");
  RecoveryFuzzReport rep;
  rep.mode = opts.mode;

  // Distinct streams: workload randomness must not shift when the fault
  // plan draws change (and vice versa), or seeds stop being comparable
  // across fault modes.
  Rng rng(seed);
  Rng plan_rng(seed ^ 0x9E3779B97F4A7C15ull);

  dur::FaultVfs vfs(seed ^ 0xD1B54A32D192ED03ull);
  RecoveryOptions recovery = opts.recovery;
  recovery.vfs = &vfs;
  recovery.dur_dir = "fuzz";
  ReplicatedDb rdb(opts.replicas, seed, setup, opts.config, {}, recovery);

  auto note = [&](const std::string& what) {
    std::ostringstream os;
    os << "t=" << rdb.raft().net().now() << " " << what;
    rep.trace.push_back(os.str());
  };
  auto feed = [&](unsigned rounds) {
    for (unsigned r = 0; r < rounds; ++r) {
      auto batch = make_batch(opts.batch_size, rng);
      rdb.submit_with_retry(std::move(batch), opts.submit_wait_ms);
      rdb.run_ms(opts.round_ms);
    }
  };

  feed(opts.warmup_rounds);

  rep.victim =
      static_cast<unsigned>(plan_rng.bounded(std::max(1u, opts.replicas)));
  rep.crash_syscall_budget =
      1 + plan_rng.bounded(std::max<std::uint64_t>(opts.max_crash_syscalls, 1));
  const std::string victim_dir = "fuzz/r" + std::to_string(rep.victim);
  vfs.arm(victim_dir, {opts.mode, rep.crash_syscall_budget});
  note("arm " + victim_dir + " mode=" + dur::to_string(opts.mode) +
       " kill_at_syscall=" + std::to_string(rep.crash_syscall_budget));

  for (unsigned r = 0; r < opts.armed_rounds && !vfs.crash_triggered(); ++r) {
    feed(1);
  }
  rep.crash_triggered = vfs.crash_triggered();
  note(rep.crash_triggered ? "syscall budget exhausted — storage frozen"
                           : "budget never ran out — plug pulled anyway");

  // Pull the plug: process dies, platter reverts to the fsync horizon with
  // the armed fault applied to the in-flight tail.
  rdb.crash_replica(rep.victim);
  vfs.power_fail(victim_dir);
  note("power fail " + victim_dir);
  rdb.run_ms(opts.round_ms);  // let the survivors notice / re-elect
  rdb.restart_replica(rep.victim);
  note("restart replica " + std::to_string(rep.victim));

  for (int d = 0; d < 20 && !rdb.converged(); ++d) rdb.run_ms(opts.drain_ms);
  rdb.run_ms(opts.drain_ms);

  // Witness check at the recovered quiescent point: every replica must be
  // byte-identical to a replay that never saw the crash.
  rep.witness_hash = rdb.witness_state_hash();
  rep.witness_match = rdb.converged();
  for (const std::uint64_t h : rdb.state_hashes()) {
    if (h != rep.witness_hash) rep.witness_match = false;
  }
  note("witness hash " + std::to_string(rep.witness_hash) +
       (rep.witness_match ? " — matched by all replicas" : " — MISMATCH"));
  if (!rep.witness_match && obs::tracing::enabled()) {
    obs::tracing::trigger(
        obs::tracing::Anomaly::kFuzzMismatch,
        "crash-fuzz witness mismatch: mode " +
            std::string(dur::to_string(opts.mode)) + ", seed " +
            std::to_string(seed) + ", victim replica " +
            std::to_string(rep.victim) + ", witness hash " +
            std::to_string(rep.witness_hash));
  }

  // Prove the recovered replica keeps up with live traffic, then settle.
  feed(opts.post_rounds);
  for (int d = 0; d < 20 && !rdb.converged(); ++d) rdb.run_ms(opts.drain_ms);
  rdb.run_ms(opts.drain_ms);

  rep.converged = rdb.converged();
  const auto hashes = rdb.state_hashes();
  rep.hashes_match = !hashes.empty();
  for (const std::uint64_t h : hashes) {
    if (h == 0 || h != hashes[0]) rep.hashes_match = false;
  }
  rep.state_hash = hashes.empty() ? 0 : hashes[0];
  rep.batches_submitted = rdb.batches_submitted();
  rep.recovery = rdb.recovery_stats();

  const std::string snap0 = rdb.deterministic_counter_snapshot(0);
  rep.counters_match = rep.converged && !snap0.empty();
  for (unsigned i = 1; i < opts.replicas; ++i) {
    if (rdb.deterministic_counter_snapshot(i) != snap0) {
      rep.counters_match = false;
    }
  }

  const dur::DurMetrics& dm = *rdb.dur_metrics();
  rep.torn_tails_truncated = dm.torn_tails_truncated->value();
  rep.records_quarantined = dm.records_quarantined->value();
  rep.io_errors = dm.io_errors->value();
  rdb.refresh_gauges();
  return rep;
}

}  // namespace prog::consensus
