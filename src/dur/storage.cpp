#include "dur/storage.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <map>
#include <sstream>

#include "common/stopwatch.hpp"
#include "dur/crc32c.hpp"
#include "obs/tracing/tracing.hpp"

namespace prog::dur {

namespace {

constexpr const char* kMetaHeader = "progmeta v1";

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parses the 16-hex-digit field at `pos` of `name`; nullopt on garbage.
std::optional<std::uint64_t> parse_hex16(const std::string& name,
                                         std::size_t pos) {
  if (name.size() < pos + 16) return std::nullopt;
  std::uint64_t v = 0;
  const char* first = name.data() + pos;
  const auto [ptr, ec] = std::from_chars(first, first + 16, v, 16);
  if (ec != std::errc() || ptr != first + 16) return std::nullopt;
  return v;
}

bool has_prefix(const std::string& s, std::string_view p) {
  return s.rfind(p, 0) == 0;
}

bool has_suffix(const std::string& s, std::string_view p) {
  return s.size() >= p.size() &&
         s.compare(s.size() - p.size(), p.size(), p) == 0;
}

}  // namespace

DurMetrics DurMetrics::create(obs::Registry& reg) {
  // All timing-dependent: what lands on disk (and what recovery salvages)
  // depends on the fault schedule, not on the batch sequence alone.
  DurMetrics m;
  auto c = [&](const char* name, const char* help) {
    return &reg.counter(name, help);
  };
  m.wal_bytes = c("dur_wal_bytes_total", "Framed WAL bytes appended");
  m.wal_fsyncs = c("dur_wal_fsyncs_total", "WAL group-commit fsync barriers");
  m.wal_records = c("dur_wal_records_total", "Batch records appended to WALs");
  m.torn_tails_truncated = c("dur_wal_torn_tails_total",
                             "Torn WAL tails truncated during recovery");
  m.records_quarantined =
      c("dur_wal_records_quarantined_total",
        "Corrupt WAL suffixes moved to quarantine files");
  m.io_errors =
      c("dur_io_errors_total", "Vfs failures absorbed by the write path");
  m.checkpoints_persisted =
      c("dur_checkpoints_persisted_total", "Checkpoint files published");
  m.checkpoint_bytes =
      c("dur_checkpoint_bytes_total", "Encoded checkpoint bytes published");
  m.checkpoint_decode_failures =
      c("dur_checkpoint_decode_failures_total",
        "Checkpoint slots skipped at recovery (CRC/format)");
  m.wal_records_replayed = c("dur_wal_records_replayed_total",
                             "WAL batches re-executed during recovery");
  m.replay_hash_mismatches =
      c("dur_replay_hash_mismatches_total",
        "WAL replays whose state hash disagreed with the record");
  auto src = [&](const char* which) {
    return &reg.counter("dur_recovery_total",
                        "Replica recoveries by durable substrate used",
                        obs::Determinism::kTimingDependent,
                        {{"source", which}});
  };
  m.recovery_checkpoint_wal = src("checkpoint_wal");
  m.recovery_checkpoint = src("checkpoint");
  m.recovery_wal = src("wal");
  m.recovery_none = src("none");
  return m;
}

DurableReplicaStorage::DurableReplicaStorage(Vfs& vfs, std::string dir,
                                             DurMetrics* metrics)
    : vfs_(vfs), dir_(std::move(dir)), m_(metrics) {
  vfs_.mkdirs(dir_);
}

std::string DurableReplicaStorage::wal_path(std::uint64_t start_seq) const {
  return dir_ + "/wal-" + hex16(start_seq) + ".wal";
}

std::string DurableReplicaStorage::ckpt_path(std::uint64_t seq,
                                             std::uint64_t hash) const {
  return dir_ + "/ckpt-" + hex16(seq) + "-" + hex16(hash) + ".ckpt";
}

void DurableReplicaStorage::count_io_error() {
  if (m_ != nullptr) m_->io_errors->inc();
}

void DurableReplicaStorage::open_tail(std::uint64_t start_seq) {
  tail_ = std::make_unique<WalWriter>(vfs_, wal_path(start_seq));
  tail_start_ = start_seq;
}

void DurableReplicaStorage::append_batch(const WalRecord& rec) {
  if (tail_ == nullptr) open_tail(tail_start_);
  const std::string& path = tail_->path();
  std::uint64_t pre = 0;
  try {
    // Causal tracing: one kWalFsync span per group-commit barrier, under
    // whatever context the apply path installed (the batch being persisted).
    const bool traced = obs::tracing::enabled() &&
                        obs::tracing::current().sampled;
    Stopwatch sw;
    pre = tail_->size();
    const std::size_t n = tail_->append(rec);
    tail_->sync();
    if (m_ != nullptr) m_->wal_fsyncs->inc();
    if (traced) {
      const obs::tracing::TraceContext& tctx = obs::tracing::current();
      obs::tracing::SpanEvent ev;
      ev.kind = obs::tracing::SpanKind::kWalFsync;
      ev.batch_seq = tctx.batch_seq;
      ev.replica = tctx.replica;
      ev.dur_us = sw.elapsed_micros();
      ev.arg = n;
      obs::tracing::emit(ev);
    }
    if (m_ != nullptr) {
      m_->wal_bytes->inc(n);
      m_->wal_records->inc();
    }
  } catch (const IoError&) {
    count_io_error();
    // Roll the segment back to the last frame boundary so a half-written
    // record does not poison every later append (recovery would truncate
    // at the first bad frame, losing good records behind it).
    try {
      vfs_.truncate(path, pre);
      open_tail(tail_start_);  // the old handle's state is unknown
    } catch (const IoError&) {
      count_io_error();
      tail_.reset();  // degraded: next append retries the open
    }
  }
}

std::size_t DurableReplicaStorage::append_batch_nosync(const WalRecord& rec) {
  if (tail_ == nullptr) open_tail(tail_start_);
  const std::string& path = tail_->path();
  std::uint64_t pre = 0;
  try {
    pre = tail_->size();
    const std::size_t n = tail_->append(rec);
    if (m_ != nullptr) {
      m_->wal_bytes->inc(n);
      m_->wal_records->inc();
    }
    return n;
  } catch (const IoError&) {
    count_io_error();
    // Same frame-boundary rollback as append_batch: a half-written record
    // must not poison the appends that follow it.
    try {
      vfs_.truncate(path, pre);
      open_tail(tail_start_);
    } catch (const IoError&) {
      count_io_error();
      tail_.reset();
    }
    return 0;
  }
}

bool DurableReplicaStorage::sync_wal() {
  if (tail_ == nullptr) return true;  // degraded tail: nothing to sync
  try {
    tail_->sync();
    if (m_ != nullptr) m_->wal_fsyncs->inc();
    return true;
  } catch (const IoError&) {
    count_io_error();
    return false;
  }
}

void DurableReplicaStorage::persist_checkpoint(const CheckpointImage& cp) {
  try {
    const std::size_t n =
        write_checkpoint_file(vfs_, dir_, ckpt_path(cp.seq, cp.state_hash), cp);
    if (m_ != nullptr) {
      m_->checkpoints_persisted->inc();
      m_->checkpoint_bytes->inc(n);
    }
    // New WAL epoch at the boundary: records <= cp.seq live only in older
    // segments, which pruning may now discard.
    open_tail(cp.seq);
    prune(cp.seq);
  } catch (const IoError&) {
    count_io_error();  // checkpoint not durable; the WAL chain still is
  }
}

void DurableReplicaStorage::persist_meta(std::uint64_t term,
                                         std::int64_t voted_for) {
  try {
    std::ostringstream os;
    os << kMetaHeader << '\n'
       << "term " << term << " vote " << voted_for << '\n';
    std::string bytes = os.str();
    char crc[16];
    std::snprintf(crc, sizeof crc, "crc %08x\n", crc32c(bytes));
    bytes += crc;
    const std::string tmp = dir_ + "/meta.tmp";
    if (vfs_.exists(tmp)) vfs_.remove(tmp);
    {
      auto f = vfs_.open_append(tmp);
      f->append(bytes);
      f->sync();
    }
    vfs_.rename(tmp, dir_ + "/meta");
    vfs_.sync_dir(dir_);
  } catch (const IoError&) {
    count_io_error();  // stale meta: recovery falls back to defaults
  }
}

void DurableReplicaStorage::prune(std::uint64_t newest_ckpt_seq) {
  std::vector<std::string> names = vfs_.list(dir_);

  // Checkpoint slots, oldest first (name order == seq order).
  std::vector<std::pair<std::uint64_t, std::string>> slots;
  std::vector<std::uint64_t> wal_starts;
  for (const std::string& name : names) {
    if (has_prefix(name, "ckpt-") && has_suffix(name, ".ckpt")) {
      if (const auto seq = parse_hex16(name, 5)) {
        slots.emplace_back(*seq, name);
      }
    } else if (has_prefix(name, "wal-") && has_suffix(name, ".wal")) {
      if (const auto start = parse_hex16(name, 4)) {
        wal_starts.push_back(*start);
      }
    }
  }
  std::sort(slots.begin(), slots.end());
  std::sort(wal_starts.begin(), wal_starts.end());

  const std::size_t keep = kCheckpointSlots;
  std::uint64_t oldest_kept = newest_ckpt_seq;
  if (slots.size() > keep) {
    for (std::size_t i = 0; i < slots.size() - keep; ++i) {
      vfs_.remove(dir_ + "/" + slots[i].second);
    }
    oldest_kept = slots[slots.size() - keep].first;
  } else if (!slots.empty()) {
    oldest_kept = slots.front().first;
  }

  // A segment wal-<s> holds records s+1 .. <next segment start>. It is dead
  // only when everything it holds is at or below the oldest retained
  // checkpoint — i.e. its successor's boundary is <= oldest_kept. The open
  // tail always survives.
  for (std::size_t i = 0; i + 1 < wal_starts.size(); ++i) {
    if (wal_starts[i + 1] <= oldest_kept && wal_starts[i] != tail_start_) {
      const std::string path = wal_path(wal_starts[i]);
      if (vfs_.exists(path)) vfs_.remove(path);
    }
  }
  vfs_.sync_dir(dir_);
}

DurableReplicaStorage::Recovered DurableReplicaStorage::recover() {
  Recovered out;
  vfs_.mkdirs(dir_);
  std::vector<std::string> names = vfs_.list(dir_);

  // --- raft meta -----------------------------------------------------------
  if (vfs_.exists(dir_ + "/meta")) {
    try {
      const std::string bytes = vfs_.read_all(dir_ + "/meta");
      constexpr std::size_t kFooter = 13;  // "crc xxxxxxxx\n"
      if (bytes.size() < kFooter) throw IoError("meta too short");
      std::uint32_t want = 0;
      const char* f = bytes.data() + bytes.size() - kFooter;
      if (std::string_view(f, 4) != "crc " ||
          std::from_chars(f + 4, f + 12, want, 16).ec != std::errc()) {
        throw IoError("meta footer");
      }
      const std::string_view body(bytes.data(), bytes.size() - kFooter);
      if (crc32c(body) != want) throw IoError("meta crc");
      std::istringstream is{std::string(body)};
      std::string line, word;
      if (!std::getline(is, line) || line != kMetaHeader) {
        throw IoError("meta header");
      }
      if (!(is >> word >> out.term) || word != "term") throw IoError("meta");
      if (!(is >> word >> out.voted_for) || word != "vote") {
        throw IoError("meta");
      }
      out.meta_ok = true;
    } catch (const IoError&) {
      count_io_error();  // unusable meta: rejoin with defaults
      out = Recovered{};
    }
  }

  // --- checkpoint slots ----------------------------------------------------
  quarantine_n_ = 0;
  std::vector<std::uint64_t> wal_starts;
  for (const std::string& name : names) {
    if (has_prefix(name, "ckpt-") && has_suffix(name, ".ckpt")) {
      try {
        out.checkpoints.push_back(
            decode_checkpoint(vfs_.read_all(dir_ + "/" + name)));
      } catch (const IoError&) {
        if (m_ != nullptr) m_->checkpoint_decode_failures->inc();
      }
    } else if (has_prefix(name, "wal-") && has_suffix(name, ".wal")) {
      if (const auto start = parse_hex16(name, 4)) {
        wal_starts.push_back(*start);
      }
    } else if (has_prefix(name, "quarantine-")) {
      ++quarantine_n_;
    }
  }
  std::sort(out.checkpoints.begin(), out.checkpoints.end(),
            [](const CheckpointImage& a, const CheckpointImage& b) {
              return a.seq < b.seq;
            });
  std::sort(wal_starts.begin(), wal_starts.end());

  // --- WAL segments --------------------------------------------------------
  std::map<std::uint64_t, WalRecord> by_seq;
  for (const std::uint64_t start : wal_starts) {
    WalScanStats st;
    const std::string qpath =
        dir_ + "/quarantine-" + std::to_string(quarantine_n_) + ".bad";
    std::vector<WalRecord> recs = scan_wal(vfs_, wal_path(start), qpath, &st);
    if (st.records_quarantined > 0) {
      ++quarantine_n_;
      if (obs::tracing::enabled()) {
        obs::tracing::trigger(
            obs::tracing::Anomaly::kWalQuarantine,
            std::to_string(st.records_quarantined) +
                " corrupt WAL record(s) quarantined to " + qpath +
                " during recovery of " + dir_);
      }
    }
    if (m_ != nullptr) {
      m_->torn_tails_truncated->inc(st.torn_tail_truncated);
      m_->records_quarantined->inc(st.records_quarantined);
    }
    for (WalRecord& r : recs) by_seq.insert_or_assign(r.seq, std::move(r));
  }

  // Longest contiguous suffix on top of the newest decodable checkpoint.
  const std::uint64_t base =
      out.checkpoints.empty() ? 0 : out.checkpoints.back().seq;
  for (std::uint64_t s = base + 1;; ++s) {
    auto it = by_seq.find(s);
    if (it == by_seq.end()) break;
    out.wal.push_back(std::move(it->second));
  }

  // Ready the tail for post-recovery appends: continue the newest segment.
  open_tail(wal_starts.empty() ? base : wal_starts.back());
  return out;
}

}  // namespace prog::dur
