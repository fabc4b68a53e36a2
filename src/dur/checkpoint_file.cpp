#include "dur/checkpoint_file.hpp"

#include <array>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/decimal.hpp"
#include "dur/crc32c.hpp"

namespace prog::dur {

namespace {

constexpr const char* kHeader = "progckpt v1";

[[noreturn]] void malformed(const std::string& why) {
  throw IoError("checkpoint file: " + why);
}

/// The 16 deterministic engine counters in their fixed v1 order. Appending
/// new fields requires a format bump — the golden-file test locks this.
std::array<std::uint64_t, 16> stats_fields(const sched::EngineStats& s) {
  return {s.batches,
          s.committed,
          s.rolled_back,
          s.validation_aborts,
          s.rounds,
          s.mf_fallback_txns,
          s.mf_fallback_batches,
          s.committed_by_class[0],
          s.committed_by_class[1],
          s.committed_by_class[2],
          s.rolled_back_by_class[0],
          s.rolled_back_by_class[1],
          s.rolled_back_by_class[2],
          s.validation_aborts_by_class[0],
          s.validation_aborts_by_class[1],
          s.validation_aborts_by_class[2]};
}

sched::EngineStats stats_from_fields(const std::array<std::uint64_t, 16>& f) {
  sched::EngineStats s;
  s.batches = f[0];
  s.committed = f[1];
  s.rolled_back = f[2];
  s.validation_aborts = f[3];
  s.rounds = f[4];
  s.mf_fallback_txns = f[5];
  s.mf_fallback_batches = f[6];
  for (std::size_t c = 0; c < 3; ++c) {
    s.committed_by_class[c] = f[7 + c];
    s.rolled_back_by_class[c] = f[10 + c];
    s.validation_aborts_by_class[c] = f[13 + c];
  }
  return s;
}

}  // namespace

std::string encode_checkpoint(const CheckpointImage& cp) {
  // One allocation: the fixed lines and the footer fit in 512 bytes, and
  // each prefix entry takes at most 21.
  std::string out;
  const std::string& image = *cp.image;
  out.reserve(512 + 21 * cp.command_prefix.size() + image.size());
  out += kHeader;
  out += "\nseq ";
  append_decimal(out, cp.seq);
  out += " term ";
  append_decimal(out, cp.term);
  out += " hash ";
  append_decimal(out, cp.state_hash);
  out += "\nstats";
  for (const std::uint64_t v : stats_fields(cp.engine_stats)) {
    out += ' ';
    append_decimal(out, v);
  }
  out += "\nprefix ";
  append_decimal(out, cp.command_prefix.size());
  for (const std::uint64_t c : cp.command_prefix) {
    out += ' ';
    append_decimal(out, c);
  }
  out += "\nimage ";
  append_decimal(out, image.size());
  out += '\n';
  out += image;
  char crc[16];
  std::snprintf(crc, sizeof crc, "crc %08x\n", crc32c(out));
  out += crc;
  return out;
}

CheckpointImage decode_checkpoint(const std::string& bytes) {
  // Footer first: the CRC covers everything before the "crc " line, so a
  // flipped bit anywhere — headers or image — fails here.
  constexpr std::size_t kFooter = 13;  // "crc xxxxxxxx\n"
  if (bytes.size() < kFooter) malformed("too short");
  const std::string_view footer(bytes.data() + bytes.size() - kFooter,
                                kFooter);
  if (footer.substr(0, 4) != "crc " || footer.back() != '\n') {
    malformed("missing crc footer");
  }
  std::uint32_t want = 0;
  const auto [ptr, ec] = std::from_chars(
      footer.data() + 4, footer.data() + 12, want, 16);
  if (ec != std::errc() || ptr != footer.data() + 12) {
    malformed("bad crc footer");
  }
  const std::string_view body(bytes.data(), bytes.size() - kFooter);
  if (crc32c(body) != want) malformed("crc mismatch");

  std::istringstream is{std::string(body)};
  std::string line;
  if (!std::getline(is, line) || line != kHeader) malformed("bad header");

  CheckpointImage cp;
  std::string word;
  if (!(is >> word >> cp.seq) || word != "seq") malformed("bad seq");
  if (!(is >> word >> cp.term) || word != "term") malformed("bad term");
  if (!(is >> word >> cp.state_hash) || word != "hash") malformed("bad hash");

  if (!(is >> word) || word != "stats") malformed("bad stats");
  std::array<std::uint64_t, 16> fields{};
  for (std::uint64_t& f : fields) {
    if (!(is >> f)) malformed("truncated stats");
  }
  cp.engine_stats = stats_from_fields(fields);

  std::size_t prefix_count = 0;
  if (!(is >> word >> prefix_count) || word != "prefix") {
    malformed("bad prefix");
  }
  cp.command_prefix.reserve(prefix_count);
  for (std::size_t i = 0; i < prefix_count; ++i) {
    std::uint64_t c = 0;
    if (!(is >> c)) malformed("truncated prefix");
    cp.command_prefix.push_back(c);
  }

  std::size_t image_bytes = 0;
  if (!(is >> word >> image_bytes) || word != "image") malformed("bad image");
  if (!std::getline(is, line)) malformed("missing image body");  // eat '\n'
  const std::size_t image_off = static_cast<std::size_t>(is.tellg());
  if (image_off + image_bytes != body.size()) {
    malformed("image length disagrees with file size");
  }
  cp.image = std::make_shared<const std::string>(
      body.substr(image_off, image_bytes));
  return cp;
}

std::size_t write_checkpoint_file(Vfs& vfs, const std::string& dir,
                                  const std::string& path,
                                  const CheckpointImage& cp) {
  const std::string bytes = encode_checkpoint(cp);
  const std::string tmp = path + ".tmp";
  if (vfs.exists(tmp)) vfs.remove(tmp);
  {
    auto f = vfs.open_append(tmp);
    f->append(bytes);
    f->sync();
  }
  vfs.rename(tmp, path);
  vfs.sync_dir(dir);
  return bytes.size();
}

}  // namespace prog::dur
