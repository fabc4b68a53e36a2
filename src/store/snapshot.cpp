#include "store/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/decimal.hpp"

namespace prog::store {

namespace {

constexpr const char* kHeader = "state v1";
constexpr std::string_view kTrailer = "end\n";

struct ImageRow {
  TKey key;
  const Row* row;
};

[[noreturn]] void malformed(const std::string& why) {
  throw UsageError("state image: " + why);
}

void append_header(std::string& out, std::size_t rows, std::uint64_t hash) {
  out += kHeader;
  out += ' ';
  append_decimal(out, rows);
  out += ' ';
  append_decimal(out, hash);
  out += '\n';
}

void append_row(std::string& out, TKey key, const Row& row) {
  out += "r ";
  append_decimal(out, key.table);
  out += ' ';
  append_decimal(out, key.key);
  out += ' ';
  append_decimal(out, row.field_count());
  for (const auto& [f, v] : row) {
    out += ' ';
    append_decimal(out, f);
    out += ' ';
    append_decimal(out, v);
  }
  out += '\n';
}

// Reads back the lines append_row wrote. The builder parses only images it
// produced itself, so a parse failure is a bug, not bad input.
template <typename T>
const char* parse_decimal(const char* p, const char* end, T& v) {
  const auto [ptr, ec] = std::from_chars(p, end, v);
  PROG_CHECK_MSG(ec == std::errc(), "state image line does not parse");
  return ptr;
}

/// Key of the row line at `p` ("r <table> <key> ...").
TKey line_key(const char* p, const char* end) {
  TKey key;
  p = parse_decimal(p + 2, end, key.table);
  parse_decimal(p + 1, end, key.key);
  return key;
}

/// Row of the row line [p, end).
Row line_row(const char* p, const char* end) {
  TKey key;
  std::size_t fields = 0;
  p = parse_decimal(p + 2, end, key.table);
  p = parse_decimal(p + 1, end, key.key);
  p = parse_decimal(p + 1, end, fields);
  Row row;
  for (std::size_t i = 0; i < fields; ++i) {
    FieldId f = 0;
    Value v = 0;
    p = parse_decimal(p + 1, end, f);
    p = parse_decimal(p + 1, end, v);
    row.set(f, v);
  }
  return row;
}

}  // namespace

std::string serialize_visible(const VersionedStore& store, BatchId snapshot) {
  // Collect and sort so the bytes are canonical: two stores with equal
  // visible state produce identical images no matter how they got there.
  std::vector<ImageRow> rows;
  store.for_each_visible(snapshot, [&rows](TKey key, const Row& row) {
    rows.push_back({key, &row});
  });
  std::sort(rows.begin(), rows.end(),
            [](const ImageRow& a, const ImageRow& b) { return a.key < b.key; });

  // Appends into one string. 24 bytes is about one TPC-C row (two or three
  // small fields); wider rows grow it geometrically. The result is trimmed
  // to its length because checkpoints keep images alive.
  std::string out;
  out.reserve(32 + rows.size() * 24);
  append_header(out, rows.size(), store.state_hash(snapshot));
  for (const ImageRow& r : rows) append_row(out, r.key, *r.row);
  out += kTrailer;
  out.shrink_to_fit();
  return out;
}

std::uint64_t image_state_hash(const std::string& image) {
  std::istringstream is(image);
  std::string word, version;
  std::size_t count = 0;
  std::uint64_t hash = 0;
  if (!(is >> word >> version >> count >> hash) || word != "state" ||
      version != "v1") {
    malformed("bad header");
  }
  return hash;
}

void restore_visible(VersionedStore& dst, const std::string& image,
                     BatchId at) {
  std::istringstream is(image);
  std::string word, version;
  std::size_t count = 0;
  std::uint64_t want_hash = 0;
  if (!(is >> word >> version >> count >> want_hash) || word != "state" ||
      version != "v1") {
    malformed("bad header");
  }

  // Pass 1: install every image row.
  std::vector<TKey> image_keys;
  image_keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t table = 0, key = 0;
    std::size_t nfields = 0;
    if (!(is >> word >> table >> key >> nfields) || word != "r") {
      malformed("bad row record");
    }
    Row row;
    for (std::size_t f = 0; f < nfields; ++f) {
      std::uint64_t fid = 0;
      Value v = 0;
      if (!(is >> fid >> v)) malformed("bad field");
      row.set(static_cast<FieldId>(fid), v);
    }
    const TKey tkey{static_cast<TableId>(table), key};
    image_keys.push_back(tkey);
    // Skip the write when the destination already holds this exact row —
    // keeps version chains (and GC pressure) minimal on mostly-equal stores.
    const RowPtr cur = dst.get(tkey);
    if (cur == nullptr || !(*cur == row)) dst.put(tkey, std::move(row), at);
  }
  if (!(is >> word) || word != "end") malformed("missing trailer");

  // Pass 2: tombstone every visible key the image does not contain.
  std::sort(image_keys.begin(), image_keys.end());
  std::vector<TKey> stale;
  dst.for_each_visible(VersionedStore::kLatest, [&](TKey key, const Row&) {
    if (!std::binary_search(image_keys.begin(), image_keys.end(), key)) {
      stale.push_back(key);
    }
  });
  for (TKey key : stale) dst.del(key, at);

  PROG_CHECK_MSG(dst.state_hash() == want_hash,
                 "restored state hash does not match the image header");
}

// --- incremental images ------------------------------------------------------

void StateImageBuilder::reset() {
  store_ = nullptr;
  image_.reset();
  std::vector<std::uint32_t>().swap(lines_);
  std::vector<std::uint32_t>().swap(next_lines_);
}

StateImageBuilder::Image StateImageBuilder::full_build(VersionedStore& store) {
  ++full_builds_;
  Image image = std::make_shared<const std::string>(serialize_visible(store));
  // Line offsets are 32-bit; a larger image is rebuilt in full every time.
  if (image->size() > std::numeric_limits<std::uint32_t>::max()) {
    reset();
    return image;
  }
  const char* base = image->data();
  const std::size_t body_end = image->size() - kTrailer.size();
  lines_.clear();
  std::size_t pos = image->find('\n') + 1;
  body_begin_ = static_cast<std::uint32_t>(pos);
  while (pos < body_end) {
    lines_.push_back(static_cast<std::uint32_t>(pos));
    pos = static_cast<const char*>(
              std::memchr(base + pos, '\n', body_end - pos)) - base + 1;
  }
  store_ = &store;
  image_ = image;
  hash_ = store.state_hash();
  return image;
}

StateImageBuilder::Image StateImageBuilder::build(VersionedStore& store) {
  keys_.clear();
  const bool complete = store.take_written_keys(keys_);
  if (image_ == nullptr || store_ != &store || !complete) {
    return full_build(store);
  }
  std::sort(keys_.begin(), keys_.end());
  keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());

  const std::string& old = *image_;
  const char* base = old.data();
  const auto body_end =
      static_cast<std::uint32_t>(old.size() - kTrailer.size());
  // Offset of old line i; one past the last line is the trailer.
  const auto line_at = [&](std::size_t i) {
    return i < lines_.size() ? lines_[i] : body_end;
  };

  // Plan: where each dirty key's line goes, its new bytes, and what the
  // header's row count and hash become.
  patches_.clear();
  fresh_.clear();
  std::uint64_t hash = hash_;
  std::size_t rows = lines_.size();
  std::size_t body = body_end - body_begin_;
  const auto before = [base, body_end](std::uint32_t off, TKey k) {
    return line_key(base + off, base + body_end) < k;
  };
  auto lo = lines_.begin();
  for (const TKey key : keys_) {
    // Galloping search from the previous key's line: the keys are sorted,
    // so the probes stay close together in the image instead of starting
    // each binary search over the whole index.
    std::size_t step = 1;
    while (step < static_cast<std::size_t>(lines_.end() - lo) &&
           before(lo[step - 1], key)) {
      step *= 2;
    }
    const auto hi = lo + std::min<std::size_t>(step, lines_.end() - lo);
    lo = std::lower_bound(lo + step / 2, hi, key, before);
    Patch p{};
    p.old_line = static_cast<std::uint32_t>(lo - lines_.begin());
    p.replaces =
        lo != lines_.end() && line_key(base + *lo, base + body_end) == key;
    if (p.replaces) {
      const std::uint32_t b = *lo;
      const std::uint32_t e = line_at(p.old_line + 1);
      hash -=
          VersionedStore::row_term(key, line_row(base + b, base + e).hash());
      body -= e - b;
      --rows;
    }
    p.fresh_begin = static_cast<std::uint32_t>(fresh_.size());
    if (const Row* row = store.get_ptr(key); row != nullptr) {
      append_row(fresh_, key, *row);
      hash += VersionedStore::row_term(key, row->hash());
      ++rows;
    }
    p.fresh_end = static_cast<std::uint32_t>(fresh_.size());
    if (p.replaces || p.fresh_end != p.fresh_begin) patches_.push_back(p);
  }
  PROG_CHECK_MSG(hash == store.state_hash(),
                 "incremental state image missed a write: its hash "
                 "disagrees with the store's");

  std::string header;
  append_header(header, rows, hash);
  const std::size_t total =
      header.size() + body + fresh_.size() + kTrailer.size();
  if (total > std::numeric_limits<std::uint32_t>::max()) {
    return full_build(store);
  }

  // Assemble: unchanged runs of old lines are copied whole; their offsets
  // shift by one constant per run (unsigned wrap-around is exact here,
  // since every offset fits in 32 bits).
  std::string out;
  out.reserve(total);
  out += header;
  next_lines_.clear();
  next_lines_.reserve(rows);
  std::uint32_t next_old = 0;
  const auto copy_old_lines = [&](std::uint32_t upto) {
    if (upto == next_old) return;
    const std::uint32_t b = lines_[next_old];
    const std::uint32_t e = line_at(upto);
    const auto shift = static_cast<std::uint32_t>(out.size()) - b;
    for (std::uint32_t i = next_old; i < upto; ++i) {
      next_lines_.push_back(lines_[i] + shift);
    }
    out.append(base + b, e - b);
    next_old = upto;
  };
  for (const Patch& p : patches_) {
    copy_old_lines(p.old_line);
    if (p.fresh_end != p.fresh_begin) {
      next_lines_.push_back(static_cast<std::uint32_t>(out.size()));
      out.append(fresh_, p.fresh_begin, p.fresh_end - p.fresh_begin);
    }
    if (p.replaces) next_old = p.old_line + 1;
  }
  copy_old_lines(static_cast<std::uint32_t>(lines_.size()));
  out += kTrailer;
  PROG_CHECK(out.size() == total && next_lines_.size() == rows);

  body_begin_ = static_cast<std::uint32_t>(header.size());
  hash_ = hash;
  lines_.swap(next_lines_);
  image_ = std::make_shared<const std::string>(std::move(out));
  return image_;
}

}  // namespace prog::store
