#include "store/snapshot.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "common/decimal.hpp"

namespace prog::store {

namespace {

constexpr const char* kHeader = "state v1";

struct ImageRow {
  TKey key;
  const Row* row;
};

[[noreturn]] void malformed(const std::string& why) {
  throw UsageError("state image: " + why);
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
  out += kHeader;
  out += ' ';
  append_decimal(out, rows.size());
  out += ' ';
  append_decimal(out, store.state_hash(snapshot));
  out += '\n';
  for (const ImageRow& r : rows) {
    out += "r ";
    append_decimal(out, r.key.table);
    out += ' ';
    append_decimal(out, r.key.key);
    out += ' ';
    append_decimal(out, r.row->field_count());
    for (const auto& [f, v] : *r.row) {
      out += ' ';
      append_decimal(out, f);
      out += ' ';
      append_decimal(out, v);
    }
    out += '\n';
  }
  out += "end\n";
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

}  // namespace prog::store
