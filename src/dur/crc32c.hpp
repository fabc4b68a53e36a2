// CRC32C (Castagnoli) — the durability layer's record checksum.
//
// Portable slice-by-8 table implementation (reflected polynomial
// 0x82F63B78), tables built at static-init time. The checksum is on the
// apply path: every checkpoint CRCs its whole file (about 0.9 MB for a
// loaded TPC-C warehouse) and every WAL record its payload, so the loop
// folds eight input bytes per step through eight 256-entry tables instead
// of one byte per lookup (about 5x faster on 0.9 MB). Input words are
// assembled byte by byte, so the result does not depend on the host's byte
// order or on alignment, and no CPU-specific instructions are needed. The
// polynomial matches the hardware-accelerated CRC32C everything else in the
// storage world uses, so images written here stay verifiable elsewhere.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace prog::dur {

namespace detail {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0] is the classic bytewise table; tables[k][i] is the CRC of byte
/// i followed by k zero bytes, so eight lookups advance the CRC by 8 bytes.
inline const Crc32cTables& crc32c_tables() {
  static const Crc32cTables tables = [] {
    Crc32cTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
      t[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC32C of `data`, optionally chained from a previous value.
inline std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) {
  const auto& t = detail::crc32c_tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t crc = ~seed;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ detail::load_le32(p);
    const std::uint32_t hi = detail::load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

}  // namespace prog::dur
