// Stream-free decimal formatting for the text formats (state images,
// checkpoint files), which are built by appending into one string.
#pragma once

#include <charconv>
#include <string>

namespace prog {

/// Appends the decimal form of integer `v` to `out`: the digits operator<<
/// writes, without an ostream.
template <typename T>
void append_decimal(std::string& out, T v) {
  char buf[20];  // the longest 64-bit value, sign included
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace prog
