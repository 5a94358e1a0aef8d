// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over byte strings.
//
// Shared by the durable on-disk logs — the budget ledger (core/ledger.cpp)
// and the shard checkpoint log (core/sharded_publish.cpp) — whose text
// records each carry a per-record checksum so a torn or bit-flipped line is
// detected on load instead of silently corrupting recovery. Both frame a
// record the same way:
// `<body> crc <8-hex-crc32>` (crc_frame / crc_unframe below).
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace sgp::util {

namespace detail {
inline const std::array<std::uint32_t, 256>& crc32_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}
}  // namespace detail

/// CRC-32 of `bytes`, standard init/final xor (matches zlib's crc32).
[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = detail::crc32_table()[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^
        (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// `crc` as 8 lower-case hex digits (printf "%08x") — the on-disk spelling
/// of every checksum field.
[[nodiscard]] inline std::string crc32_hex(std::uint32_t crc) {
  char hex[16];
  std::snprintf(hex, sizeof(hex), "%08x", crc);
  return hex;
}

/// `body` -> `<body> crc <8-hex-crc32 of body>`.
[[nodiscard]] inline std::string crc_frame(const std::string& body) {
  return body + " crc " + crc32_hex(crc32(body));
}

/// Validates a framed line; on success strips the trailer into `body`. A
/// torn or bit-flipped line, or one with no trailer, returns false.
[[nodiscard]] inline bool crc_unframe(const std::string& line,
                                      std::string& body) {
  const std::size_t pos = line.rfind(" crc ");
  if (pos == std::string::npos) return false;
  body = line.substr(0, pos);
  return crc_frame(body) == line;
}

}  // namespace sgp::util
