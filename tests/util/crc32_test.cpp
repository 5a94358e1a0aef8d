// CRC-32 record framing (util/crc32.hpp): the `<body> crc <8-hex>` trailer
// the budget ledger and the shard checkpoint log use to detect torn or
// bit-flipped records.
#include "util/crc32.hpp"

#include <gtest/gtest.h>

#include <string>

namespace {

// The CRC-32/IEEE check value, so records stay readable by zlib's crc32.
TEST(CrcFrameTest, Crc32MatchesStandardCheckValue) {
  EXPECT_EQ(sgp::util::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(sgp::util::crc32(""), 0u);
  EXPECT_EQ(sgp::util::crc32_hex(0xCBF43926u), "cbf43926");
  EXPECT_EQ(sgp::util::crc32_hex(0x1u), "00000001");
}

TEST(CrcFrameTest, FrameAppendsTheBodysHexTrailer) {
  const std::string body = "shard 0 rows 0 4 bytes 128";
  EXPECT_EQ(sgp::util::crc_frame(body),
            body + " crc " + sgp::util::crc32_hex(sgp::util::crc32(body)));
  // A body that itself contains " crc " still unframes to itself: the
  // trailer is found from the right.
  const std::string tricky = "a crc b";
  std::string out;
  ASSERT_TRUE(sgp::util::crc_unframe(sgp::util::crc_frame(tricky), out));
  EXPECT_EQ(out, tricky);
}

TEST(CrcFrameTest, RoundTrips) {
  const std::string body = "{\"type\":\"event\",\"name\":\"x\"}";
  const std::string line = sgp::util::crc_frame(body);
  std::string out;
  ASSERT_TRUE(sgp::util::crc_unframe(line, out));
  EXPECT_EQ(out, body);
}

TEST(CrcFrameTest, UnframeRejectsCorruption) {
  std::string line = sgp::util::crc_frame("{\"a\":1}");
  std::string out;
  // Flip one body byte: the trailer no longer matches.
  line[2] = line[2] == 'a' ? 'b' : 'a';
  EXPECT_FALSE(sgp::util::crc_unframe(line, out));
  // Truncated trailer (a torn write) is rejected, not trusted.
  const std::string full = sgp::util::crc_frame("{\"a\":1}");
  EXPECT_FALSE(sgp::util::crc_unframe(full.substr(0, full.size() - 3), out));
  EXPECT_FALSE(sgp::util::crc_unframe("no trailer here", out));
}

}  // namespace
