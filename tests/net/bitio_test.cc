#include "net/bitio.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace elmo::net {
namespace {

TEST(BitWriter, MsbFirstLayout) {
  BitWriter out;
  out.write(0b101, 3);
  out.write(0b1, 1);
  out.write(0b0000, 4);
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10110000);
}

TEST(BitWriter, PadsFinalByteWithZeros) {
  BitWriter out;
  out.write(0b11, 2);
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b11000000);
}

TEST(BitWriter, AlignToByte) {
  BitWriter out;
  out.write(1, 1);
  out.align_to_byte();
  EXPECT_EQ(out.bit_count(), 8u);
  out.write(0xff, 8);
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x80);
  EXPECT_EQ(bytes[1], 0xff);
}

TEST(BitWriter, RejectsOver64Bits) {
  BitWriter out;
  EXPECT_THROW(out.write(0, 65), std::invalid_argument);
}

TEST(BitWriter, MasksBitsAboveWidth) {
  // Only the low `bits` bits of a value are the field. The rest must land
  // nowhere: not in the fields around it, not in the padding, whether the
  // field starts on a byte boundary or inside a byte.
  BitWriter out;
  out.write(0xFF, 3);
  out.write(0, 5);
  out.write(0, 2);
  out.write(~0ULL, 3);
  out.write(0xFA, 3);
  out.write(~0ULL, 1);
  const auto bytes = out.take();
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0b11100000, 0b00111010,
                                              0b10000000}));
}

TEST(BitWriter, ZeroWidthWriteIsNoOp) {
  BitWriter out;
  out.write(0xFF, 0);
  EXPECT_EQ(out.bit_count(), 0u);
  EXPECT_TRUE(out.bytes().empty());
  out.write(1, 1);
  out.write(~0ULL, 0);
  EXPECT_EQ(out.bit_count(), 1u);
  const auto bytes = out.take();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x80);
}

TEST(BitWriter, AlignOnAlignedStreamAddsNothing) {
  BitWriter out;
  out.align_to_byte();
  EXPECT_EQ(out.bit_count(), 0u);
  out.write(0xab, 8);
  out.align_to_byte();
  EXPECT_EQ(out.bit_count(), 8u);
  EXPECT_EQ(out.byte_count(), 1u);
  out.write(0x3, 2);
  out.align_to_byte();
  out.align_to_byte();
  EXPECT_EQ(out.bit_count(), 16u);
  const auto bytes = out.take();
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0xab, 0xc0}));
}

TEST(BitWriter, TakeResetsTheWriter) {
  BitWriter out;
  out.write(0x5, 3);
  EXPECT_EQ(out.take(), (std::vector<std::uint8_t>{0xa0}));
  out.write(0x1, 1);
  EXPECT_EQ(out.take(), (std::vector<std::uint8_t>{0x80}));
}

// Property: mixed widths 0..64 at random bit offsets (a random-length
// prefix, byte alignments sprinkled in) read back with BitReader; the
// values carry random bits above their width, which must be dropped.
TEST(BitWriter, MixedWidthsAtRandomOffsetsRoundTrip) {
  util::Rng rng{2024};
  for (int trial = 0; trial < 200; ++trial) {
    struct Field {
      std::uint64_t value;
      unsigned bits;
      bool align_before;
    };
    std::vector<Field> fields;
    BitWriter out;
    const auto prefix = static_cast<unsigned>(rng.index(64));
    out.write(rng(), prefix);
    for (int i = 0; i < 40; ++i) {
      const Field f{rng(), static_cast<unsigned>(rng.index(65)),
                    rng.bernoulli(0.1)};
      if (f.align_before) out.align_to_byte();
      out.write(f.value, f.bits);
      fields.push_back(f);
    }
    const auto total_bits = out.bit_count();
    const auto bytes = out.take();
    ASSERT_EQ(bytes.size(), (total_bits + 7) / 8);

    BitReader in{bytes};
    in.read(prefix);
    for (const auto& f : fields) {
      if (f.align_before) in.align_to_byte();
      const std::uint64_t mask =
          f.bits == 64 ? ~0ULL : ((1ULL << f.bits) - 1);
      ASSERT_EQ(in.read(f.bits), f.value & mask)
          << "trial " << trial << " width " << f.bits;
    }
    EXPECT_EQ(in.bit_position(), total_bits);
    // Padding after the last field is zero.
    if (in.bits_remaining() > 0) {
      EXPECT_EQ(in.read(static_cast<unsigned>(in.bits_remaining())), 0u);
    }
  }
}

TEST(BitReader, ReadsBackWriterOutput) {
  BitWriter out;
  out.write(0x2a, 7);
  out.write_bool(true);
  out.write(0xdeadbeef, 32);
  const auto bytes = out.take();

  BitReader in{bytes};
  EXPECT_EQ(in.read(7), 0x2au);
  EXPECT_TRUE(in.read_bool());
  EXPECT_EQ(in.read(32), 0xdeadbeefu);
}

TEST(BitReader, ThrowsPastEnd) {
  const std::vector<std::uint8_t> one{0xff};
  BitReader in{one};
  in.read(8);
  EXPECT_THROW(in.read(1), std::out_of_range);
}

TEST(BitReader, SkipThenRead) {
  BitWriter out;
  out.write(0x5, 3);
  out.write(0xabcdef, 24);   // skipped
  out.write(0x1234, 13);     // straddles three bytes
  out.write(0xffffffffffffffffull, 64);  // skipped
  out.write(0x2, 2);
  const auto bytes = out.take();

  BitReader in{bytes};
  EXPECT_EQ(in.read(3), 0x5u);
  in.skip(24);
  EXPECT_EQ(in.bit_position(), 27u);
  EXPECT_EQ(in.read(13), 0x1234u);
  in.skip(64);
  EXPECT_EQ(in.read(2), 0x2u);
  in.skip(0);
  EXPECT_EQ(in.bit_position(), 106u);
}

TEST(BitReader, SkipPastEndThrows) {
  const std::vector<std::uint8_t> two{0xff, 0x00};
  BitReader in{two};
  in.skip(3);
  EXPECT_THROW(in.skip(14), std::out_of_range);
  EXPECT_EQ(in.bit_position(), 3u);  // a failed skip moves nothing
  in.skip(13);                       // exactly to the end
  EXPECT_EQ(in.bits_remaining(), 0u);
  EXPECT_THROW(in.skip(1), std::out_of_range);
}

TEST(BitReader, PositionTracking) {
  const std::vector<std::uint8_t> data{0x00, 0x00, 0x00};
  BitReader in{data};
  in.read(3);
  EXPECT_EQ(in.bit_position(), 3u);
  EXPECT_EQ(in.byte_position(), 1u);  // rounds up
  in.align_to_byte();
  EXPECT_EQ(in.bit_position(), 8u);
  EXPECT_EQ(in.bits_remaining(), 16u);
}

// Property: random field sequences round-trip for all widths.
class BitIoRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitIoRoundTrip, RandomValuesSurvive) {
  const unsigned width = GetParam();
  util::Rng rng{width * 7919u};
  std::vector<std::uint64_t> values;
  BitWriter out;
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t mask =
        width == 64 ? ~0ULL : ((1ULL << width) - 1);
    const auto v = rng() & mask;
    values.push_back(v);
    out.write(v, width);
  }
  const auto bytes = out.take();
  BitReader in{bytes};
  for (const auto v : values) {
    EXPECT_EQ(in.read(width), v);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitIoRoundTrip,
                         ::testing::Values(1u, 2u, 3u, 5u, 7u, 8u, 11u, 13u,
                                           16u, 24u, 31u, 32u, 48u, 63u, 64u));

TEST(BitsFor, KnownValues) {
  EXPECT_EQ(bits_for(1), 1u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(3), 2u);
  EXPECT_EQ(bits_for(4), 2u);
  EXPECT_EQ(bits_for(5), 3u);
  EXPECT_EQ(bits_for(12), 4u);
  EXPECT_EQ(bits_for(576), 10u);
  EXPECT_EQ(bits_for(1024), 10u);
  EXPECT_EQ(bits_for(1025), 11u);
}

}  // namespace
}  // namespace elmo::net
