#include "net/bitio.h"

namespace elmo::net {

void BitWriter::write(std::uint64_t value, unsigned bits) {
  if (bits > 64) throw std::invalid_argument{"BitWriter: bits > 64"};
  buffer_.resize((bit_count_ + bits + 7) / 8);  // new bytes start zeroed
  // Fill the current byte's free low bits, then whole bytes, MSB-first. Each
  // chunk takes only bits below `bits`, so higher bits of `value` never land.
  while (bits > 0) {
    const unsigned room = 8 - static_cast<unsigned>(bit_count_ % 8);
    const unsigned n = room < bits ? room : bits;
    bits -= n;
    const auto chunk = static_cast<unsigned>(value >> bits) & ((1u << n) - 1);
    buffer_[bit_count_ / 8] |= static_cast<std::uint8_t>(chunk << (room - n));
    bit_count_ += n;
  }
}

void BitWriter::align_to_byte() {
  // The partial final byte already exists and its unwritten bits are zero.
  bit_count_ = (bit_count_ + 7) / 8 * 8;
}

std::vector<std::uint8_t> BitWriter::take() {
  align_to_byte();
  bit_count_ = 0;
  auto out = std::move(buffer_);
  buffer_.clear();
  return out;
}

std::uint64_t BitReader::read(unsigned bits) {
  if (bits > 64) throw std::invalid_argument{"BitReader: bits > 64"};
  if (bits > bits_remaining()) {
    throw std::out_of_range{"BitReader: read past end"};
  }
  // Take the current byte's unread high bits, then whole bytes, MSB-first.
  std::uint64_t value = 0;
  while (bits > 0) {
    const unsigned room = 8 - static_cast<unsigned>(position_ % 8);
    const unsigned n = room < bits ? room : bits;
    const unsigned chunk =
        (unsigned{data_[position_ / 8]} >> (room - n)) & ((1u << n) - 1);
    value = (value << n) | chunk;
    position_ += n;
    bits -= n;
  }
  return value;
}

}  // namespace elmo::net
