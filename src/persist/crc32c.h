#ifndef QUASII_PERSIST_CRC32C_H_
#define QUASII_PERSIST_CRC32C_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace quasii::persist {

namespace internal {

/// Little-endian 32-bit word assembled from bytes: the same value on every
/// host (compilers fold it into one load where that is exact).
inline std::uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace internal

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78) — the checksum
/// framing every WAL record and snapshot payload. Portable table-driven
/// software implementation, slicing-by-8: eight 256-entry tables fold eight
/// input bytes per step, and a byte-at-a-time loop finishes the tail. Input
/// words are assembled from bytes, so neither host endianness nor CPU
/// features (no SSE4.2 `crc32` instruction) can change a checksum, and the
/// on-disk format stays CPU-independent.
inline std::uint32_t Crc32c(const void* data, std::size_t n) {
  using Table = std::array<std::uint32_t, 256>;
  // t[0] is the classic bytewise table; t[k][b] advances t[k-1][b] by one
  // more zero byte, so t[k] folds byte p[7 - k] of an 8-byte step.
  static const std::array<Table, 8> t = [] {
    std::array<Table, 8> out{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0x82F63B78u ^ (c >> 1) : c >> 1;
      }
      out[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      for (std::size_t k = 1; k < 8; ++k) {
        const std::uint32_t prev = out[k - 1][i];
        out[k][i] = out[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return out;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ internal::LoadLe32(p);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu];
    crc ^= t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24];
    crc ^= t[3][p[4]] ^ t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace quasii::persist

#endif  // QUASII_PERSIST_CRC32C_H_
