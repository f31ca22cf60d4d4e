// Byte-level primitives of the workload trace format (docs/WORKLOADS.md):
// LEB128 varints, zigzag signed mapping, fixed-width little-endian scalars
// and CRC-32 (IEEE 802.3 polynomial, the zlib crc32 convention).
//
// Everything is explicitly little-endian and byte-oriented, so a trace
// written on one machine reads identically on any other.
#ifndef SRC_WKLD_WIRE_H_
#define SRC_WKLD_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hlrc {
namespace wkld {

using Buffer = std::vector<uint8_t>;

// ---- varint / zigzag -------------------------------------------------------

inline void PutVarint(Buffer& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutZigZag(Buffer& out, int64_t v) { PutVarint(out, ZigZag(v)); }

// Bounds-checked sequential reader over an in-memory byte span.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == size_; }
  size_t pos() const { return pos_; }

  bool ReadVarint(uint64_t* v) {
    uint64_t result = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= size_ || shift >= 64) {
        return Fail();
      }
      const uint8_t byte = data_[pos_++];
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        break;
      }
      shift += 7;
    }
    *v = result;
    return true;
  }

  bool ReadZigZag(int64_t* v) {
    uint64_t raw;
    if (!ReadVarint(&raw)) {
      return false;
    }
    *v = UnZigZag(raw);
    return true;
  }

  bool ReadBytes(uint8_t* out, size_t n) {
    if (size_ - pos_ < n) {
      return Fail();
    }
    for (size_t i = 0; i < n; ++i) {
      out[i] = data_[pos_ + i];
    }
    pos_ += n;
    return true;
  }

  bool ReadU8(uint8_t* v) { return ReadBytes(v, 1); }

 private:
  bool Fail() {
    ok_ = false;
    return false;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---- fixed-width little-endian scalars -------------------------------------

inline void PutU32(Buffer& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// ---- CRC-32 ----------------------------------------------------------------

// CRC-32/IEEE over `data` (crc32("123456789") == 0xCBF43926). `seed` chains
// incremental computations: pass the previous return value.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t seed = 0);

inline uint32_t Crc32(const Buffer& buf, uint32_t seed = 0) {
  return Crc32(buf.data(), buf.size(), seed);
}

}  // namespace wkld
}  // namespace hlrc

#endif  // SRC_WKLD_WIRE_H_
