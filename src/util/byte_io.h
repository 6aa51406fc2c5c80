#ifndef DEEPSD_UTIL_BYTE_IO_H_
#define DEEPSD_UTIL_BYTE_IO_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace deepsd {
namespace util {

/// Append-only byte sink for the binary file formats (dataset, parameters,
/// checkpoints). All multi-byte values are written in host order, matching
/// the historical stream-based writers, so existing files stay readable.
class ByteWriter {
 public:
  const std::vector<char>& bytes() const { return bytes_; }
  std::vector<char> TakeBytes() { return std::move(bytes_); }
  size_t size() const { return bytes_.size(); }

  void PutRaw(const void* data, size_t size) {
    if (size == 0) return;
    const size_t old = bytes_.size();
    bytes_.resize(old + size);
    std::memcpy(bytes_.data() + old, data, size);
  }

  template <typename T>
  void PutPod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutRaw(&v, sizeof(T));
  }

  /// u32 length prefix + bytes.
  void PutString(const std::string& s) {
    PutPod<uint32_t>(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }

  /// u64 element count + raw elements.
  template <typename T>
  void PutPodVec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutPod<uint64_t>(v.size());
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(T));
  }

  /// LEB128 variable-width unsigned integer: 7 value bits per byte, high
  /// bit marks continuation. Small values cost one byte; the worst case
  /// (>= 2^63) costs ten.
  void PutVarint64(uint64_t v) {
    while (v >= 0x80) {
      PutPod<uint8_t>(static_cast<uint8_t>(v) | 0x80);
      v >>= 7;
    }
    PutPod<uint8_t>(static_cast<uint8_t>(v));
  }

  /// Zigzag-mapped signed varint: small-magnitude values of either sign
  /// encode small (0→0, -1→1, 1→2, -2→3, ...).
  void PutZigzag64(int64_t v) {
    PutVarint64((static_cast<uint64_t>(v) << 1) ^
                static_cast<uint64_t>(v >> 63));
  }

  /// Fixed-width bit packing: each value stored in exactly `bits` bits
  /// (0 <= bits <= 64), little-endian within the packed stream. Values
  /// must fit in `bits` bits; callers size `bits` from the maximum.
  /// Writes only the packed payload — callers record `n` and `bits`.
  void PutBitPacked(const uint64_t* vals, size_t n, int bits) {
    uint64_t acc = 0;
    int filled = 0;
    for (size_t i = 0; i < n; ++i) {
      if (bits == 0) continue;
      acc |= vals[i] << filled;
      filled += bits;
      if (filled >= 64) {
        PutPod<uint64_t>(acc);
        filled -= 64;
        // Bits of vals[i] that did not fit in the flushed word.
        acc = (filled == 0) ? 0 : vals[i] >> (bits - filled);
      }
    }
    while (filled > 0) {
      PutPod<uint8_t>(static_cast<uint8_t>(acc));
      acc >>= 8;
      filled -= 8;
    }
  }

 private:
  std::vector<char> bytes_;
};

/// Number of bits needed to represent `v` (0 for v == 0).
inline int BitWidth64(uint64_t v) {
  int bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

/// Packed byte length of `n` values at `bits` bits each, as PutBitPacked
/// lays them out (whole u64 words, then the byte-granular tail).
inline size_t BitPackedBytes(size_t n, int bits) {
  const uint64_t total_bits = static_cast<uint64_t>(n) * bits;
  const uint64_t words = total_bits / 64;
  const uint64_t tail_bits = total_bits % 64;
  return static_cast<size_t>(words * 8 + (tail_bits + 7) / 8);
}

/// Bounds-checked reader over an in-memory buffer. Every accessor returns
/// false instead of reading past the end, so loaders can turn torn or
/// truncated files into typed Status errors rather than undefined behavior.
/// The reader never allocates more than the buffer can actually back: a
/// length prefix larger than the remaining bytes fails immediately, which is
/// what defuses absurd-size allocations from corrupt headers.
class ByteReader {
 public:
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit ByteReader(const std::vector<char>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  /// Advances past `size` bytes without copying them.
  bool Skip(size_t size) {
    if (size > remaining()) return false;
    pos_ += size;
    return true;
  }

  bool GetRaw(void* out, size_t size) {
    if (size > remaining()) return false;
    // memcpy wants valid pointers even for zero bytes, and an empty
    // buffer's (or destination vector's) data() may be null.
    if (size > 0) std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return true;
  }

  template <typename T>
  bool GetPod(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    return GetRaw(out, sizeof(T));
  }

  bool GetString(std::string* out, uint32_t max_len = 1u << 20) {
    uint32_t len = 0;
    if (!GetPod(&len) || len > max_len || len > remaining()) return false;
    out->assign(data_ + pos_, len);
    pos_ += len;
    return true;
  }

  template <typename T>
  bool GetPodVec(std::vector<T>* out) {
    uint64_t n = 0;
    if (!GetPod(&n)) return false;
    if (n > remaining() / sizeof(T)) return false;
    out->resize(static_cast<size_t>(n));
    return n == 0 || GetRaw(out->data(), static_cast<size_t>(n) * sizeof(T));
  }

  /// Decodes a PutVarint64 value. Fails on truncation and on encodings
  /// longer than the 10-byte maximum (corrupt continuation bits).
  bool GetVarint64(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      uint8_t byte = 0;
      if (!GetPod(&byte)) return false;
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
  }

  bool GetZigzag64(int64_t* out) {
    uint64_t v = 0;
    if (!GetVarint64(&v)) return false;
    *out = static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
    return true;
  }

  /// Decodes `n` values of `bits` bits each, as PutBitPacked laid them out.
  bool GetBitPacked(uint64_t* out, size_t n, int bits) {
    if (bits < 0 || bits > 64) return false;
    if (bits == 0) {
      for (size_t i = 0; i < n; ++i) out[i] = 0;
      return true;
    }
    const size_t nbytes = BitPackedBytes(n, bits);
    if (nbytes > remaining()) return false;
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(data_ + pos_);
    const uint64_t mask =
        bits == 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t bitpos = static_cast<uint64_t>(i) * bits;
      size_t byte = static_cast<size_t>(bitpos >> 3);
      const int off = static_cast<int>(bitpos & 7);
      uint64_t v = static_cast<uint64_t>(p[byte++]) >> off;
      // A value spans at most nine bytes (64 bits + a 7-bit offset); bits
      // of the final byte past the value's end belong to the next value
      // and are shifted out by the mask.
      for (int got = 8 - off; got < bits; got += 8) {
        v |= static_cast<uint64_t>(p[byte++]) << got;
      }
      out[i] = v & mask;
    }
    pos_ += nbytes;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Lossless float-array codec for checkpoint and parameter tensors. Each
/// block self-describes with a one-byte mode: raw floats, bit-packed
/// XOR deltas between consecutive elements, or bit-packed XOR deltas
/// against a same-length reference array (e.g. the live params a best-k
/// snapshot was taken near). The writer measures all applicable modes and
/// emits the smallest, so a block is never larger than raw + 1 byte.
/// Bit-exact for every value including NaN/Inf payloads — safe for the
/// bitwise crash-resume contract.
void PutFloatBlock(ByteWriter* w, const float* data, size_t n,
                   const float* ref = nullptr);
bool GetFloatBlock(ByteReader* r, float* out, size_t n,
                   const float* ref = nullptr);

/// Reads the whole file into `*out`. Fault injection (util::FaultInjector)
/// is applied to the returned bytes when enabled, so loaders built on this
/// helper are exactly the ones the fault harness can exercise.
Status ReadFileBytes(const std::string& path, std::vector<char>* out);

/// Writes `bytes` to `path` atomically: the data goes to `path + ".tmp"`
/// first and is renamed over `path` only after a complete write, so a
/// crash (or SIGKILL) mid-write can never leave a torn file at `path`.
Status AtomicWriteFile(const std::string& path, const void* data, size_t size);
Status AtomicWriteFile(const std::string& path, const std::vector<char>& bytes);

}  // namespace util
}  // namespace deepsd

#endif  // DEEPSD_UTIL_BYTE_IO_H_
