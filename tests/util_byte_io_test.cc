// The byte codecs every binary format is built on (util/byte_io.h):
// varint/zigzag boundary values, fixed-width bit packing across word
// seams at every width 0..64, truncated-buffer rejection (the torn-file
// contract: readers return false, never read past the end), the lossless
// FloatBlock codec (raw / self-XOR / ref-XOR modes, chunked widths,
// NaN/Inf payload preservation), and CRC detection of single bit flips
// in the file formats layered on top.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "util/byte_io.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace deepsd {
namespace util {
namespace {

TEST(VarintTest, BoundaryValuesRoundTrip) {
  const uint64_t cases[] = {0,
                            1,
                            0x7f,
                            0x80,
                            0x3fff,
                            0x4000,
                            (uint64_t{1} << 32) - 1,
                            uint64_t{1} << 32,
                            (uint64_t{1} << 63) - 1,
                            uint64_t{1} << 63,
                            std::numeric_limits<uint64_t>::max()};
  ByteWriter w;
  for (uint64_t v : cases) w.PutVarint64(v);
  ByteReader r(w.bytes());
  for (uint64_t v : cases) {
    uint64_t got = 0;
    ASSERT_TRUE(r.GetVarint64(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(VarintTest, EncodedSizeMatchesMagnitude) {
  auto size_of = [](uint64_t v) {
    ByteWriter w;
    w.PutVarint64(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(0x7f), 1u);
  EXPECT_EQ(size_of(0x80), 2u);
  EXPECT_EQ(size_of(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(VarintTest, TruncatedBufferFails) {
  ByteWriter w;
  w.PutVarint64(uint64_t{1} << 42);  // multi-byte encoding
  for (size_t keep = 0; keep + 1 < w.size(); ++keep) {
    ByteReader r(w.bytes().data(), keep);
    uint64_t v = 0;
    EXPECT_FALSE(r.GetVarint64(&v)) << "keep=" << keep;
  }
}

TEST(VarintTest, OverlongEncodingRejected) {
  // Eleven continuation bytes: no valid varint64 is that long.
  std::vector<char> bytes(11, static_cast<char>(0xff));
  ByteReader r(bytes);
  uint64_t v = 0;
  EXPECT_FALSE(r.GetVarint64(&v));
}

TEST(ZigzagTest, BoundaryValuesRoundTrip) {
  const int64_t cases[] = {0,
                           1,
                           -1,
                           63,
                           -64,
                           64,
                           -65,
                           std::numeric_limits<int32_t>::max(),
                           std::numeric_limits<int32_t>::min(),
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min()};
  ByteWriter w;
  for (int64_t v : cases) w.PutZigzag64(v);
  ByteReader r(w.bytes());
  for (int64_t v : cases) {
    int64_t got = 0;
    ASSERT_TRUE(r.GetZigzag64(&got));
    EXPECT_EQ(got, v);
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ZigzagTest, SmallMagnitudesEncodeSmall) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-63},
                    int64_t{63}}) {
    ByteWriter w;
    w.PutZigzag64(v);
    EXPECT_EQ(w.size(), 1u) << v;
  }
}

TEST(BitPackedTest, AllWidthsRoundTripAcrossWordSeams) {
  util::Rng rng(5);
  for (int bits = 0; bits <= 64; ++bits) {
    const uint64_t mask =
        bits == 64 ? ~uint64_t{0}
                   : (bits == 0 ? 0 : (uint64_t{1} << bits) - 1);
    // 37 values: not a multiple of any word boundary, so every width
    // exercises a split across the u64 flush and the byte-granular tail.
    std::vector<uint64_t> vals(37);
    for (auto& v : vals) {
      v = (static_cast<uint64_t>(rng.Uniform(0.0f, 1.0f) * (1u << 30)) |
           (static_cast<uint64_t>(rng.Uniform(0.0f, 1.0f) * (1u << 30))
            << 34)) &
          mask;
    }
    if (bits > 0) vals[0] = mask;  // extremes
    if (bits > 0) vals[36] = 0;
    ByteWriter w;
    w.PutBitPacked(vals.data(), vals.size(), bits);
    EXPECT_EQ(w.size(), BitPackedBytes(vals.size(), bits)) << bits;
    ByteReader r(w.bytes());
    std::vector<uint64_t> got(vals.size());
    ASSERT_TRUE(r.GetBitPacked(got.data(), got.size(), bits)) << bits;
    EXPECT_EQ(got, vals) << bits;
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(BitPackedTest, TruncatedPayloadFails) {
  std::vector<uint64_t> vals(16, 0x1ffu);
  ByteWriter w;
  w.PutBitPacked(vals.data(), vals.size(), 9);
  ByteReader r(w.bytes().data(), w.size() - 1);
  std::vector<uint64_t> got(vals.size());
  EXPECT_FALSE(r.GetBitPacked(got.data(), got.size(), 9));
  // Invalid widths are rejected outright.
  ByteReader r2(w.bytes());
  EXPECT_FALSE(r2.GetBitPacked(got.data(), got.size(), 65));
  EXPECT_FALSE(r2.GetBitPacked(got.data(), got.size(), -1));
}

TEST(BitWidthTest, Boundaries) {
  EXPECT_EQ(BitWidth64(0), 0);
  EXPECT_EQ(BitWidth64(1), 1);
  EXPECT_EQ(BitWidth64(2), 2);
  EXPECT_EQ(BitWidth64(255), 8);
  EXPECT_EQ(BitWidth64(256), 9);
  EXPECT_EQ(BitWidth64(~uint64_t{0}), 64);
}

TEST(ByteReaderTest, SkipBoundsChecked) {
  std::vector<char> buf(10, 'x');
  ByteReader r(buf);
  EXPECT_TRUE(r.Skip(4));
  EXPECT_EQ(r.position(), 4u);
  EXPECT_FALSE(r.Skip(7));  // only 6 left
  EXPECT_EQ(r.position(), 4u);
  EXPECT_TRUE(r.Skip(6));
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReaderTest, ZeroByteReadsOfAnEmptyBuffer) {
  // Zero-byte reads succeed on a buffer whose data() is null, into a
  // destination that is null too; anything larger fails.
  const std::vector<char> empty;
  ByteReader r(empty);
  EXPECT_TRUE(r.GetRaw(nullptr, 0));
  EXPECT_TRUE(r.Skip(0));
  std::vector<float> floats;
  EXPECT_TRUE(r.GetRaw(floats.data(), 0));
  uint32_t pod = 7;
  EXPECT_FALSE(r.GetPod(&pod));
  EXPECT_EQ(pod, 7u);
  EXPECT_EQ(r.position(), 0u);

  ByteWriter w;
  w.PutPodVec(std::vector<double>{});
  w.PutString("");
  PutFloatBlock(&w, floats.data(), 0, nullptr);
  ByteReader vr(w.bytes());
  std::vector<double> out = {1.0};
  EXPECT_TRUE(vr.GetPodVec(&out));
  EXPECT_TRUE(out.empty());
  std::string s = "x";
  EXPECT_TRUE(vr.GetString(&s));
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(GetFloatBlock(&vr, floats.data(), 0, nullptr));
  EXPECT_EQ(vr.remaining(), 0u);
}

TEST(ByteReaderTest, PodVecHugeCountRejectedWithoutAllocation) {
  ByteWriter w;
  w.PutPod<uint64_t>(std::numeric_limits<uint64_t>::max());  // absurd count
  ByteReader r(w.bytes());
  std::vector<double> out;
  EXPECT_FALSE(r.GetPodVec(&out));
  EXPECT_TRUE(out.empty());
}

// --- FloatBlock -----------------------------------------------------------

std::vector<float> RandomFloats(size_t n, uint64_t seed, float scale) {
  util::Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = rng.Uniform(-scale, scale);
  return v;
}

void RoundTrip(const std::vector<float>& data, const float* ref,
               const char* what) {
  ByteWriter w;
  PutFloatBlock(&w, data.data(), data.size(), ref);
  // Never larger than raw + the mode byte (writer picks the min).
  EXPECT_LE(w.size(), data.size() * sizeof(float) + 16) << what;
  ByteReader r(w.bytes());
  std::vector<float> out(data.size());
  ASSERT_TRUE(GetFloatBlock(&r, out.data(), out.size(), ref)) << what;
  // memcmp wants non-null pointers even for zero bytes.
  EXPECT_TRUE(data.empty() || std::memcmp(data.data(), out.data(),
                                          data.size() * sizeof(float)) == 0)
      << what;
}

TEST(FloatBlockTest, RoundTripsBitExact) {
  RoundTrip({}, nullptr, "empty");
  RoundTrip({1.5f}, nullptr, "single");
  RoundTrip(RandomFloats(7, 1, 2.0f), nullptr, "small");
  RoundTrip(RandomFloats(1000, 2, 1.0f), nullptr, "multi-chunk");
  std::vector<float> constant(600, 3.25f);
  RoundTrip(constant, nullptr, "constant");
}

TEST(FloatBlockTest, PreservesNanInfAndSignedZero) {
  std::vector<float> v = RandomFloats(520, 3, 1.0f);
  v[0] = std::numeric_limits<float>::quiet_NaN();
  v[1] = std::numeric_limits<float>::infinity();
  v[2] = -std::numeric_limits<float>::infinity();
  v[3] = -0.0f;
  v[4] = std::numeric_limits<float>::denorm_min();
  // Put a payload-carrying NaN in (bit-exactness covers the payload too).
  uint32_t nan_bits = 0x7fc12345u;
  std::memcpy(&v[5], &nan_bits, sizeof(nan_bits));
  ByteWriter w;
  PutFloatBlock(&w, v.data(), v.size());
  ByteReader r(w.bytes());
  std::vector<float> out(v.size());
  ASSERT_TRUE(GetFloatBlock(&r, out.data(), out.size()));
  EXPECT_EQ(0, std::memcmp(v.data(), out.data(), v.size() * sizeof(float)));
}

TEST(FloatBlockTest, ReferenceModeShrinksNearbyTensors) {
  // A snapshot that differs from the reference only in the low mantissa
  // bits: ref-XOR deltas are tiny, self-deltas are full-width.
  std::vector<float> ref = RandomFloats(800, 4, 1.0f);
  std::vector<float> snap = ref;
  util::Rng rng(5);
  for (auto& x : snap) {
    uint32_t bits;
    std::memcpy(&bits, &x, 4);
    bits ^= static_cast<uint32_t>(rng.Uniform(0.0f, 1.0f) * 255.0f);
    std::memcpy(&x, &bits, 4);
  }
  ByteWriter with_ref, without_ref;
  PutFloatBlock(&with_ref, snap.data(), snap.size(), ref.data());
  PutFloatBlock(&without_ref, snap.data(), snap.size());
  EXPECT_LT(with_ref.size(), without_ref.size());
  EXPECT_LT(with_ref.size(), snap.size() * sizeof(float) / 2);
  ByteReader r(with_ref.bytes());
  std::vector<float> out(snap.size());
  ASSERT_TRUE(GetFloatBlock(&r, out.data(), out.size(), ref.data()));
  EXPECT_EQ(0,
            std::memcmp(snap.data(), out.data(), snap.size() * sizeof(float)));
}

TEST(FloatBlockTest, ChunkedWidthsIsolateOutliers) {
  // 512-value chunks: one huge-delta outlier must not widen the packing
  // of every other chunk, so the blob stays well under raw.
  std::vector<float> v(4096, 1.0f);
  v[4000] = 3.0e38f;  // full-width XOR delta in its chunk only
  ByteWriter w;
  PutFloatBlock(&w, v.data(), v.size());
  EXPECT_LT(w.size(), v.size() * sizeof(float) / 4);
  ByteReader r(w.bytes());
  std::vector<float> out(v.size());
  ASSERT_TRUE(GetFloatBlock(&r, out.data(), out.size()));
  EXPECT_EQ(0, std::memcmp(v.data(), out.data(), v.size() * sizeof(float)));
}

TEST(FloatBlockTest, TruncatedBufferFails) {
  std::vector<float> v = RandomFloats(300, 6, 1.0f);
  ByteWriter w;
  PutFloatBlock(&w, v.data(), v.size());
  std::vector<float> out(v.size());
  for (size_t keep : {size_t{0}, size_t{1}, w.size() / 2, w.size() - 1}) {
    ByteReader r(w.bytes().data(), keep);
    EXPECT_FALSE(GetFloatBlock(&r, out.data(), out.size())) << keep;
  }
}

TEST(FloatBlockTest, CrcSealedContainerCatchesBitFlips) {
  // The pattern every on-disk format wraps around these codecs: payload
  // length + payload + CRC. Any single bit flip must be detected.
  std::vector<float> v = RandomFloats(256, 7, 1.0f);
  ByteWriter payload;
  PutFloatBlock(&payload, v.data(), v.size());
  ByteWriter file;
  file.PutPod<uint64_t>(payload.size());
  file.PutRaw(payload.bytes().data(), payload.size());
  file.PutPod<uint32_t>(Crc32(payload.bytes().data(), payload.size()));

  util::Rng rng(8);
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<char> corrupt = file.bytes();
    const size_t byte =
        8 + static_cast<size_t>(rng.Uniform(0.0f, 1.0f) *
                                static_cast<float>(payload.size()));
    const int bit = trial % 8;
    corrupt[byte] ^= static_cast<char>(1 << bit);

    ByteReader r(corrupt);
    uint64_t len = 0;
    ASSERT_TRUE(r.GetPod(&len));
    ASSERT_EQ(len, payload.size());
    const char* body = corrupt.data() + r.position();
    ASSERT_TRUE(r.Skip(len));
    uint32_t crc = 0;
    ASSERT_TRUE(r.GetPod(&crc));
    EXPECT_NE(Crc32(body, static_cast<size_t>(len)), crc)
        << "byte " << byte << " bit " << bit;
  }
}

}  // namespace
}  // namespace util
}  // namespace deepsd
