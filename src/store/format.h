#ifndef DEEPSD_STORE_FORMAT_H_
#define DEEPSD_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace deepsd {
namespace store {

/// On-disk layout of a DSAR1 model artifact — the immutable, page-aligned,
/// CRC-sealed container behind ModelStore (docs/model_store.md):
///
///   [FileHeader: 64 bytes]
///   [section TOC: section_count × SectionEntry]
///   [padding to the next page boundary]
///   [section 0 payload][zero padding to page]
///   [section 1 payload][zero padding to page]
///   ...
///
/// Every section payload starts on a page_size boundary, so a reader can
/// hand out pointers straight into the mapping with natural alignment for
/// any element type the sections contain (f32/i64 arrays at worst). All
/// integers are little-endian host-order PODs, like every other format in
/// the repo (util/byte_io.h).
///
/// Versioning: `version` is the writer's format version; `min_reader` is
/// the oldest reader version that can still parse the file. A reader
/// accepts a file iff its own kFormatVersion >= header.min_reader — a
/// future writer can add sections (old readers skip unknown kinds) without
/// bumping min_reader, and bumps it only for breaking layout changes,
/// which v1 readers then reject with a typed error instead of misparsing.
inline constexpr char kMagic[8] = {'D', 'S', 'A', 'R', '1', '\0', '\0', '\0'};
inline constexpr uint32_t kFormatVersion = 1;
inline constexpr uint32_t kMinReaderVersion = 1;
inline constexpr uint32_t kPageSize = 4096;

struct FileHeader {
  char magic[8];
  uint32_t version;
  uint32_t min_reader;
  uint64_t file_size;      ///< Total bytes, padding included.
  uint32_t section_count;
  uint32_t page_size;      ///< Alignment the writer used (kPageSize).
  uint64_t toc_offset;     ///< Byte offset of the SectionEntry array.
  uint64_t toc_bytes;      ///< section_count * sizeof(SectionEntry).
  uint32_t toc_crc;        ///< CRC-32 of the TOC bytes.
  uint32_t header_crc;     ///< CRC-32 of the header up to this field.
  uint64_t reserved;
};
static_assert(sizeof(FileHeader) == 64, "DSAR1 header is 64 bytes");

/// Number of leading header bytes sealed by header_crc (everything before
/// the header_crc field itself).
inline constexpr size_t kHeaderCrcBytes = offsetof(FileHeader, header_crc);

struct SectionEntry {
  char kind[16];       ///< NUL-padded section tag, e.g. "params.bin".
  uint64_t offset;     ///< Absolute byte offset; page_size-aligned.
  uint64_t length;     ///< Payload bytes (padding excluded).
  uint32_t crc;        ///< CRC-32 of the payload bytes.
  uint32_t flags;      ///< Reserved, 0.
  uint64_t reserved;
};
static_assert(sizeof(SectionEntry) == 48, "DSAR1 TOC entry is 48 bytes");

/// Section kinds of format version 1.
inline constexpr char kSectionManifest[] = "manifest";
/// Tensor table of contents: names, shapes, encodings, and offsets into
/// the params.bin blob section.
inline constexpr char kSectionParamsIndex[] = "params.idx";
/// Raw tensor payloads, each 64-byte aligned within the section.
inline constexpr char kSectionParamsBlob[] = "params.bin";
/// Dense empirical-average tables (see stored_model.h).
inline constexpr char kSectionEa[] = "ea";

/// Encoding of one tensor's payload in params.bin.
enum class TensorEncoding : uint8_t {
  /// Raw fp32, 64-byte aligned — served zero-copy as a Tensor::View into
  /// the mapping.
  kRawF32 = 0,
  /// Lossless FloatBlock compression (util/byte_io.h); decoded into owned
  /// storage at bind time.
  kCompressedF32 = 1,
  /// int8 codes + per-column fp32 scales (nn::kernels::QuantizedWeights
  /// layout); bound as the quant cache plus a dequantized fp32 value.
  kInt8 = 2,
};

inline std::string SectionKindToString(const char (&kind)[16]) {
  return std::string(kind, strnlen(kind, sizeof(kind)));
}

inline uint64_t PageAlign(uint64_t offset, uint64_t page_size) {
  return (offset + page_size - 1) / page_size * page_size;
}

}  // namespace store
}  // namespace deepsd

#endif  // DEEPSD_STORE_FORMAT_H_
