#ifndef FEDGTA_COMMON_SERIALIZE_H_
#define FEDGTA_COMMON_SERIALIZE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace fedgta {
namespace serialize {

/// Versioned binary serialization for checkpoints and other durable state.
///
/// File layout:
///   [u32 magic "FGTA"] [u32 format version] [u64 payload size]
///   [u32 CRC32 of payload] [payload bytes]
/// The payload is a flat little-endian stream produced by Writer and
/// consumed by Reader in the same order. Every fallible operation returns a
/// Status: a truncated file, a foreign file (bad magic), a version from a
/// different build, or a corrupted payload (CRC mismatch) must surface as a
/// recoverable error, never as a CHECK abort or a silent partial load.

inline constexpr uint32_t kMagic = 0x46475441u;  // "FGTA"
inline constexpr uint32_t kVersion = 1u;

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `size` bytes.
uint32_t Crc32(const void* data, size_t size);

/// Append-only binary encoder. Fixed-width scalars are written verbatim;
/// strings and vectors are u64-length-prefixed.
class Writer {
 public:
  void WriteU32(uint32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI32(int32_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { AppendRaw(&v, sizeof(v)); }
  void WriteFloat(float v) { AppendRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { AppendRaw(&v, sizeof(v)); }
  void WriteBool(bool v) { WriteU32(v ? 1u : 0u); }
  void WriteString(std::string_view s);
  void WriteFloatVec(std::span<const float> v);
  void WriteDoubleVec(std::span<const double> v);
  void WriteI32Vec(std::span<const int32_t> v);
  void WriteI64Vec(std::span<const int64_t> v);

  const std::string& payload() const { return buf_; }

  /// Header + payload as one contiguous buffer — the exact bytes
  /// WriteToFile would persist. This is the unit the network framer ships:
  /// a frame payload is an Encode()d buffer, so magic/version/CRC
  /// validation works identically for files and messages.
  std::string Encode() const;

  /// Writes header + payload to `path` atomically (temp file + rename), so
  /// a crash mid-write never leaves a torn checkpoint behind.
  Status WriteToFile(const std::string& path) const;

 private:
  void AppendRaw(const void* p, size_t n);
  std::string buf_;
};

/// Sequential decoder over a validated payload. Every Read* checks bounds
/// and returns OutOfRangeError on over-read instead of touching outputs.
class Reader {
 public:
  /// Wraps an in-memory payload (no header expected).
  explicit Reader(std::string payload) : buf_(std::move(payload)) {}

  /// Opens `path`, validates magic, version, declared size, and CRC, and
  /// returns a Reader over the payload. All validation failures are error
  /// Statuses (NotFound / InvalidArgument / OutOfRange), never aborts.
  static Result<Reader> FromFile(const std::string& path);

  /// Validates an in-memory Encode()d buffer (header + payload) the same
  /// way FromFile validates a file: bad magic, foreign version, truncated
  /// or oversized payload, and CRC mismatch are all error Statuses.
  static Result<Reader> FromBuffer(std::string data);

  Status ReadU32(uint32_t* out) { return TakeRaw(out, sizeof(*out), "u32"); }
  Status ReadU64(uint64_t* out) { return TakeRaw(out, sizeof(*out), "u64"); }
  Status ReadI32(int32_t* out) { return TakeRaw(out, sizeof(*out), "i32"); }
  Status ReadI64(int64_t* out) { return TakeRaw(out, sizeof(*out), "i64"); }
  Status ReadFloat(float* out) { return TakeRaw(out, sizeof(*out), "float"); }
  Status ReadDouble(double* out) {
    return TakeRaw(out, sizeof(*out), "double");
  }
  Status ReadBool(bool* out);
  Status ReadString(std::string* out);
  Status ReadFloatVec(std::vector<float>* out);
  Status ReadDoubleVec(std::vector<double>* out);
  Status ReadI32Vec(std::vector<int32_t>* out);
  Status ReadI64Vec(std::vector<int64_t>* out);

  /// True when the whole payload has been consumed.
  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }
  /// Discards the unread rest of the payload.
  void SkipRest() { pos_ = buf_.size(); }

 private:
  Status TakeRaw(void* out, size_t n, const char* what);
  Status ReadLength(uint64_t elem_size, uint64_t* out);

  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace serialize
}  // namespace fedgta

#endif  // FEDGTA_COMMON_SERIALIZE_H_
