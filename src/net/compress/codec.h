#ifndef FEDGTA_NET_COMPRESS_CODEC_H_
#define FEDGTA_NET_COMPRESS_CODEC_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.h"

namespace fedgta {
namespace net {
namespace compress {

/// Tensor codecs for federation traffic (DESIGN.md §5j).
///
/// A codec turns one float tensor into a compact blob inside a
/// serialize::Writer stream and back. Codecs are identified by a stable
/// wire id; the set a peer supports is advertised as a capability bitmask
/// in the Hello message and the server picks one per connection
/// (Negotiate). The `raw` codec is the identity — a connection that
/// negotiated raw never constructs a compression context at all, so its
/// tensor bytes are exactly WriteFloatVec's.
///
///   raw   — identity (lossless).
///   fp16  — per-tensor-scale IEEE half quantization. Error bound (tested):
///           |x̂ - x| <= max|x| * 2^-10 per element.
///   int8  — per-tensor-scale 8-bit quantization, scale = max|x| / 127.
///           Error bound (tested): |x̂ - x| <= max|x| / 253 per element.
///   delta — top-k sparsified overwrite-diff against a base tensor:
///           indices where the value moved most, with exact fp32 values
///           (reconstruction is bit-exact at the shipped indices, and
///           bit-exact everywhere when k >= n). Varint gap + zigzag
///           encoded. With no base (or a size mismatch) it degrades to a
///           dense section, so the first message of a stream and
///           post-failure resyncs need no special casing.
///
/// Every decode path is bounds-checked and returns an error Status on
/// malformed input — a corrupt blob must never crash or allocate
/// unboundedly (the frame layer's CRC rejects most corruption before a
/// codec ever sees it; these checks catch the rest).

enum class CodecId : uint8_t {
  kRaw = 0,
  kFp16 = 1,
  kInt8 = 2,
  kDelta = 3,
};

/// Hello capability bit for one codec id.
constexpr uint32_t CapabilityBit(CodecId id) {
  return 1u << static_cast<uint32_t>(id);
}
/// Every codec this build implements (a worker's default advertisement).
uint32_t AllCapabilities();
/// Picks the connection codec: `requested` if the peer advertised it,
/// otherwise raw (an empty mask always lands here).
CodecId Negotiate(CodecId requested, uint32_t peer_capabilities);

/// Per-tensor parameters threaded into Encode/Decode. Only the delta codec
/// reads them; the quantizers are stateless.
struct TensorSpec {
  /// Delta base. Empty, or a size other than the tensor's, triggers the
  /// dense fallback section.
  std::span<const float> base = {};
  /// Stream sequence number of `base`; echoed into the blob and checked on
  /// decode so a desynchronized base surfaces as an error Status instead
  /// of silently reconstructing garbage.
  int64_t base_seq = 0;
  /// Elements to ship per delta tensor; 0 = auto: n / 8 floored at
  /// kDeltaAutoFloor, clamped to n. The floor makes auto mode ship small
  /// tensors whole (as the cheaper dense form): sparsifying a
  /// few-hundred-parameter model saves almost nothing per round but
  /// measurably slows convergence, so aggressive top-k is reserved for
  /// the tensors where the bytes actually matter.
  int top_k = 0;
  /// Delta only: ship every coordinate whose value differs from the base
  /// (bit-exact reconstruction) instead of a top-k subset; `top_k` is
  /// ignored. Used for the FedGTA moment vectors, whose content steers
  /// the Eq. 6/7 aggregation weights — truncating them is
  /// disproportionately harmful, while shipping them exactly costs
  /// little and keeps shrinking as they stabilize round over round.
  bool exact = false;
  /// Error-feedback accumulator (encode side only; may be null). The
  /// encoder adds it to the diff before picking top-k and leaves the
  /// unsent mass behind, so repeated sparsification does not silently
  /// drop the same coordinates forever.
  std::vector<float>* residual = nullptr;
  /// Encode-side out (may be null): the exact tensor the decoder will
  /// reconstruct from this blob. Lets a stateful caller (the delta Link)
  /// keep its base bit-identical to the peer's without re-decoding.
  /// Safe to alias the vector backing `base`.
  std::vector<float>* reconstruction = nullptr;
};

class Codec {
 public:
  virtual ~Codec() = default;
  virtual CodecId id() const = 0;
  virtual const char* name() const = 0;
  virtual bool lossless() const = 0;
  /// Appends the encoded tensor to `w`.
  virtual void Encode(std::span<const float> values, const TensorSpec& spec,
                      serialize::Writer* w) const = 0;
  /// Reads one tensor previously written by Encode. All failures
  /// (truncation, absurd sizes, base desync) are error Statuses.
  virtual Status Decode(serialize::Reader* r, const TensorSpec& spec,
                        std::vector<float>* out) const = 0;
};

/// Registry lookups. Names: raw fp16 int8 delta. Unknown name/id returns
/// nullptr — the CLI and the handshake both validate through these.
const Codec* FindCodec(std::string_view name);
const Codec* FindCodec(CodecId id);
/// Registered codec names in wire-id order (help text, error messages).
std::vector<std::string> ListCodecNames();

/// Upper bound on a decoded tensor's element count; a blob declaring more
/// is treated as corruption instead of an allocation attempt.
inline constexpr uint64_t kMaxTensorElems = 1ull << 28;  // 1 GiB of floats

/// Auto top-k never ships fewer elements than this (see TensorSpec::top_k).
inline constexpr int kDeltaAutoFloor = 1024;

// -- Wire primitives (exposed for tests) ------------------------------------

/// LEB128 varint over the Writer/Reader byte stream (appended to `out`).
void PutVarint(uint64_t v, std::string* out);
/// Zigzag-maps a signed value into varint space (0, -1, 1, -2, ...).
void PutZigzag(int64_t v, std::string* out);
Status GetVarint(std::string_view buf, size_t* pos, uint64_t* out);
Status GetZigzag(std::string_view buf, size_t* pos, int64_t* out);

/// IEEE 754 binary16 conversion (round-to-nearest-even on encode).
uint16_t FloatToHalf(float f);
float HalfToFloat(uint16_t h);

}  // namespace compress
}  // namespace net
}  // namespace fedgta

#endif  // FEDGTA_NET_COMPRESS_CODEC_H_
