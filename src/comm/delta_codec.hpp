// Compressed delta exchange for the chunk-pipelined sync path.
//
// HADFL's ring sync ships each member's model once per round; PR 4 made
// that bandwidth-optimal in *elements* (2(K-1)/K·M), so bytes-per-element
// is the remaining lever. This layer generalizes the PR 4 broadcast-only
// int8 wire format to the whole collective: members exchange codec-encoded
// *deltas* against a shared round reference (CHOCO-SGD style), and a
// per-device error-feedback accumulator carries the residual
// `x - decode(encode(x))` into the next round so convergence is preserved.
//
// Everything here is backend-neutral chunk arithmetic shared by the
// simulator (src/core/fleet.cpp), the threaded runtime
// (src/rt/collectives.cpp) and the socket backend (src/net/) — the three
// must produce bit-identical decoded values and agree on the priced wire
// size, so both live in exactly one place.
//
// Chunk payload formats (float-slot packed, because rt transports ship
// std::vector<float> payloads):
//
//   int8   payload[0]           reconstruction scale (value*scale)
//          payload[1..]         int8 values, 4 per float slot
//   top-k  payload[0]           kept-entry count k (bit-cast u32)
//          payload[1..k]        entry indices (bit-cast u32, ascending)
//          payload[k+1..2k]     entry values
//
// Both decoders are pure functions of the payload bytes: re-decoding a
// stored payload reproduces the receiver-side values bit-exactly. (The
// reverse is NOT true — re-encoding a decoded chunk drifts by an ulp in
// the int8 scale — which is why the rt broadcast re-ships the original
// encodings instead of re-encoding the folded delta.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hadfl::comm {

/// Codec applied to sync-path chunk exchange. `kNone` is the exact dense
/// path and is pinned bit-identical to the pre-codec runtime.
enum class SyncCodec : std::uint8_t {
  kNone = 0,
  kInt8 = 1,  ///< uniform int8 quantization, ~4x smaller
  kTopK = 2,  ///< top-k sparsification of the delta, ~1/ratio smaller
};

/// Per-device error-feedback accumulator (residual memory). The encoder
/// stages `e' = u - decode(encode(u))` while a collective is in flight;
/// the residual only becomes visible to the next round's update when the
/// collective *commits* — an aborted attempt leaves `residual` untouched,
/// which keeps retries deterministic across the sim and rt backends.
struct ErrorFeedback {
  std::vector<float> residual;  ///< committed residual, added to next update
  std::vector<float> staged;    ///< residual of the in-flight encode

  /// Sizes both buffers for an `n`-element state (residual keeps its
  /// values when already sized; a size change zeroes it).
  void ensure(std::size_t n) {
    if (residual.size() != n) residual.assign(n, 0.0f);
    if (staged.size() != n) staged.assign(n, 0.0f);
  }
  /// Makes the staged residual the committed one (successful delta sync).
  void commit() { residual.swap(staged); }
  /// Drops all residual memory (a raw sync transmitted the exact state,
  /// so there is no compression error to compensate).
  void clear() {
    residual.clear();
    staged.clear();
  }
};

/// Default pipeline depth for the chunked sync path (from the PR 4 bench
/// sweep); shared by the rt collectives and the sim's codec chunking.
inline constexpr std::size_t kDefaultSyncChunks = 16;

/// Maps the sync_chunks knob (0 = default) to an actual chunk count for an
/// `n`-element state: clamped to [1, min(n, 4096)].
std::size_t resolve_chunk_count(std::size_t chunks, std::size_t n);

/// Float slots an int8-encoded chunk of `n` values occupies on the wire.
constexpr std::size_t int8_payload_floats(std::size_t n) {
  return 1 + (n + sizeof(float) - 1) / sizeof(float);
}

/// Entries kept by top-k for an `n`-value chunk: ceil(ratio*n), at least 1,
/// at most n (0 for an empty chunk). `ratio` must be in (0, 1].
std::size_t topk_keep_count(double ratio, std::size_t n);

/// Float slots a top-k-encoded chunk with `k` kept entries occupies.
constexpr std::size_t topk_payload_floats(std::size_t k) { return 1 + 2 * k; }

/// Float slots codec `codec` uses for an `n`-value chunk (`n` for kNone).
std::size_t encoded_chunk_floats(SyncCodec codec, std::size_t n,
                                 double topk_ratio);

/// Bytes codec `codec` puts on the wire for an `n`-value chunk — the
/// payload-slot count times sizeof(float). Data-independent by design so
/// the sim, rt and net backends can price traffic without encoding.
inline std::size_t encoded_chunk_bytes(SyncCodec codec, std::size_t n,
                                       double topk_ratio) {
  return encoded_chunk_floats(codec, n, topk_ratio) * sizeof(float);
}

/// Total encoded bytes for an `n`-element state split into `chunks` pieces
/// (0 = default) — the Σ over per-chunk encoded_chunk_bytes.
std::size_t encoded_state_bytes(SyncCodec codec, std::size_t n,
                                std::size_t chunks, double topk_ratio);

/// Quantizes `chunk` into `payload` (sized int8_payload_floats(chunk.size())).
/// scale = max|x|/127, values rounded and clamped to [-127, 127]; an
/// all-zero chunk encodes losslessly (scale 0).
void encode_int8_chunk(std::span<const float> chunk, std::span<float> payload);

/// Inverse of encode_int8_chunk into `dst` (the chunk's element count).
void decode_int8_chunk(std::span<const float> payload, std::span<float> dst);

/// Sparsifies `chunk` keeping its topk_keep_count(ratio, n) largest-
/// magnitude entries, into `payload` (sized topk_payload_floats(k)).
/// Ties resolve to the lowest index and a NaN ranks above every other
/// value; indices are stored ascending.
void encode_topk_chunk(std::span<const float> chunk, double ratio,
                       std::span<float> payload);

/// Inverse of encode_topk_chunk into `dst`; missing entries become zero.
/// Rejects payloads whose count or indices do not fit `dst`.
void decode_topk_chunk(std::span<const float> payload, std::span<float> dst);

/// Encodes one chunk with `codec` into `payload` (kNone copies densely).
/// `payload` must be sized encoded_chunk_floats(codec, chunk.size(), ratio).
void encode_chunk(SyncCodec codec, std::span<const float> chunk, double ratio,
                  std::span<float> payload);

/// Decodes one chunk with `codec` from `payload` into `dst`.
void decode_chunk(SyncCodec codec, std::span<const float> payload,
                  std::span<float> dst);

/// Forms the delta-round update in place: u[i] = u[i] - ref[i] +
/// residual[i]. `u` enters holding the device's current state x and leaves
/// holding the error-compensated delta against the shared reference. Both
/// backends call this exact function so the arithmetic order is identical.
void form_delta_update(std::span<float> u, std::span<const float> ref,
                       std::span<const float> residual);

/// One member-side chunk step of a delta round: encodes `chunk` (a slice
/// of the update u) into `payload`, decodes the payload back over `chunk`
/// (peers fold exactly what the wire delivers), and stages the residual
/// u - decoded into `staged` for the error-feedback commit.
void roundtrip_chunk_staged(SyncCodec codec, double ratio,
                            std::span<float> chunk, std::span<float> staged,
                            std::span<float> payload);

/// The owner-side phase-2 step: encodes the folded delta chunk into
/// `payload` and decodes it back over `chunk`. Every ring member decodes
/// this same payload, so the value committed everywhere is its decode.
void roundtrip_folded_chunk(SyncCodec codec, double ratio,
                            std::span<float> chunk, std::span<float> payload);

}  // namespace hadfl::comm
