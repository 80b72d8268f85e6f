#include "comm/delta_codec.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "common/error.hpp"

namespace hadfl::comm {
namespace {

/// Hard ceiling on pipeline depth — beyond this the per-chunk message
/// overhead dominates (mirrors the former rt::resolve_chunk_count bound).
constexpr std::size_t kMaxSyncChunks = 4096;

}  // namespace

std::size_t resolve_chunk_count(std::size_t chunks, std::size_t n) {
  if (n == 0) return 1;
  if (chunks == 0) chunks = kDefaultSyncChunks;
  return std::clamp<std::size_t>(chunks, 1, std::min(n, kMaxSyncChunks));
}

std::size_t topk_keep_count(double ratio, std::size_t n) {
  HADFL_CHECK_ARG(ratio > 0.0 && ratio <= 1.0,
                  "topk_ratio must be in (0, 1], got " << ratio);
  if (n == 0) return 0;
  const auto k = static_cast<std::size_t>(
      std::max(1.0, std::ceil(ratio * static_cast<double>(n))));
  return std::min(k, n);
}

std::size_t encoded_chunk_floats(SyncCodec codec, std::size_t n,
                                 double topk_ratio) {
  switch (codec) {
    case SyncCodec::kNone:
      return n;
    case SyncCodec::kInt8:
      return int8_payload_floats(n);
    case SyncCodec::kTopK:
      return topk_payload_floats(topk_keep_count(topk_ratio, n));
  }
  HADFL_CHECK_ARG(false, "unknown sync codec");
  return n;
}

std::size_t encoded_state_bytes(SyncCodec codec, std::size_t n,
                                std::size_t chunks, double topk_ratio) {
  const std::size_t c_count = resolve_chunk_count(chunks, n);
  std::size_t total = 0;
  for (std::size_t c = 0; c < c_count; ++c) {
    const std::size_t begin = c * n / c_count;
    const std::size_t end = (c + 1) * n / c_count;
    total += encoded_chunk_bytes(codec, end - begin, topk_ratio);
  }
  return total;
}

void encode_int8_chunk(std::span<const float> chunk, std::span<float> payload) {
  HADFL_CHECK_ARG(payload.size() == int8_payload_floats(chunk.size()),
                  "int8 chunk payload size " << payload.size()
                                             << " != expected "
                                             << int8_payload_floats(chunk.size()));
  float max_abs = 0.0f;
  for (float v : chunk) max_abs = std::max(max_abs, std::fabs(v));
  auto* packed = reinterpret_cast<std::int8_t*>(payload.data() + 1);
  if (max_abs == 0.0f) {
    payload[0] = 0.0f;
    std::memset(packed, 0, chunk.size());
    return;
  }
  const float scale = max_abs / 127.0f;
  payload[0] = scale;
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    packed[i] = static_cast<std::int8_t>(std::clamp(
        static_cast<int>(std::lround(chunk[i] / scale)), -127, 127));
  }
}

void decode_int8_chunk(std::span<const float> payload, std::span<float> dst) {
  HADFL_CHECK_ARG(payload.size() == int8_payload_floats(dst.size()),
                  "int8 chunk payload size " << payload.size()
                                             << " != expected "
                                             << int8_payload_floats(dst.size()));
  const float scale = payload[0];
  const auto* packed = reinterpret_cast<const std::int8_t*>(payload.data() + 1);
  for (std::size_t i = 0; i < dst.size(); ++i) {
    dst[i] = static_cast<float>(packed[i]) * scale;
  }
}

void encode_topk_chunk(std::span<const float> chunk, double ratio,
                       std::span<float> payload) {
  const std::size_t n = chunk.size();
  const std::size_t k = topk_keep_count(ratio, n);
  HADFL_CHECK_ARG(payload.size() == topk_payload_floats(k),
                  "top-k chunk payload size " << payload.size()
                                              << " != expected "
                                              << topk_payload_floats(k));
  payload[0] = std::bit_cast<float>(static_cast<std::uint32_t>(k));
  if (k == 0) return;
  // Rank by the magnitude bits: for every non-NaN float they order exactly
  // like fabs (±0 tie, inf largest), and a NaN ranks above inf, so
  // (magnitude desc, index asc) is a strict weak order on any chunk.
  const auto magnitude = [&](std::size_t i) {
    return std::bit_cast<std::uint32_t>(chunk[i]) & 0x7fffffffu;
  };
  // Radix select, most significant digit first: each pass histograms the
  // next digit of the entries whose higher digits equal `prefix` and walks
  // down from the top bucket until it holds the k-th largest. Afterwards
  // every entry with magnitude >> shift above `prefix` is kept, plus the
  // first `need` (lowest-index) entries equal to it. A pass that takes its
  // whole bucket stops early: no tie is left to break. Digits 8+8+8+7
  // cover the 31 magnitude bits; a histogram lives on the stack.
  constexpr int kDigitBits[] = {8, 8, 8, 7};
  std::uint32_t hist[256] = {};
  std::uint32_t prefix = 0;
  int shift = 31;
  std::size_t need = k;
  for (const int bits : kDigitBits) {
    const int next_shift = shift - bits;
    const std::uint32_t mask = (1u << bits) - 1u;
    std::fill_n(hist, mask + 1, 0u);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t m = magnitude(i);
      if ((m >> shift) == prefix) ++hist[(m >> next_shift) & mask];
    }
    std::uint32_t bucket = mask;
    while (hist[bucket] < need) need -= hist[bucket--];
    prefix = (prefix << bits) | bucket;
    shift = next_shift;
    if (hist[bucket] == need) break;
  }
  // One ascending scan emits the kept entries in index order.
  std::size_t out = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t top = magnitude(i) >> shift;
    if (top < prefix) continue;
    if (top == prefix) {
      if (need == 0) continue;
      --need;
    }
    payload[1 + out] = std::bit_cast<float>(static_cast<std::uint32_t>(i));
    payload[1 + k + out] = chunk[i];
    ++out;
  }
}

void decode_topk_chunk(std::span<const float> payload, std::span<float> dst) {
  HADFL_CHECK_ARG(!payload.empty(), "top-k chunk payload is empty");
  const auto k =
      static_cast<std::size_t>(std::bit_cast<std::uint32_t>(payload[0]));
  HADFL_CHECK_ARG(payload.size() == topk_payload_floats(k),
                  "top-k chunk payload size " << payload.size()
                                              << " != expected "
                                              << topk_payload_floats(k)
                                              << " for k=" << k);
  HADFL_CHECK_ARG(k <= dst.size(), "top-k kept count " << k
                                                       << " exceeds chunk size "
                                                       << dst.size());
  std::fill(dst.begin(), dst.end(), 0.0f);
  for (std::size_t i = 0; i < k; ++i) {
    const auto idx =
        static_cast<std::size_t>(std::bit_cast<std::uint32_t>(payload[1 + i]));
    HADFL_CHECK_ARG(idx < dst.size(), "top-k index " << idx
                                                     << " out of range for chunk size "
                                                     << dst.size());
    dst[idx] = payload[1 + k + i];
  }
}

void encode_chunk(SyncCodec codec, std::span<const float> chunk, double ratio,
                  std::span<float> payload) {
  switch (codec) {
    case SyncCodec::kNone:
      HADFL_CHECK_ARG(payload.size() == chunk.size(),
                      "dense chunk payload size mismatch");
      std::copy(chunk.begin(), chunk.end(), payload.begin());
      return;
    case SyncCodec::kInt8:
      encode_int8_chunk(chunk, payload);
      return;
    case SyncCodec::kTopK:
      encode_topk_chunk(chunk, ratio, payload);
      return;
  }
  HADFL_CHECK_ARG(false, "unknown sync codec");
}

void decode_chunk(SyncCodec codec, std::span<const float> payload,
                  std::span<float> dst) {
  switch (codec) {
    case SyncCodec::kNone:
      HADFL_CHECK_ARG(payload.size() == dst.size(),
                      "dense chunk payload size mismatch");
      std::copy(payload.begin(), payload.end(), dst.begin());
      return;
    case SyncCodec::kInt8:
      decode_int8_chunk(payload, dst);
      return;
    case SyncCodec::kTopK:
      decode_topk_chunk(payload, dst);
      return;
  }
  HADFL_CHECK_ARG(false, "unknown sync codec");
}

void form_delta_update(std::span<float> u, std::span<const float> ref,
                       std::span<const float> residual) {
  HADFL_CHECK_ARG(u.size() == ref.size() && u.size() == residual.size(),
                  "delta update size mismatch: " << u.size() << " vs "
                                                 << ref.size() << " vs "
                                                 << residual.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    u[i] = u[i] - ref[i] + residual[i];
  }
}

void roundtrip_chunk_staged(SyncCodec codec, double ratio,
                            std::span<float> chunk, std::span<float> staged,
                            std::span<float> payload) {
  HADFL_CHECK_ARG(staged.size() == chunk.size(),
                  "staged residual chunk size mismatch");
  encode_chunk(codec, chunk, ratio, payload);
  decode_chunk(codec, payload, staged);  // staged holds the decode for now
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const float decoded = staged[i];
    staged[i] = chunk[i] - decoded;
    chunk[i] = decoded;
  }
}

void roundtrip_folded_chunk(SyncCodec codec, double ratio,
                            std::span<float> chunk, std::span<float> payload) {
  encode_chunk(codec, chunk, ratio, payload);
  decode_chunk(codec, payload, chunk);
}

}  // namespace hadfl::comm
