// Tests for the sync-path delta codec (comm/delta_codec): int8 and top-k
// chunk encodings, error feedback, and the compressed HADFL runs.
#include "comm/delta_codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/round_logic.hpp"
#include "core/trainer.hpp"
#include "exp/runner.hpp"
#include "test_util.hpp"

namespace hadfl::comm {
namespace {

std::vector<float> int8_roundtrip(std::span<const float> chunk) {
  std::vector<float> payload(int8_payload_floats(chunk.size()));
  encode_int8_chunk(chunk, payload);
  std::vector<float> decoded(chunk.size());
  decode_int8_chunk(payload, decoded);
  return decoded;
}

/// Straightforward int8 quantizer, kept as the oracle for encode_int8_chunk:
/// scale = max|x|/127, each value rounded to the nearest step and clamped to
/// [-127, 127], then multiplied back.
std::vector<float> reference_int8_roundtrip(std::span<const float> x) {
  float max_abs = 0.0f;
  for (float v : x) max_abs = std::max(max_abs, std::fabs(v));
  std::vector<float> out(x.size(), 0.0f);
  if (max_abs == 0.0f) return out;
  const float scale = max_abs / 127.0f;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto q = static_cast<std::int8_t>(
        std::clamp(static_cast<int>(std::lround(x[i] / scale)), -127, 127));
    out[i] = static_cast<float>(q) * scale;
  }
  return out;
}

TEST(DeltaCodec, Int8RoundTripErrorBounded) {
  Tensor x = testutil::random_tensor({1000}, 1, 3.0f);
  const std::vector<float> back = int8_roundtrip(x.storage());
  float max_abs = 0.0f;
  for (std::size_t i = 0; i < x.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(x[i]));
  }
  const float bound = max_abs / 127.0f;  // half-step would be /254; one
                                         // step is a safe bound
  for (std::size_t i = 0; i < x.numel(); ++i) {
    EXPECT_NEAR(back[i], x[i], bound);
  }
}

TEST(DeltaCodec, Int8AllZerosLossless) {
  const std::vector<float> x(16, 0.0f);
  std::vector<float> payload(int8_payload_floats(x.size()));
  encode_int8_chunk(x, payload);
  EXPECT_EQ(payload[0], 0.0f);  // scale
  for (float v : int8_roundtrip(x)) EXPECT_EQ(v, 0.0f);
}

TEST(DeltaCodec, Int8ExtremesMapToFullRange) {
  const std::vector<float> x{-2.0f, 0.0f, 2.0f};
  std::vector<float> payload(int8_payload_floats(x.size()));
  encode_int8_chunk(x, payload);
  std::int8_t packed[3];
  std::memcpy(packed, payload.data() + 1, sizeof(packed));
  EXPECT_EQ(packed[0], -127);
  EXPECT_EQ(packed[1], 0);
  EXPECT_EQ(packed[2], 127);
}

TEST(DeltaCodec, Int8ChunkRoundTripMatchesReferenceQuantizer) {
  Tensor x = testutil::random_tensor({100}, 5, 2.0f);
  EXPECT_EQ(int8_roundtrip(x.storage()), reference_int8_roundtrip(x.storage()));
}

TEST(DeltaCodec, TopKChunkKeepsLargestMagnitudes) {
  const std::vector<float> chunk{0.1f, -5.0f, 0.2f, 3.0f, -0.05f};
  const std::size_t k = topk_keep_count(0.4, chunk.size());
  ASSERT_EQ(k, 2u);
  std::vector<float> payload(topk_payload_floats(k));
  encode_topk_chunk(chunk, 0.4, payload);
  std::vector<float> decoded(chunk.size());
  decode_topk_chunk(payload, decoded);
  EXPECT_EQ(decoded,
            (std::vector<float>{0.0f, -5.0f, 0.0f, 3.0f, 0.0f}));
}

TEST(DeltaCodec, TopKDecodeRejectsBadIndexAndCount) {
  std::vector<float> dst(2);
  const std::vector<float> bad_index{std::bit_cast<float>(1u),
                                     std::bit_cast<float>(5u), 1.0f};
  EXPECT_THROW(decode_topk_chunk(bad_index, dst), InvalidArgument);
  std::vector<float> oversized(topk_payload_floats(3), 0.0f);
  oversized[0] = std::bit_cast<float>(3u);
  EXPECT_THROW(decode_topk_chunk(oversized, dst), InvalidArgument);
}

TEST(DeltaCodec, TopKKeepCountRejectsBadRatio) {
  EXPECT_THROW(topk_keep_count(0.0, 4), InvalidArgument);
  EXPECT_THROW(topk_keep_count(1.5, 4), InvalidArgument);
}

/// The kept set of top-k by |x| descending, lowest index first on ties, in
/// ascending index order. A full stable sort, so it is well defined for
/// every chunk without a NaN.
std::vector<std::uint32_t> fabs_topk(std::span<const float> chunk,
                                     std::size_t k) {
  std::vector<std::uint32_t> order(chunk.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return std::fabs(chunk[a]) > std::fabs(chunk[b]);
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  return order;
}

std::vector<float> topk_payload(std::span<const float> chunk,
                                const std::vector<std::uint32_t>& kept) {
  std::vector<float> payload(topk_payload_floats(kept.size()));
  payload[0] = std::bit_cast<float>(static_cast<std::uint32_t>(kept.size()));
  for (std::size_t i = 0; i < kept.size(); ++i) {
    payload[1 + i] = std::bit_cast<float>(kept[i]);
    payload[1 + kept.size() + i] = chunk[kept[i]];
  }
  return payload;
}

/// A random chunk rich in ties, signed zeros, denormals and infinities.
std::vector<float> random_finite_chunk(Rng& rng, std::size_t n) {
  std::vector<float> chunk(n);
  for (float& v : chunk) {
    switch (rng.uniform_int(0, 5)) {
      case 0: v = static_cast<float>(rng.normal()); break;
      case 1: v = static_cast<float>(rng.uniform_int(-3, 3)) * 0.5f; break;
      case 2: v = rng.uniform() < 0.5 ? 0.0f : -0.0f; break;
      case 3:
        v = std::numeric_limits<float>::denorm_min() *
            static_cast<float>(rng.uniform_int(-4, 4));
        break;
      case 4:
        v = rng.uniform() < 0.5 ? std::numeric_limits<float>::infinity()
                                : -std::numeric_limits<float>::infinity();
        break;
      default: v = static_cast<float>(rng.normal(0.0, 1e-3)); break;
    }
  }
  return chunk;
}

TEST(DeltaCodec, TopKOrdersLikeFabsAndRanksNanFirst) {
  Rng rng(17);
  // Without a NaN the kept set is exactly the |x| order's, byte for byte.
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(1, 300));
    const double ratio = rng.uniform(0.01, 1.0);
    const std::vector<float> chunk = random_finite_chunk(rng, n);
    std::vector<float> payload(
        topk_payload_floats(topk_keep_count(ratio, n)));
    encode_topk_chunk(chunk, ratio, payload);
    const std::vector<float> expect =
        topk_payload(chunk, fabs_topk(chunk, topk_keep_count(ratio, n)));
    ASSERT_EQ(std::memcmp(payload.data(), expect.data(),
                          payload.size() * sizeof(float)),
              0)
        << "trial " << trial;
  }
  // One NaN ranks above every other value: it is kept alongside the top
  // k-1 of the rest.
  const std::size_t n = 1000;
  const double ratio = 0.01;
  const std::size_t k = topk_keep_count(ratio, n);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<float> chunk(n);
    for (float& v : chunk) v = static_cast<float>(rng.normal());
    const auto nan_at = static_cast<std::uint32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    chunk[nan_at] = std::numeric_limits<float>::quiet_NaN();
    std::vector<float> rest = chunk;
    rest[nan_at] = 0.0f;  // never among the top k-1 of normal draws
    std::vector<std::uint32_t> kept = fabs_topk(rest, k - 1);
    kept.insert(std::upper_bound(kept.begin(), kept.end(), nan_at), nan_at);
    std::vector<float> payload(topk_payload_floats(k));
    encode_topk_chunk(chunk, ratio, payload);
    const std::vector<float> expect = topk_payload(chunk, kept);
    ASSERT_EQ(std::memcmp(payload.data(), expect.data(),
                          payload.size() * sizeof(float)),
              0)
        << "trial " << trial << ", NaN at " << nan_at;
  }
}

/// The partial-sort top-k encoder, kept as the oracle for
/// encode_topk_chunk's radix select: an index vector ranked by an indirect
/// nth_element on (magnitude bits desc, index asc), the kept prefix sorted
/// back into index order.
std::vector<float> reference_topk_encode(std::span<const float> chunk,
                                         double ratio) {
  const std::size_t k = topk_keep_count(ratio, chunk.size());
  std::vector<float> payload(topk_payload_floats(k));
  payload[0] = std::bit_cast<float>(static_cast<std::uint32_t>(k));
  if (k == 0) return payload;
  const auto magnitude = [&](std::uint32_t i) {
    return std::bit_cast<std::uint32_t>(chunk[i]) & 0x7fffffffu;
  };
  std::vector<std::uint32_t> order(chunk.size());
  std::iota(order.begin(), order.end(), 0u);
  std::nth_element(order.begin(),
                   order.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   order.end(), [&](std::uint32_t a, std::uint32_t b) {
                     const std::uint32_t ma = magnitude(a);
                     const std::uint32_t mb = magnitude(b);
                     if (ma != mb) return ma > mb;
                     return a < b;
                   });
  order.resize(k);
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < k; ++i) {
    payload[1 + i] = std::bit_cast<float>(order[i]);
    payload[1 + k + i] = chunk[order[i]];
  }
  return payload;
}

/// A chunk built to stress the select: NaNs of both signs and several
/// payloads, ±inf, subnormals and ±0 among normal draws; a single
/// repeated value; magnitudes that share their high bits, so every radix
/// digit is needed; or a few distinct magnitudes, so ties sit at the
/// threshold.
std::vector<float> select_stress_chunk(Rng& rng, std::size_t n) {
  const auto nan_with = [](std::uint32_t payload_bits, bool negative) {
    return std::bit_cast<float>((negative ? 0xff800000u : 0x7f800000u) |
                                (payload_bits & 0x7fffffu) | 1u);
  };
  switch (rng.uniform_int(0, 3)) {
    case 0: {
      std::vector<float> chunk = random_finite_chunk(rng, n);
      const auto nans = rng.uniform_int(0, 3);
      for (std::int64_t j = 0; j < nans; ++j) {
        const auto at = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        chunk[at] = nan_with(static_cast<std::uint32_t>(rng()),
                             rng.uniform() < 0.5);
      }
      return chunk;
    }
    case 1: {
      const float choices[] = {0.0f,
                               -0.0f,
                               1.5f,
                               -std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::denorm_min(),
                               std::numeric_limits<float>::quiet_NaN()};
      return std::vector<float>(n, choices[rng.uniform_int(0, 5)]);
    }
    case 2: {
      const auto base = static_cast<std::uint32_t>(
          rng.uniform_int(0, 0x7f000000));
      std::vector<float> chunk(n);
      for (float& v : chunk) {
        const auto low = static_cast<std::uint32_t>(rng.uniform_int(0, 4095));
        v = std::bit_cast<float>((base & ~0xfffu) | low |
                                 (rng.uniform() < 0.5 ? 0x80000000u : 0u));
      }
      return chunk;
    }
    default: {
      const float levels[] = {0.25f, 2.0f, 1e-3f};
      std::vector<float> chunk(n);
      for (float& v : chunk) {
        v = levels[rng.uniform_int(0, 2)] * (rng.uniform() < 0.5 ? 1.0f : -1.0f);
      }
      return chunk;
    }
  }
}

TEST(DeltaCodec, TopKSelectMatchesPartialSortEncoderByteForByte) {
  Rng rng(23);
  for (int trial = 0; trial < 3000; ++trial) {
    const auto n = static_cast<std::size_t>(
        rng.uniform_int(1, trial % 10 == 0 ? 5000 : 400));
    const std::vector<float> chunk = select_stress_chunk(rng, n);
    // k = 1, k = n, and ratios in between.
    for (const double ratio : {1e-9, 1.0, rng.uniform(0.01, 1.0)}) {
      const std::size_t k = topk_keep_count(ratio, n);
      std::vector<float> payload(topk_payload_floats(k));
      encode_topk_chunk(chunk, ratio, payload);
      const std::vector<float> expect = reference_topk_encode(chunk, ratio);
      ASSERT_EQ(payload.size(), expect.size());
      ASSERT_EQ(std::memcmp(payload.data(), expect.data(),
                            payload.size() * sizeof(float)),
                0)
          << "trial " << trial << ", n " << n << ", k " << k;
    }
  }
}

TEST(DeltaCodec, EncodedSizesAreDataIndependentSums) {
  // The pricing contract: every backend can compute wire bytes from the
  // formula alone, without encoding anything.
  const std::size_t n = 1001;
  const std::size_t chunks = 7;
  std::size_t per_chunk_sum = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto [b, e] = chunk_range(n, chunks, c);
    per_chunk_sum +=
        encoded_chunk_bytes(SyncCodec::kTopK, e - b, /*topk_ratio=*/0.1);
  }
  EXPECT_EQ(encoded_state_bytes(SyncCodec::kTopK, n, chunks, 0.1),
            per_chunk_sum);
  EXPECT_EQ(encoded_state_bytes(SyncCodec::kNone, n, chunks, 0.1),
            n * sizeof(float));
  // int8: four values per float slot plus one scale slot.
  EXPECT_EQ(encoded_chunk_bytes(SyncCodec::kInt8, 4096, 0.0),
            4096u + sizeof(float));
}

// ----------------------------------------------------------- ErrorFeedback

TEST(ErrorFeedback, ResidualCarriesIntoTheNextUpdate) {
  ErrorFeedback ef;
  ef.ensure(4);
  const std::vector<float> ref(4, 1.0f);
  const std::vector<float> x{2.0f, -1.0f, 1.5f, 1.25f};
  std::vector<float> u = x;
  form_delta_update(u, ref, ef.residual);
  std::vector<float> payload(
      encoded_chunk_floats(SyncCodec::kInt8, u.size(), 0.0));
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u, ef.staged, payload);
  // int8 is lossy on this chunk, so some residual must be staged — and
  // chunk + staged must reconstruct the pre-encode update exactly.
  bool lossy = false;
  for (std::size_t i = 0; i < u.size(); ++i) {
    EXPECT_EQ(u[i] + ef.staged[i], x[i] - ref[i]);
    lossy = lossy || ef.staged[i] != 0.0f;
  }
  EXPECT_TRUE(lossy);
  const std::vector<float> staged = ef.staged;
  ef.commit();
  EXPECT_EQ(ef.residual, staged);
  // Next round: the committed residual rides into the new delta update.
  std::vector<float> u2 = x;
  form_delta_update(u2, ref, ef.residual);
  for (std::size_t i = 0; i < u2.size(); ++i) {
    EXPECT_EQ(u2[i], x[i] - ref[i] + staged[i]);
  }
}

TEST(ErrorFeedback, UncommittedStageLeavesResidualUntouched) {
  // An aborted sync attempt must not consume the residual: only commit()
  // (called on success) swaps the staged values in.
  ErrorFeedback ef;
  ef.ensure(2);
  ef.residual = {0.5f, -0.5f};
  std::vector<float> u{1.0f, 1.0f};
  std::vector<float> payload(encoded_chunk_floats(SyncCodec::kInt8, 2, 0.0));
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u, ef.staged, payload);
  EXPECT_EQ(ef.residual, (std::vector<float>{0.5f, -0.5f}));
}

TEST(ErrorFeedback, AllZeroUpdateIsLossless) {
  for (const SyncCodec codec : {SyncCodec::kInt8, SyncCodec::kTopK}) {
    ErrorFeedback ef;
    ef.ensure(8);
    std::vector<float> u(8, 0.0f);
    std::vector<float> payload(encoded_chunk_floats(codec, u.size(), 0.25));
    roundtrip_chunk_staged(codec, 0.25, u, ef.staged, payload);
    for (float v : u) EXPECT_EQ(v, 0.0f);
    for (float v : ef.staged) EXPECT_EQ(v, 0.0f);
  }
}

TEST(ErrorFeedback, TopKPlusFeedbackSumsToTheExactUpdate) {
  // The error-feedback telescoping identity: over R rounds of the same
  // gradient g, Σ decoded + residual_R == R·g — nothing is ever lost, only
  // deferred. Power-of-two values keep every float op exact so the check
  // can be bitwise.
  const std::vector<float> g{4.0f, -2.0f, 1.0f, 0.5f, -0.25f, 0.125f};
  const std::vector<float> ref(g.size(), 0.0f);
  const double ratio = 1.0 / 3.0;  // keep 2 of 6 per round
  ErrorFeedback ef;
  ef.ensure(g.size());
  std::vector<float> total(g.size(), 0.0f);
  const std::size_t rounds = 8;
  std::vector<float> payload(
      encoded_chunk_floats(SyncCodec::kTopK, g.size(), ratio));
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<float> u = g;
    form_delta_update(u, ref, ef.residual);
    roundtrip_chunk_staged(SyncCodec::kTopK, ratio, u, ef.staged, payload);
    ef.commit();
    for (std::size_t i = 0; i < u.size(); ++i) total[i] += u[i];
  }
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(total[i] + ef.residual[i],
              static_cast<float>(rounds) * g[i])
        << "coordinate " << i;
  }
}

TEST(DeltaCodec, DecodedDeltasComposeWithWeightedRingFold) {
  // The collective's fold contract: members fold *decodes*, and the folded
  // chunk's single phase-2 encoding is what everyone commits — so decoding
  // that payload twice must agree bitwise.
  const std::size_t n = 12;
  Tensor t0 = testutil::random_tensor({n}, 11, 1.0f);
  Tensor t1 = testutil::random_tensor({n}, 12, 1.0f);
  std::vector<float> u0(t0.storage().begin(), t0.storage().end());
  std::vector<float> u1(t1.storage().begin(), t1.storage().end());
  std::vector<float> scratch(n);
  std::vector<float> payload(encoded_chunk_floats(SyncCodec::kInt8, n, 0.0));
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u0, scratch, payload);
  roundtrip_chunk_staged(SyncCodec::kInt8, 0.0, u1, scratch, payload);

  core::WeightedRingFold fold;
  fold.reset(n);
  fold.add(0, u0, 0.75);
  fold.add(0, u1, 0.25);
  std::vector<float> folded(n);
  fold.write(0, folded);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(folded[i], static_cast<float>(0.75 * static_cast<double>(u0[i]) +
                                            0.25 * static_cast<double>(u1[i])));
  }

  roundtrip_folded_chunk(SyncCodec::kInt8, 0.0, folded, payload);
  std::vector<float> member_a(n);
  std::vector<float> member_b(n);
  decode_chunk(SyncCodec::kInt8, payload, member_a);
  decode_chunk(SyncCodec::kInt8, payload, member_b);
  EXPECT_EQ(member_a, member_b);
  EXPECT_EQ(member_a, folded);  // folded was overwritten by its own decode
}

TEST(HadflCompression, Int8CutsVolumeAndStillConverges) {
  exp::Scenario s = exp::paper_scenario(nn::Architecture::kMlp,
                                        {3, 3, 1, 1}, 0.5);
  s.train.total_epochs = 16;
  exp::Environment env(s);

  fl::SchemeContext a = env.context();
  const core::HadflResult plain = core::run_hadfl(a, s.hadfl);

  exp::Scenario compressed = s;
  compressed.hadfl.compression = core::SyncCompression::kInt8;
  fl::SchemeContext b = env.context();
  const core::HadflResult quant = core::run_hadfl(b, compressed.hadfl);

  // ~4x smaller sync traffic (the uncompressed post-negotiation full sync
  // keeps a constant floor), near-identical accuracy.
  EXPECT_LT(quant.scheme.volume.total_sent(),
            0.45 * static_cast<double>(plain.scheme.volume.total_sent()));
  EXPECT_GT(quant.scheme.metrics.best_accuracy(),
            plain.scheme.metrics.best_accuracy() - 0.08);
}

TEST(HadflCompression, TopKCutsVolumeFurther) {
  exp::Scenario s = exp::paper_scenario(nn::Architecture::kMlp,
                                        {3, 3, 1, 1}, 0.5);
  s.train.total_epochs = 16;
  s.hadfl.compression = core::SyncCompression::kTopK;
  s.hadfl.top_k_ratio = 0.05;
  exp::Environment env(s);
  fl::SchemeContext ctx = env.context();
  const core::HadflResult r = core::run_hadfl(ctx, s.hadfl);
  EXPECT_GT(r.scheme.metrics.best_accuracy(), 0.4);
  // 5% of entries at 8 bytes each ≈ 10% of the dense bytes per message.
  exp::Scenario plain = s;
  plain.hadfl.compression = core::SyncCompression::kNone;
  fl::SchemeContext ctx2 = env.context();
  const core::HadflResult base = core::run_hadfl(ctx2, plain.hadfl);
  EXPECT_LT(r.scheme.volume.total_sent(),
            0.42 * static_cast<double>(base.scheme.volume.total_sent()));
}

}  // namespace
}  // namespace hadfl::comm
