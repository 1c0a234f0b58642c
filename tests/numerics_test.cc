/**
 * Vectorized numerics kernel layer: the SIMD batch paths
 * (tensor/dtype convertBuffer, tensor/quantize, host/compression rANS
 * v2 + hash-chain LZ, ops/sparse_ops gather) must be bit-identical to
 * their element-at-a-time scalar references. The dtype, quantize and
 * gather tests run the kernel side under every supported tier
 * (ScopedIsa), so each run checks the vector and scalar paths whatever
 * MTIA_SIMD_ISA says.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/check.h"
#include "core/numerics_stats.h"
#include "core/simd.h"
#include "host/compression.h"
#include "ops/sparse_ops.h"
#include "sim/random.h"
#include "telemetry/metrics.h"
#include "tensor/dtype.h"
#include "tensor/quantize.h"
#include "tensor/tensor.h"

namespace mtia {
namespace {

std::vector<simd::SimdIsa>
supportedTiers()
{
    std::vector<simd::SimdIsa> tiers;
    for (const simd::SimdIsa isa :
         {simd::SimdIsa::Scalar, simd::SimdIsa::Sse2,
          simd::SimdIsa::Neon, simd::SimdIsa::Avx2,
          simd::SimdIsa::Avx512}) {
        if (simd::isaSupported(isa))
            tiers.push_back(isa);
    }
    return tiers;
}

std::uint32_t
floatBits(float f)
{
    std::uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
}

std::vector<std::uint16_t>
narrowSimd(const std::vector<float> &src, DType to)
{
    std::vector<std::uint16_t> dst(src.size());
    convertBuffer(src.data(), dst.data(), src.size(), to);
    return dst;
}

std::vector<std::uint16_t>
narrowScalar(const std::vector<float> &src, DType to)
{
    std::vector<std::uint16_t> dst(src.size());
    scalar::convertBuffer(src.data(), dst.data(), src.size(), to);
    return dst;
}

/** The fp32 specials every conversion path must agree on. */
std::vector<float>
specialFloats()
{
    return {
        0.0f,
        -0.0f,
        1.0f,
        -1.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        std::numeric_limits<float>::signaling_NaN(),
        65504.0f,   // fp16 max normal
        -65504.0f,
        65519.9f,   // rounds to fp16 max normal
        65520.0f,   // first value rounding to fp16 inf
        1e30f,      // far overflow
        6.103515625e-5f,  // 2^-14, smallest fp16 normal
        6.0975552e-5f,    // just below: fp16 denormal range
        5.9604645e-8f,    // 2^-24, smallest fp16 denormal
        2.9802322e-8f,    // 2^-25: ties to even (zero)
        2.9802326e-8f,    // just above 2^-25: rounds up
        1e-40f,     // fp32 denormal, flushes to fp16 zero
        std::numeric_limits<float>::denorm_min(),
        0.1f, 0.5f, 1.5f, 2.5f, // RTNE tie patterns after scaling
        3.14159265f,
    };
}

TEST(NumericsDtype, Fp16SpecialsMatchScalarAndPerElement)
{
    const std::vector<float> src = specialFloats();
    const auto ref = narrowScalar(src, DType::FP16);
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        const auto vec = narrowSimd(src, DType::FP16);
        ASSERT_EQ(vec.size(), ref.size());
        for (std::size_t i = 0; i < src.size(); ++i) {
            EXPECT_EQ(vec[i], ref[i])
                << simd::isaName(isa) << " input " << src[i];
            EXPECT_EQ(vec[i], fp32ToFp16Bits(src[i]))
                << simd::isaName(isa) << " input " << src[i];
        }
    }
    // Absolute anchors for the interesting classes.
    EXPECT_EQ(fp32ToFp16Bits(0.0f), 0x0000);
    EXPECT_EQ(fp32ToFp16Bits(-0.0f), 0x8000);
    EXPECT_EQ(fp32ToFp16Bits(65504.0f), 0x7bff);
    EXPECT_EQ(fp32ToFp16Bits(65520.0f), 0x7c00); // rounds to inf
    EXPECT_EQ(fp32ToFp16Bits(2.9802322e-8f), 0x0000); // 2^-25 tie
    EXPECT_EQ(fp32ToFp16Bits(2.9802326e-8f), 0x0001); // rounds up
    EXPECT_EQ(fp32ToFp16Bits(1e-40f), 0x0000); // denormal flush
    const std::uint16_t nan16 =
        fp32ToFp16Bits(std::numeric_limits<float>::quiet_NaN());
    EXPECT_EQ(nan16 & 0x7c00, 0x7c00);
    EXPECT_NE(nan16 & 0x03ff, 0); // NaN payload survives
}

TEST(NumericsDtype, Bf16SpecialsAndTiesMatchScalar)
{
    std::vector<float> src = specialFloats();
    // Exact RTNE tie patterns: low half == 0x8000 rounds to even.
    float even_tie, odd_tie, nan_payload;
    std::uint32_t b = 0x3f808000; // tie, upper 0x3f80 even -> stays
    std::memcpy(&even_tie, &b, 4);
    b = 0x3f818000; // tie, upper 0x3f81 odd -> rounds up to 0x3f82
    std::memcpy(&odd_tie, &b, 4);
    b = 0x7fa00001; // NaN with payload
    std::memcpy(&nan_payload, &b, 4);
    src.push_back(even_tie);
    src.push_back(odd_tie);
    src.push_back(nan_payload);

    const auto ref = narrowScalar(src, DType::BF16);
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        const auto vec = narrowSimd(src, DType::BF16);
        for (std::size_t i = 0; i < src.size(); ++i) {
            EXPECT_EQ(vec[i], ref[i])
                << simd::isaName(isa) << " input " << src[i];
            EXPECT_EQ(vec[i], fp32ToBf16Bits(src[i]))
                << simd::isaName(isa) << " input " << src[i];
        }
    }
    EXPECT_EQ(fp32ToBf16Bits(even_tie), 0x3f80);
    EXPECT_EQ(fp32ToBf16Bits(odd_tie), 0x3f82);
    const std::uint16_t n = fp32ToBf16Bits(nan_payload);
    EXPECT_EQ(n & 0x7f80, 0x7f80);
    EXPECT_NE(n & 0x007f, 0);
}

TEST(NumericsDtype, Fp16WidenExhaustiveAllBitPatterns)
{
    std::vector<std::uint16_t> bits(1 << 16);
    for (std::size_t i = 0; i < bits.size(); ++i)
        bits[i] = static_cast<std::uint16_t>(i);
    std::vector<float> vec(bits.size()), ref(bits.size());
    scalar::convertBuffer(bits.data(), ref.data(), bits.size(),
                          DType::FP16);
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        convertBuffer(bits.data(), vec.data(), bits.size(), DType::FP16);
        for (std::size_t i = 0; i < bits.size(); ++i) {
            EXPECT_EQ(floatBits(vec[i]), floatBits(ref[i]))
                << simd::isaName(isa) << " bits " << i;
            EXPECT_EQ(floatBits(vec[i]), floatBits(fp16BitsToFp32(bits[i])))
                << simd::isaName(isa) << " bits " << i;
        }
    }
    // Anchors: inf, -0, smallest denormal.
    EXPECT_EQ(fp16BitsToFp32(0x7c00),
              std::numeric_limits<float>::infinity());
    EXPECT_EQ(floatBits(fp16BitsToFp32(0x8000)), 0x80000000u);
    EXPECT_EQ(fp16BitsToFp32(0x0001), std::ldexp(1.0f, -24));
}

TEST(NumericsDtype, Bf16WidenExhaustiveAllBitPatterns)
{
    std::vector<std::uint16_t> bits(1 << 16);
    for (std::size_t i = 0; i < bits.size(); ++i)
        bits[i] = static_cast<std::uint16_t>(i);
    std::vector<float> vec(bits.size()), ref(bits.size());
    scalar::convertBuffer(bits.data(), ref.data(), bits.size(),
                          DType::BF16);
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        convertBuffer(bits.data(), vec.data(), bits.size(), DType::BF16);
        for (std::size_t i = 0; i < bits.size(); ++i) {
            EXPECT_EQ(floatBits(vec[i]), floatBits(ref[i]))
                << simd::isaName(isa) << " bits " << i;
            EXPECT_EQ(floatBits(vec[i]), floatBits(bf16BitsToFp32(bits[i])))
                << simd::isaName(isa) << " bits " << i;
        }
    }
}

TEST(NumericsDtype, RandomizedMillionElementEquivalence)
{
    constexpr std::size_t kN = std::size_t{1} << 20;
    Rng rng(77);
    std::vector<float> src(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        // Span the whole exponent range, specials included.
        const double mag = rng.uniform(-44.0, 44.0);
        src[i] = static_cast<float>(
            rng.gaussian(0.0, 1.0) * std::pow(10.0, mag));
        if (i % 997 == 0)
            src[i] = std::numeric_limits<float>::quiet_NaN();
        if (i % 991 == 0)
            src[i] = std::numeric_limits<float>::infinity();
    }
    const auto h = narrowScalar(src, DType::FP16);
    const auto b = narrowScalar(src, DType::BF16);
    std::vector<float> wide_vec(kN), wide_ref(kN);
    scalar::convertBuffer(h.data(), wide_ref.data(), kN, DType::FP16);
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        EXPECT_EQ(narrowSimd(src, DType::FP16), h) << simd::isaName(isa);
        EXPECT_EQ(narrowSimd(src, DType::BF16), b) << simd::isaName(isa);
        convertBuffer(h.data(), wide_vec.data(), kN, DType::FP16);
        EXPECT_EQ(std::memcmp(wide_vec.data(), wide_ref.data(), kN * 4), 0)
            << simd::isaName(isa);
    }
}

TEST(NumericsDtype, OddLengthsExerciseVectorTails)
{
    Rng rng(5);
    for (const std::size_t n : {0u, 1u, 3u, 4u, 7u, 8u, 9u, 15u, 33u}) {
        std::vector<float> src(n);
        for (float &v : src)
            v = static_cast<float>(rng.gaussian(0.0, 100.0));
        for (const simd::SimdIsa isa : supportedTiers()) {
            simd::ScopedIsa scope(isa);
            EXPECT_EQ(narrowSimd(src, DType::FP16),
                      narrowScalar(src, DType::FP16))
                << simd::isaName(isa) << " n=" << n;
            EXPECT_EQ(narrowSimd(src, DType::BF16),
                      narrowScalar(src, DType::BF16))
                << simd::isaName(isa) << " n=" << n;
        }
    }
}

// ----------------------------------------------------------- quantize

TEST(NumericsQuantize, DynamicMatchesScalarAcrossGranularities)
{
    Rng rng(11);
    // Odd shape so every kernel tail path runs; a zero row and an
    // outlier row stress the scale guard and the clamp.
    Tensor act(Shape{37, 129}, DType::FP32);
    act.fillGaussian(rng, 0.0f, 3.0f);
    for (std::int64_t k = 0; k < 129; ++k)
        act.set(5 * 129 + k, 0.0f);
    act.set(7 * 129 + 3, 1e6f);

    struct Case
    {
        QuantGranularity g;
        std::int64_t group_rows;
    };
    for (const Case c : {Case{QuantGranularity::PerTensor, 1},
                         Case{QuantGranularity::PerRow, 1},
                         Case{QuantGranularity::PerRowGroup, 4},
                         Case{QuantGranularity::PerRowGroup, 16}}) {
        const QuantizedTensor b =
            scalar::quantizeDynamic(act, c.g, c.group_rows);
        const Tensor db = scalar::dequantize(b);
        for (const simd::SimdIsa isa : supportedTiers()) {
            simd::ScopedIsa scope(isa);
            const QuantizedTensor a =
                quantizeDynamic(act, c.g, c.group_rows);
            EXPECT_EQ(a.values.raw(), b.values.raw()) << simd::isaName(isa);
            EXPECT_EQ(a.group_rows, b.group_rows);
            ASSERT_EQ(a.scales.size(), b.scales.size());
            EXPECT_EQ(std::memcmp(a.scales.data(), b.scales.data(),
                                  a.scales.size() * 4),
                      0)
                << simd::isaName(isa);
            const Tensor da = dequantize(a);
            EXPECT_EQ(da.raw(), db.raw()) << simd::isaName(isa);
        }
    }
}

TEST(NumericsQuantize, StaticPercentileClippedOutliersStaySaturated)
{
    Rng rng(13);
    Tensor w(Shape{64, 64}, DType::FP32);
    w.fillGaussian(rng);
    w.set(0, 1e8f); // outlier far beyond the percentile clip
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        const QuantizedTensor q = quantizeStatic(w, 99.0);
        // The clipped outlier must pin to +127, not wrap (the int32
        // overflow case the float-domain pre-clamp guards against).
        EXPECT_EQ(static_cast<std::int8_t>(q.values.raw()[0]), 127)
            << simd::isaName(isa);
        const Tensor deq = dequantize(q);
        EXPECT_GT(sqnrDb(w, deq), 0.0);
    }
    // An empty tensor has nothing to clip: scale 0, and the percentile
    // rank must not index past the empty magnitude list.
    const QuantizedTensor empty =
        quantizeStatic(Tensor(Shape{0, 4}, DType::FP32), 99.0);
    ASSERT_EQ(empty.scales.size(), 1u);
    EXPECT_EQ(empty.scales[0], 0.0f);
}

TEST(NumericsQuantize, NonFiniteInputFailsClosedOnEveryTier)
{
    // A 1x19 row: indices 0..15 go through the vector body, 16..18
    // through the per-element tail. A NaN or Inf has no INT8 scale,
    // and unchecked the tiers disagree on it (a NaN quantizes to -128
    // on SSE2 and to 0 on scalar, via a UB float->int8 cast).
    ScopedCheckThrow guard;
    const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
    for (const simd::SimdIsa isa : supportedTiers()) {
        simd::ScopedIsa scope(isa);
        for (const float bad : bad_values) {
            for (const std::int64_t at : {5, 17}) {
                Tensor row(Shape{1, 19}, DType::FP32);
                for (std::int64_t i = 0; i < 19; ++i)
                    row.set(i, 0.25f);
                EXPECT_NO_THROW(
                    quantizeDynamic(row, QuantGranularity::PerRow));
                row.set(at, bad);
                EXPECT_THROW(quantizeDynamic(row, QuantGranularity::PerRow),
                             CheckFailedError)
                    << simd::isaName(isa) << " " << bad << " at " << at;
                EXPECT_THROW(
                    scalar::quantizeDynamic(row, QuantGranularity::PerRow),
                    CheckFailedError);
                EXPECT_THROW(quantizeStatic(row), CheckFailedError)
                    << simd::isaName(isa) << " " << bad << " at " << at;
                EXPECT_THROW(quantizeStatic(row, 99.0), CheckFailedError)
                    << simd::isaName(isa) << " " << bad << " at " << at;
            }
        }
    }
}

// -------------------------------------------------------------- codec

TEST(NumericsCodec, RansV2RoundTripsAcrossPayloads)
{
    Rng rng(17);
    std::vector<ByteBuffer> payloads;
    payloads.push_back({});                      // empty
    payloads.push_back({0x42});                  // single byte
    payloads.push_back(ByteBuffer(5, 0xaa));     // tiny constant
    ByteBuffer gauss(200000);
    for (auto &b : gauss)
        b = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(rng.gaussian(0.0, 9.0)));
    payloads.push_back(gauss);
    ByteBuffer uniform(70000);
    for (auto &b : uniform)
        b = static_cast<std::uint8_t>(rng.below(256));
    payloads.push_back(uniform);

    for (const ByteBuffer &p : payloads) {
        const ByteBuffer v2 =
            RansCodec::compress(p, RansFormat::V2Interleaved);
        EXPECT_EQ(RansCodec::decompress(v2), p) << p.size();
        const ByteBuffer v1 =
            RansCodec::compress(p, RansFormat::V1Scalar);
        EXPECT_EQ(RansCodec::decompress(v1), p) << p.size();
    }
}

TEST(NumericsCodec, LegacyV1StreamsStillDecode)
{
    // A v1 container has no sentinel: its first word is the payload
    // length. decompress must keep reading those (format versioning
    // guarantee for already-written streams).
    Rng rng(19);
    ByteBuffer data(60000);
    for (auto &b : data)
        b = static_cast<std::uint8_t>(
            static_cast<std::int8_t>(rng.gaussian(0.0, 5.0)));
    const ByteBuffer v1 = RansCodec::compress(data, RansFormat::V1Scalar);
    ASSERT_GE(v1.size(), 4u);
    std::uint32_t first_word;
    std::memcpy(&first_word, v1.data(), 4);
    EXPECT_EQ(first_word, data.size()); // no 0xffffffff sentinel
    EXPECT_EQ(RansCodec::decompress(v1), data);

    const ByteBuffer v2 =
        RansCodec::compress(data, RansFormat::V2Interleaved);
    std::memcpy(&first_word, v2.data(), 4);
    EXPECT_EQ(first_word, 0xffffffffu); // sentinel + version byte
    EXPECT_EQ(v2[4], 2);
    EXPECT_EQ(RansCodec::decompress(v2), data);
}

TEST(NumericsCodec, LzHashChainMatchesGreedySemantics)
{
    Rng rng(23);
    std::vector<ByteBuffer> payloads;
    payloads.push_back({});
    ByteBuffer repetitive(150000);
    for (std::size_t i = 0; i < repetitive.size(); ++i) {
        repetitive[i] = static_cast<std::uint8_t>((i % 96) * 5);
        if (rng.chance(0.01))
            repetitive[i] ^= 0xff;
    }
    payloads.push_back(repetitive);
    ByteBuffer random(50000);
    for (auto &b : random)
        b = static_cast<std::uint8_t>(rng.below(256));
    payloads.push_back(random);
    ByteBuffer overlap; // overlapping matches (run-length style)
    for (int i = 0; i < 5000; ++i)
        overlap.push_back(static_cast<std::uint8_t>(i % 3));
    payloads.push_back(overlap);

    for (const ByteBuffer &p : payloads) {
        const ByteBuffer chain = LzCodec::compress(p);
        const ByteBuffer greedy = LzCodec::compressGreedy(p);
        EXPECT_EQ(LzCodec::decompress(chain), p) << p.size();
        EXPECT_EQ(LzCodec::decompress(greedy), p) << p.size();
        // The chain matcher searches strictly more candidates.
        EXPECT_LE(chain.size(), greedy.size()) << p.size();
    }
}

// ------------------------------------------------------------- gather

TEST(NumericsGather, AccumulateMatchesScalarAcrossDims)
{
    Rng rng(29);
    for (const std::int64_t dim : {1, 3, 4, 8, 11, 64, 103}) {
        constexpr std::size_t kPool = 64;
        std::vector<float> pool(kPool * static_cast<std::size_t>(dim));
        for (float &v : pool)
            v = static_cast<float>(rng.gaussian(0.0, 0.3));
        for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                        std::size_t{7},
                                        std::size_t{256}}) {
            std::vector<const float *> rows(count);
            std::vector<float> weights(count);
            for (std::size_t p = 0; p < count; ++p) {
                rows[p] = pool.data() +
                    rng.below(kPool) * static_cast<std::size_t>(dim);
                weights[p] = static_cast<float>(rng.uniform(0.5, 1.5));
            }
            std::vector<float> b(static_cast<std::size_t>(dim), 0.0f);
            tbe_kernels::gatherAccumulateScalar(
                rows.data(), weights.data(), count, dim, b.data());
            for (const simd::SimdIsa isa : supportedTiers()) {
                simd::ScopedIsa scope(isa);
                std::vector<float> a(static_cast<std::size_t>(dim), 0.0f);
                tbe_kernels::gatherAccumulate(rows.data(), weights.data(),
                                              count, dim, a.data());
                EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * 4), 0)
                    << simd::isaName(isa) << " dim=" << dim
                    << " count=" << count;
            }
        }
    }
}

// ------------------------------------------------------ simd + stats

TEST(NumericsSimd, AlignedBufferAndRtneBasics)
{
    EXPECT_NE(simd::isaName(simd::activeIsa()), nullptr);
    simd::AlignedBuffer<float> buf(37);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) %
                  simd::kAlignment,
              0u);

#if defined(MTIA_SIMD_VEC128)

    // RTNE through the lane-wide converter: ties go to even.
    alignas(64) float in[4] = {0.5f, 1.5f, 2.5f, -0.5f};
    alignas(64) std::int32_t out[4];
    const auto v = simd::toI32Rtne(simd::VecF32::load(in));
    v.store(out);
    EXPECT_EQ(out[0], 0);
    EXPECT_EQ(out[1], 2);
    EXPECT_EQ(out[2], 2);
    EXPECT_EQ(out[3], 0);
#endif
}

TEST(NumericsStats, CountersAccumulateAndPublish)
{
    numerics::resetStats();
    EXPECT_EQ(numerics::bytesConverted(), 0u);

    std::vector<float> src(100, 1.0f);
    std::vector<std::uint16_t> dst(100);
    convertBuffer(src.data(), dst.data(), 100, DType::FP16);
    EXPECT_EQ(numerics::bytesConverted(), 400u); // input floats
    convertBuffer(dst.data(), src.data(), 100, DType::FP16);
    EXPECT_EQ(numerics::bytesConverted(), 600u); // + input halves

    ByteBuffer data(1000, 0x5a);
    (void)RansCodec::compress(data);
    EXPECT_EQ(numerics::bytesCompressed(), 1000u);
    (void)LzCodec::compress(data);
    EXPECT_EQ(numerics::bytesCompressed(), 2000u);

    numerics::noteGatherRows(42);
    EXPECT_EQ(numerics::gatherRows(), 42u);

    telemetry::MetricRegistry registry;
    numerics::publishNumericsMetrics(registry);
    EXPECT_EQ(registry.counter("numerics.bytes_converted").value(),
              600u);
    EXPECT_EQ(registry.counter("numerics.bytes_compressed").value(),
              2000u);
    EXPECT_EQ(registry.counter("numerics.gather_rows").value(), 42u);

    numerics::resetStats();
    EXPECT_EQ(numerics::bytesConverted(), 0u);
    EXPECT_EQ(numerics::bytesCompressed(), 0u);
    EXPECT_EQ(numerics::gatherRows(), 0u);
}

// Tensor-level fast paths ride the same kernels; spot-check the cast
// round trip stays identical to the per-element accessors.
TEST(NumericsTensor, CastFastPathMatchesElementAccessors)
{
    Rng rng(31);
    Tensor t(Shape{9, 13}, DType::FP32);
    t.fillGaussian(rng, 0.0f, 10.0f);
    for (const DType half : {DType::FP16, DType::BF16}) {
        const Tensor h = t.cast(half);
        for (std::int64_t i = 0; i < t.numel(); ++i) {
            const std::uint16_t expect = half == DType::FP16
                ? fp32ToFp16Bits(t.at(i))
                : fp32ToBf16Bits(t.at(i));
            std::uint16_t got;
            std::memcpy(&got,
                        h.raw().data() + static_cast<std::size_t>(i) * 2,
                        2);
            EXPECT_EQ(got, expect) << "i=" << i;
        }
        const Tensor back = h.cast(DType::FP32);
        for (std::int64_t i = 0; i < t.numel(); ++i)
            EXPECT_EQ(floatBits(back.at(i)), floatBits(h.at(i)))
                << "i=" << i;
    }
}

} // namespace
} // namespace mtia
