/**
 * @file
 * weight_publish: one op publishes and then loads a fresh snapshot of
 * one shard of an FC layer of a Table 1 model (paper Section 3.3), plus
 * an LZ round trip of a dense input-feature batch. A shard is a block
 * of rows of at most 1 MiB in FP32; the late stage's 18688x1024 layer
 * alone is 73 MiB, and ops that size would make a few draws decide a
 * run's tail.
 *
 *  - publish: quantizeStatic to INT8 and a cast to FP16, rANS v2 encode
 *    of both images, SHA-256 signature over the encoded bytes;
 *  - load: signature verify, rANS decode, dequantize, FP16 -> FP32.
 *
 * The snapshot is the layer's weights with a seed-drawn per-row update
 * (a training step), so no two ops publish the same bytes. This is the
 * write side of the numerics layer (quantisation, codecs, hashing in
 * tensor and host) that rank_inference only reads through.
 */

#include <algorithm>
#include <cstring>
#include <memory>

#include "core/parallel.h"
#include "graph/fusion.h"
#include "host/compression.h"
#include "host/sha256.h"
#include "models/model_zoo.h"
#include "ops/dense_ops.h"
#include "sim/random.h"
#include "tensor/quantize.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mtia;

constexpr std::size_t kFeatureBytes = 256 * 1024;
constexpr std::int64_t kShardParams = 256 * 1024; // 1 MiB of FP32

/** Functions whose throughput the traced run reports. */
enum Fn {
    kQuantize,
    kDequantize,
    kConvert,
    kRansEncode,
    kRansDecode,
    kLzEncode,
    kLzDecode,
    kSha256,
    kFns
};

Sha256Digest
sign(const ByteBuffer &int8_img, const std::vector<float> &scales,
     const ByteBuffer &fp16_img)
{
    Sha256 h;
    h.update(int8_img);
    h.update(reinterpret_cast<const std::uint8_t *>(scales.data()),
             scales.size() * sizeof(float));
    h.update(fp16_img);
    return h.finish();
}

struct PublishLayerTotals
{
    double bytes[kFns] = {};
    double ns[kFns] = {};
    double int8_raw = 0, int8_img = 0;
    double fp16_raw = 0, fp16_img = 0;
    double lz_raw = 0, lz_img = 0;
};

class WeightPublish final : public Workload
{
  public:
    const char *name() const override { return "weight_publish"; }
    std::size_t deterministicOps() const override { return 12; }
    std::size_t maxReferences() const override { return 12; }
    const char *workUnit() const override
    {
        return "MB of weights published and loaded";
    }

    void setup(std::uint64_t) override
    {
        models_.clear();
        models_.push_back(buildRetrievalModel(64));
        models_.push_back(buildEarlyStageModel(32));
        models_.push_back(buildLateStageModel(8));
        shards_.clear();
        for (ModelInfo &m : models_) {
            optimizeGraph(m.graph);
            for (int id : m.graph.topoOrder()) {
                const auto *fc = dynamic_cast<const FullyConnectedOp *>(
                    m.graph.node(id).op.get());
                if (fc == nullptr)
                    continue;
                (void)fc->weights(); // first-touch materialization
                const std::int64_t rows = fc->shape().k;
                const std::int64_t step =
                    std::max<std::int64_t>(1, kShardParams / fc->shape().n);
                for (std::int64_t r = 0; r < rows; r += step)
                    shards_.push_back({fc, r, std::min(step, rows - r)});
            }
        }
    }

    void prepare(const OpSpec &op) override
    {
        const Shard &sh = shards_[op.seed % shards_.size()];
        const Tensor &w = sh.fc->weights();
        const std::int64_t cols = w.shape().dim(1);
        const std::size_t row_bytes =
            static_cast<std::size_t>(cols) * dtypeSize(w.dtype());
        Tensor block(Shape{sh.rows, cols}, w.dtype());
        std::memcpy(block.raw().data(),
                    w.raw().data() + static_cast<std::size_t>(sh.row0) *
                        row_bytes,
                    block.raw().size());
        Rng rng(op.seed);
        std::vector<float> vals = block.toFloats();
        for (std::int64_t r = 0; r < sh.rows; ++r) {
            const auto step =
                static_cast<float>(1.0 + rng.gaussian(0.0, 0.01));
            float *row = vals.data() + static_cast<std::size_t>(r * cols);
            for (std::int64_t c = 0; c < cols; ++c)
                row[c] *= step;
        }
        master_ = Tensor::fromFloats(vals, block.shape(), DType::FP32);

        // Bucketized dense features: a repeating per-feature layout
        // with a seed-drawn sprinkle of changed values.
        features_.resize(kFeatureBytes);
        for (std::size_t i = 0; i < features_.size(); ++i) {
            features_[i] = static_cast<std::uint8_t>((i % 128) * 3);
            if (rng.chance(0.02))
                features_[i] ^= 0xff;
        }
    }

    double run(const OpSpec &op, Tracer *tr, int root) override
    {
        io_.clear();
        const auto index = static_cast<std::int64_t>(op.index);
        const auto step = [&](Fn fn, const char *layer, const char *name,
                              std::size_t bytes, auto &&body) {
            Span s(tr, layer, name, root, index);
            body();
            s.close();
            if (tr != nullptr)
                io_.push_back({fn, s.id(), static_cast<double>(bytes)});
        };
        const std::size_t master_bytes = master_.raw().size();

        // Publish.
        step(kQuantize, "tensor", "quantizeStatic", master_bytes,
             [&] { q_ = quantizeStatic(master_); });
        step(kConvert, "tensor", "Tensor::cast", master_bytes,
             [&] { fp16_ = master_.cast(DType::FP16); });
        step(kRansEncode, "host", "RansCodec::compress",
             q_.values.raw().size(),
             [&] { int8_img_ = RansCodec::compress(q_.values.raw()); });
        step(kRansEncode, "host", "RansCodec::compress",
             fp16_.raw().size(),
             [&] { fp16_img_ = RansCodec::compress(fp16_.raw()); });
        step(kSha256, "host", "Sha256", imageBytes(),
             [&] { sig_ = sign(int8_img_, q_.scales, fp16_img_); });

        // Load.
        step(kSha256, "host", "Sha256", imageBytes(), [&] {
            verified_ = sign(int8_img_, q_.scales, fp16_img_) == sig_;
        });
        step(kRansDecode, "host", "RansCodec::decompress",
             q_.values.raw().size(),
             [&] { int8_back_ = RansCodec::decompress(int8_img_); });
        step(kRansDecode, "host", "RansCodec::decompress",
             fp16_.raw().size(),
             [&] { fp16_back_ = RansCodec::decompress(fp16_img_); });
        QuantizedTensor loaded_q;
        loaded_q.values = Tensor(q_.values.shape(), DType::INT8);
        loaded_q.values.raw() = int8_back_;
        loaded_q.scales = q_.scales;
        loaded_q.group_rows = q_.group_rows;
        step(kDequantize, "tensor", "dequantize", master_bytes,
             [&] { deq_ = dequantize(loaded_q); });
        Tensor loaded16(fp16_.shape(), DType::FP16);
        loaded16.raw() = fp16_back_;
        step(kConvert, "tensor", "Tensor::cast", loaded16.raw().size(),
             [&] { loaded32_ = loaded16.cast(DType::FP32); });

        // The input-feature batch over the congested PCIe uplink.
        step(kLzEncode, "host", "LzCodec::compress", features_.size(),
             [&] { lz_img_ = LzCodec::compress(features_); });
        step(kLzDecode, "host", "LzCodec::decompress", features_.size(),
             [&] { features_back_ = LzCodec::decompress(lz_img_); });

        return static_cast<double>(master_bytes) / 1e6;
    }

    bool check(const OpSpec &op) override
    {
        // Exact round trips through both codecs and the signature.
        bool ok = verified_ && int8_back_ == q_.values.raw() &&
            fp16_back_ == fp16_.raw() && features_back_ == features_ &&
            deq_.shape() == master_.shape() && !deq_.hasNonFinite() &&
            loaded32_.shape() == master_.shape() &&
            !loaded32_.hasNonFinite();
        if (op.index < deterministicOps()) {
            const double img = static_cast<double>(
                int8_img_.size() + fp16_img_.size() + lz_img_.size());
            const double raw = static_cast<double>(
                q_.values.raw().size() + fp16_.raw().size() +
                features_.size());
            compressed_frac_.push_back(img / raw);
        }
        if (!op.reference)
            return ok;

        // A one-bit-flipped image must fail verification.
        ByteBuffer flipped = int8_img_;
        const std::uint64_t bit = op.seed % (flipped.size() * 8);
        flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ok = ok && sign(flipped, q_.scales, fp16_img_) != sig_;

        // Dequantize against the scalar reference kernel.
        Tensor ref_deq = scalar::dequantize(q_);
        // The published bytes at another lane count.
        QuantizedTensor ref_q;
        ByteBuffer ref_int8;
        ByteBuffer ref_fp16;
        {
            ScopedParallelism lanes(op.reference_lanes);
            ref_q = quantizeStatic(master_);
            ref_int8 = RansCodec::compress(ref_q.values.raw());
            ref_fp16 = RansCodec::compress(master_.cast(DType::FP16).raw());
        }
        if (op.corrupt_reference)
            ref_int8.back() ^= 1;
        return ok && ref_deq.raw() == deq_.raw() &&
            ref_q.scales == q_.scales &&
            ref_q.values.raw() == q_.values.raw() && ref_int8 == int8_img_ &&
            ref_fp16 == fp16_img_;
    }

    void beginTraced() override { totals_ = {}; }

    bool measureLayers(const OpSpec &, Tracer &tracer, int) override
    {
        PublishLayerTotals &t = totals_;
        for (const IoRecord &r : io_) {
            t.bytes[r.fn] += r.bytes;
            t.ns[r.fn] += static_cast<double>(
                tracer.spans()[static_cast<std::size_t>(r.span)].dur_ns);
        }
        t.int8_raw += static_cast<double>(q_.values.raw().size());
        t.int8_img += static_cast<double>(int8_img_.size());
        t.fp16_raw += static_cast<double>(fp16_.raw().size());
        t.fp16_img += static_cast<double>(fp16_img_.size());
        t.lz_raw += static_cast<double>(features_.size());
        t.lz_img += static_cast<double>(lz_img_.size());
        return true;
    }

    std::vector<Metric> deterministic() const override
    {
        return {{"compressed_frac", median(compressed_frac_), "fraction"}};
    }

    std::vector<Metric> layerMetrics() const override
    {
        const PublishLayerTotals &t = totals_;
        const auto mbs = [&t](Fn fn) {
            return t.ns[fn] > 0.0 ? t.bytes[fn] / 1e6 / (t.ns[fn] / 1e9)
                                  : 0.0;
        };
        const auto ratio = [](double a, double b) {
            return b > 0.0 ? a / b : 0.0;
        };
        return {
            {"tensor.quantize_mb_s", mbs(kQuantize), "MB/s"},
            {"tensor.dequantize_mb_s", mbs(kDequantize), "MB/s"},
            {"tensor.convert_mb_s", mbs(kConvert), "MB/s"},
            {"host.rans_encode_mb_s", mbs(kRansEncode), "MB/s"},
            {"host.rans_decode_mb_s", mbs(kRansDecode), "MB/s"},
            {"host.lz_encode_mb_s", mbs(kLzEncode), "MB/s"},
            {"host.lz_decode_mb_s", mbs(kLzDecode), "MB/s"},
            {"host.sha256_mb_s", mbs(kSha256), "MB/s"},
            {"host.rans_ratio_int8", ratio(t.int8_img, t.int8_raw),
             "fraction"},
            {"host.rans_ratio_fp16", ratio(t.fp16_img, t.fp16_raw),
             "fraction"},
            {"host.lz_ratio", ratio(t.lz_img, t.lz_raw), "fraction"},
        };
    }

  private:
    std::size_t imageBytes() const
    {
        return int8_img_.size() + q_.scales.size() * sizeof(float) +
            fp16_img_.size();
    }

    struct IoRecord
    {
        Fn fn;
        int span;
        double bytes;
    };

    struct Shard
    {
        const FullyConnectedOp *fc;
        std::int64_t row0;
        std::int64_t rows;
    };

    std::vector<ModelInfo> models_;
    std::vector<Shard> shards_;

    Tensor master_;
    ByteBuffer features_;

    QuantizedTensor q_;
    Tensor fp16_;
    ByteBuffer int8_img_;
    ByteBuffer fp16_img_;
    Sha256Digest sig_{};
    bool verified_ = false;
    ByteBuffer int8_back_;
    ByteBuffer fp16_back_;
    Tensor deq_;
    Tensor loaded32_;
    ByteBuffer lz_img_;
    ByteBuffer features_back_;

    std::vector<IoRecord> io_;
    std::vector<double> compressed_frac_;
    PublishLayerTotals totals_;
};

} // namespace

std::unique_ptr<Workload>
makeWeightPublish()
{
    return std::make_unique<WeightPublish>();
}

} // namespace perfbench
