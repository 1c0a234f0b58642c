/**
 * @file
 * rank_inference: one op is one functional Executor::run of one Table 1
 * stage (retrieval, early, late; each after optimizeGraph) in a fixed
 * rotation. Batches are scaled down from 4096:2048:512 to 64:32:8,
 * keeping the 8:4:1 ratio, so an op stays short on a CPU. The graph
 * executor, the ops (FC/MHA GEMM, TBE gather) and tensor conversion do
 * the work; no DES runs.
 *
 * A traced op also replays the stage node by node through the public
 * Op::run in Graph::topoOrder() order (outside the op's timed region)
 * and attributes the executor's span to the replayed node times.
 */

#include <algorithm>
#include <map>
#include <memory>

#include "core/numerics_stats.h"
#include "core/parallel.h"
#include "core/simd.h"
#include "graph/executor.h"
#include "graph/fusion.h"
#include "graph/graph_cost.h"
#include "models/model_zoo.h"
#include "ops/dense_ops.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mtia;

constexpr std::int64_t kLateBatch = 8; // 8:4:1 -> 64:32:8
constexpr int kStages = 3;

/** Node kinds grouped into the ops.* metrics. */
enum class KindGroup { Fc, Mha, Tbe, Other };

KindGroup
groupOf(const std::string &kind)
{
    if (kind == "fc" || kind == "fused-transpose-fc")
        return KindGroup::Fc;
    if (kind == "mha" || kind == "ragged-attention")
        return KindGroup::Mha;
    if (kind == "tbe" || kind == "sequence-tbe")
        return KindGroup::Tbe;
    return KindGroup::Other;
}

const char *
groupLayer(KindGroup g)
{
    switch (g) {
    case KindGroup::Fc:
        return "ops.fc";
    case KindGroup::Mha:
        return "ops.mha";
    case KindGroup::Tbe:
        return "ops.tbe";
    case KindGroup::Other:
        break;
    }
    return "ops.other";
}

bool
sameOutputs(const ExecutionResult &a, const ExecutionResult &b)
{
    if (a.outputs.size() != b.outputs.size())
        return false;
    for (const auto &[id, t] : a.outputs) {
        auto it = b.outputs.find(id);
        if (it == b.outputs.end() || !(it->second.shape() == t.shape()) ||
            it->second.dtype() != t.dtype() ||
            it->second.raw() != t.raw())
            return false;
    }
    return true;
}

/** Table 1 stage graphs priced by the chip cost model, summed. */
double
simBatchMs(const std::vector<ModelInfo> &stages)
{
    double ms = 0.0;
    for (const ModelInfo &m : stages) {
        Device dev(ChipConfig::mtia2i());
        GraphCostModel gcm(dev);
        ms += gcm.evaluate(m.graph, static_cast<double>(m.batch))
                  .latencyMs();
    }
    return ms;
}

struct RankLayerTotals
{
    double ops = 0;
    double run_ns[kStages] = {0, 0, 0};
    double stage_ops[kStages] = {0, 0, 0};
    double executor_self_ns = 0;
    double group_ns[4] = {0, 0, 0, 0};
    double bytes_converted = 0;
    double gemm_flops = 0;
    double gather_rows = 0;
    double gemm_ns = 0; ///< replayed FC + MHA node time
    double tbe_ns = 0;  ///< replayed TBE node time
    double peak_live_bytes = 0;
};

class RankInference final : public Workload
{
  public:
    const char *name() const override { return "rank_inference"; }
    std::size_t rotation() const override { return kStages; }
    std::size_t deterministicOps() const override { return kStages; }
    std::uint64_t referenceOneIn() const override { return 8; }
    std::size_t maxReferences() const override { return 3; }
    const char *workUnit() const override { return "inference samples"; }

    void setup(std::uint64_t) override
    {
        stages_.clear();
        stages_.push_back(buildRetrievalModel(8 * kLateBatch));
        stages_.push_back(buildEarlyStageModel(4 * kLateBatch));
        stages_.push_back(buildLateStageModel(kLateBatch));
        for (ModelInfo &m : stages_) {
            optimizeGraph(m.graph);
            // First-touch weight materialization (lazy per FC layer).
            for (int id : m.graph.topoOrder()) {
                if (const auto *fc = dynamic_cast<const FullyConnectedOp *>(
                        m.graph.node(id).op.get()))
                    (void)fc->weights();
            }
        }
    }

    double run(const OpSpec &op, Tracer *tracer, int root) override
    {
        const ModelInfo &m = stageOf(op);
        const std::uint64_t conv0 =
            tracer != nullptr ? numerics::bytesConverted() : 0;
        Span span(tracer, "graph", "Executor::run", root,
                  static_cast<std::int64_t>(op.index));
        Executor ex(op.seed);
        last_ = ex.run(m.graph);
        span.close();
        run_span_ = span.id();
        if (tracer != nullptr)
            last_conversion_ = numerics::bytesConverted() - conv0;
        return static_cast<double>(m.batch);
    }

    bool check(const OpSpec &op) override
    {
        const ModelInfo &m = stageOf(op);
        bool ok = last_.outputs.size() == m.graph.outputs().size();
        for (const auto &[id, t] : last_.outputs) {
            ok = ok && t.shape() == m.graph.shapeOf(id) &&
                !t.hasNonFinite();
        }
        if (!op.reference)
            return ok;

        // Reference: the scalar SIMD tier at another lane count must give
        // the same bits (the repo's tier x thread-count contract).
        ExecutionResult ref;
        {
            simd::ScopedIsa scalar(simd::SimdIsa::Scalar);
            ScopedParallelism lanes(op.reference_lanes);
            Executor ex(op.seed);
            ref = ex.run(m.graph);
        }
        if (op.corrupt_reference && !ref.outputs.empty())
            ref.outputs.begin()->second.flipBit(0);
        ok = ok && sameOutputs(last_, ref);

        if (!sim_checked_) {
            // The cost model's price of the stage batches, at the
            // ambient lane count and at one and four lanes.
            sim_batch_ms_ = simBatchMs(stages_);
            for (unsigned lanes : {1u, 4u}) {
                ScopedParallelism pinned(lanes);
                ok = ok && simBatchMs(stages_) == sim_batch_ms_;
            }
            sim_checked_ = true;
        }
        return ok;
    }

    void beginTraced() override { totals_ = {}; }

    bool measureLayers(const OpSpec &op, Tracer &tracer, int) override
    {
        const ModelInfo &m = stageOf(op);
        const Graph &g = m.graph;
        const int main_track =
            tracer.spans()[static_cast<std::size_t>(run_span_)].track;
        tracer.setTrack(main_track + 1);

        // Replay node by node with the executor's seed and contract:
        // same inputs, same rng stream, tensors freed after last use.
        Rng rng(op.seed);
        OpContext ctx;
        ctx.rng = &rng;
        ctx.use_lut_simd = true;
        const std::vector<int> order = g.topoOrder();
        const std::vector<int> outputs = g.outputs();
        std::map<int, std::size_t> uses;
        for (int id : order)
            uses[id] = g.consumers(id).size();
        std::map<int, Tensor> live;
        double group_ns[4] = {0, 0, 0, 0};
        const std::uint64_t flops0 = numerics::gemmFlops();
        const std::uint64_t rows0 = numerics::gatherRows();
        double gemm_ns = 0.0;
        double tbe_ns = 0.0;
        for (int id : order) {
            const Node &nd = g.node(id);
            std::vector<Tensor> ins;
            ins.reserve(nd.inputs.size());
            for (int in : nd.inputs)
                ins.push_back(live.at(in));
            const std::string kind = nd.op->kind();
            const KindGroup grp = groupOf(kind);
            Span node(&tracer, groupLayer(grp), kind.c_str(), run_span_,
                      static_cast<std::int64_t>(op.index));
            Tensor out = nd.op->run(ins, ctx);
            node.close();
            const double ns = static_cast<double>(
                tracer.spans()[static_cast<std::size_t>(node.id())].dur_ns);
            group_ns[static_cast<int>(grp)] += ns;
            if (grp == KindGroup::Fc || grp == KindGroup::Mha)
                gemm_ns += ns;
            if (grp == KindGroup::Tbe)
                tbe_ns += ns;
            live.emplace(id, std::move(out));
            for (int in : nd.inputs) {
                if (--uses[in] == 0 &&
                    std::find(outputs.begin(), outputs.end(), in) ==
                        outputs.end())
                    live.erase(in);
            }
        }
        tracer.setTrack(main_track);

        RankLayerTotals &t = totals_;
        const int s = stageIndex(op);
        const double run_ns = static_cast<double>(
            tracer.spans()[static_cast<std::size_t>(run_span_)].dur_ns);
        double nodes_ns = 0.0;
        for (int k = 0; k < 4; ++k) {
            t.group_ns[k] += group_ns[k];
            nodes_ns += group_ns[k];
        }
        t.ops += 1;
        t.run_ns[s] += run_ns;
        t.stage_ops[s] += 1;
        t.executor_self_ns += run_ns - nodes_ns;
        t.bytes_converted += static_cast<double>(last_conversion_);
        t.gemm_flops += static_cast<double>(numerics::gemmFlops() - flops0);
        t.gather_rows += static_cast<double>(numerics::gatherRows() - rows0);
        t.gemm_ns += gemm_ns;
        t.tbe_ns += tbe_ns;
        t.peak_live_bytes = std::max(
            t.peak_live_bytes, static_cast<double>(last_.peak_bytes));

        // The replay must reproduce the executor's outputs bit for bit.
        ExecutionResult replayed;
        for (int id : outputs) {
            auto it = live.find(id);
            if (it != live.end())
                replayed.outputs.emplace(id, std::move(it->second));
        }
        return sameOutputs(last_, replayed);
    }

    std::vector<Metric> deterministic() const override
    {
        return {{"sim_batch_ms",
                 sim_checked_ ? sim_batch_ms_ : simBatchMs(stages_),
                 "sim_ms"}};
    }

    std::vector<Metric> layerMetrics() const override
    {
        const RankLayerTotals &t = totals_;
        const double ops = std::max(t.ops, 1.0);
        const auto per = [](double ns, double n) {
            return n > 0.0 ? ns / 1e6 / n : 0.0;
        };
        return {
            {"graph.run_ms.retrieval", per(t.run_ns[0], t.stage_ops[0]),
             "ms"},
            {"graph.run_ms.early", per(t.run_ns[1], t.stage_ops[1]), "ms"},
            {"graph.run_ms.late", per(t.run_ns[2], t.stage_ops[2]), "ms"},
            {"graph.executor_self_ms", t.executor_self_ns / 1e6 / ops,
             "ms"},
            {"ops.fc_ms", t.group_ns[0] / 1e6 / ops, "ms"},
            {"ops.mha_ms", t.group_ns[1] / 1e6 / ops, "ms"},
            {"ops.tbe_ms", t.group_ns[2] / 1e6 / ops, "ms"},
            {"ops.other_ms", t.group_ns[3] / 1e6 / ops, "ms"},
            {"numerics.gemm_gflops",
             t.gemm_ns > 0.0 ? t.gemm_flops / t.gemm_ns : 0.0, "GFLOP/s"},
            {"numerics.gather_mrows_per_s",
             t.tbe_ns > 0.0 ? t.gather_rows / 1e6 / (t.tbe_ns / 1e9) : 0.0,
             "Mrows/s"},
            {"numerics.bytes_converted_per_op", t.bytes_converted / ops,
             "bytes"},
            {"graph.peak_live_mb", t.peak_live_bytes / 1e6, "MB"},
        };
    }

  private:
    static int stageIndex(const OpSpec &op)
    {
        return static_cast<int>(op.index % kStages);
    }
    const ModelInfo &stageOf(const OpSpec &op) const
    {
        return stages_[static_cast<std::size_t>(stageIndex(op))];
    }

    std::vector<ModelInfo> stages_;
    ExecutionResult last_;
    int run_span_ = -1;
    std::uint64_t last_conversion_ = 0;
    bool sim_checked_ = false;
    double sim_batch_ms_ = 0.0;
    RankLayerTotals totals_;
};

} // namespace

std::unique_ptr<Workload>
makeRankInference()
{
    return std::make_unique<RankInference>();
}

} // namespace perfbench
