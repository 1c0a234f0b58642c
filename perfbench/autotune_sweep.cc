/**
 * @file
 * autotune_sweep: one op is one surrogate-guided tuner call, in a fixed
 * rotation — KernelTuner::tuneSurrogate on an FC shape from
 * figure6Models() warm-started from the KD-tree, BatchSizeTuner::
 * tuneSurrogate on a Table 1 builder, CoalescingTuner::sweepSurrogate on
 * a generated trace. GemmKernelTuner is left out: it times real
 * kernels, so its winners are not deterministic.
 *
 * A traced op measures the per-call cost of each evaluator the tuner
 * calls (outside the op) and attributes evaluator calls x cost of the
 * tuner's span to the evaluator's layer; the rest is the tuner's own
 * self time (surrogate fit, predict, kNN, selection).
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "autotune/batch_tuner.h"
#include "autotune/coalescing_tuner.h"
#include "autotune/kernel_tuner.h"
#include "autotune/surrogate.h"
#include "core/parallel.h"
#include "graph/fusion.h"
#include "graph/graph_cost.h"
#include "models/model_zoo.h"
#include "models/workload.h"
#include "ops/dense_ops.h"
#include "serving/coalescer.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mtia;

enum class TuneKind { Kernel = 0, Batch = 1, Coalesce = 2 };

constexpr double kFeasibleCeiling = 1e17; // tuners' infeasible tier
constexpr std::int64_t kCoalesceCapacity = 512;

/** The bench/autotune reference queries for the exhaustive check. */
const FcShape kReferenceQueries[] = {
    FcShape{256, 1024, 512}, FcShape{512, 2048, 256},
    FcShape{64, 4096, 1024}, FcShape{768, 768, 384}};

using Builder = BatchSizeTuner::ModelBuilder;

/** A 120-shape tuning corpus, drawn as bench/autotune draws its own. */
std::vector<FcShape>
drawCorpus(Rng &rng)
{
    std::vector<FcShape> corpus;
    for (int i = 0; i < 120; ++i) {
        corpus.push_back(FcShape{
            static_cast<std::int64_t>(32u << rng.below(7)),
            static_cast<std::int64_t>(128u << rng.below(7)),
            static_cast<std::int64_t>(128u << rng.below(6))});
    }
    return corpus;
}

/** argmin over what the loop evaluated for real (lowest index on ties)
 *  must be what it reports. */
bool
consistentArgmin(const SurrogateSweepResult &loop, std::size_t grid)
{
    if (loop.best_index >= grid || loop.measured.empty() ||
        loop.measured.size() != loop.measured_cost.size())
        return false;
    std::size_t arg = 0;
    for (std::size_t i = 1; i < loop.measured.size(); ++i) {
        if (loop.measured_cost[i] < loop.measured_cost[arg])
            arg = i;
    }
    return loop.measured[arg] == loop.best_index &&
        loop.measured_cost[arg] == loop.best_cost;
}

bool
sameLoop(const SurrogateSweepResult &a, const SurrogateSweepResult &b)
{
    return a.best_index == b.best_index && a.best_cost == b.best_cost &&
        a.measured == b.measured && a.measured_cost == b.measured_cost &&
        a.predicted == b.predicted;
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(wallNs() - t0) / 1e9;
}

struct TuneLayerTotals
{
    double ops[3] = {0, 0, 0};
    double span_ns[3] = {0, 0, 0};
    double real_evals = 0;
    double surrogate_evals = 0;
    double grid = 0;
    double mae_rel = 0;
    double mae_ops = 0;
    double fc_cost_ns = 0, fc_cost_n = 0;
    double cost_eval_ns = 0, cost_eval_n = 0;
    double coalesce_ns = 0, coalesce_n = 0;
    double fit_ns = 0, fit_n = 0;
    double predict_ns = 0, predict_n = 0;
    double knn_ns = 0, knn_n = 0;
};

class AutotuneSweep final : public Workload
{
  public:
    const char *name() const override { return "autotune_sweep"; }
    std::size_t rotation() const override { return 3; }
    std::size_t deterministicOps() const override { return 6; }
    std::uint64_t referenceOneIn() const override { return 6; }
    std::size_t maxReferences() const override { return 6; }
    const char *workUnit() const override
    {
        return "grid candidates covered";
    }

    void setup(std::uint64_t run_seed) override
    {
        dev_ = std::make_unique<Device>(ChipConfig::mtia2i());
        km_ = std::make_unique<KernelCostModel>(*dev_);
        tuner_ = std::make_unique<KernelTuner>(*km_);
        batch_tuner_ = std::make_unique<BatchSizeTuner>(*dev_);

        // The KD-tree warm-start database over a seed-drawn corpus, as
        // bench/autotune builds it; the first lookup builds the tree.
        Rng rng(run_seed);
        const std::vector<FcShape> corpus = drawCorpus(rng);
        db_ = tuner_->buildDatabase(corpus);
        (void)db_.lookupK(corpus.front(), 1);

        // Every distinct FC shape of the Figure 6 production models.
        std::set<std::tuple<std::int64_t, std::int64_t, std::int64_t>> seen;
        fc_shapes_.clear();
        for (const ModelInfo &m : figure6Models()) {
            for (int id : m.graph.topoOrder()) {
                const auto *fc = dynamic_cast<const FullyConnectedOp *>(
                    m.graph.node(id).op.get());
                if (fc == nullptr)
                    continue;
                const FcShape s = fc->shape();
                if (seen.insert({s.m, s.n, s.k}).second)
                    fc_shapes_.push_back(s);
            }
        }

        builders_ = {
            [](std::int64_t b) { return buildRetrievalModel(b); },
            [](std::int64_t b) { return buildEarlyStageModel(b); },
            [](std::int64_t b) { return buildLateStageModel(b); }};
        slos_.clear();
        for (const Builder &b : builders_)
            slos_.push_back(b(64).latency_slo);

        windows_.clear();
        for (int i = 1; i <= 160; ++i)
            windows_.push_back(fromMillis(0.25 * i));
        parallel_options_ = {1, 2, 4};
    }

    void prepare(const OpSpec &op) override
    {
        switch (kindOf(op)) {
        case TuneKind::Kernel:
            shape_ = fc_shapes_[op.seed % fc_shapes_.size()];
            break;
        case TuneKind::Batch: {
            builder_ = static_cast<std::size_t>(op.seed % builders_.size());
            // A seed-shifted dense batch grid (every 32 from 33..64 up
            // to 4096), so no two batch ops tune the same grid.
            batches_.clear();
            const auto first = static_cast<std::int64_t>(
                33 + (op.seed >> 8) % 32);
            for (std::int64_t b = first; b <= 4096; b += 32)
                batches_.push_back(b);
            break;
        }
        case TuneKind::Coalesce: {
            Rng rng(op.seed);
            TrafficParams tp;
            tp.qps = 4000.0;
            tp.duration = fromSeconds(1.5);
            tp.candidates_mean = 64;
            trace_ = generateTrace(rng, tp);
            break;
        }
        }
    }

    double run(const OpSpec &op, Tracer *tracer, int root) override
    {
        const auto index = static_cast<std::int64_t>(op.index);
        switch (kindOf(op)) {
        case TuneKind::Kernel: {
            Span span(tracer, "autotune", "KernelTuner::tuneSurrogate",
                      root, index);
            kernel_ = tuner_->tuneSurrogate(shape_, &db_);
            span.close();
            tune_span_ = span.id();
            return static_cast<double>(kernel_.grid_size);
        }
        case TuneKind::Batch: {
            Span span(tracer, "autotune", "BatchSizeTuner::tuneSurrogate",
                      root, index);
            batch_ = batch_tuner_->tuneSurrogate(
                builders_[builder_], batches_, slos_[builder_]);
            span.close();
            tune_span_ = span.id();
            return static_cast<double>(batch_.grid_size);
        }
        case TuneKind::Coalesce: {
            Span span(tracer, "autotune",
                      "CoalescingTuner::sweepSurrogate", root, index);
            coalesce_ = ctuner_.sweepSurrogate(trace_, kCoalesceCapacity,
                                               windows_, parallel_options_);
            span.close();
            tune_span_ = span.id();
            return static_cast<double>(coalesce_.grid_size);
        }
        }
        return 0.0;
    }

    bool check(const OpSpec &op) override
    {
        bool ok = consistentArgmin(loop(op), gridSize(op));
        switch (kindOf(op)) {
        case TuneKind::Kernel:
            ok = ok && kernel_.loop.best_cost < kFeasibleCeiling &&
                static_cast<double>(kernel_.result.kernel_time) ==
                    kernel_.loop.best_cost;
            break;
        case TuneKind::Batch:
            ok = ok && batch_.best.batch == batches_[batch_.loop.best_index];
            break;
        case TuneKind::Coalesce:
            ok = ok && std::isfinite(coalesce_.best.score) &&
                coalesce_.best.stats.requests == trace_.size();
            break;
        }
        recordTuned(op);
        if (op.reference)
            ok = referenceCheck(op) && ok;
        return ok;
    }

    void beginTraced() override { totals_ = {}; }

    bool measureLayers(const OpSpec &op, Tracer &tracer, int) override
    {
        TuneLayerTotals &t = totals_;
        const auto k = static_cast<std::size_t>(kindOf(op));
        const SurrogateSweepResult &l = loop(op);
        t.ops[k] += 1;
        t.span_ns[k] += static_cast<double>(
            tracer.spans()[static_cast<std::size_t>(tune_span_)].dur_ns);
        t.real_evals += static_cast<double>(l.real_evals);
        t.surrogate_evals += static_cast<double>(l.surrogate_evals);
        t.grid += static_cast<double>(gridSize(op));
        if (l.used_surrogate && l.best_cost != 0.0) {
            t.mae_rel += l.mae / std::abs(l.best_cost);
            t.mae_ops += 1;
        }

        // Per-call cost of the evaluator, measured the way the loop
        // calls it (a parallelMap batch of as many calls), then charged
        // to the evaluator's layer.
        const std::size_t calls = std::max<std::size_t>(l.real_evals, 1);
        const double evals = static_cast<double>(l.real_evals);
        switch (kindOf(op)) {
        case TuneKind::Kernel: {
            const double per = calibrateKernel(t, calls);
            tracer.attribute(tune_span_, "chip", "KernelCostModel::fc",
                             static_cast<std::int64_t>(evals * per));
            break;
        }
        case TuneKind::Batch: {
            const double per = calibrateBatch(t, calls);
            tracer.attribute(tune_span_, "graph",
                             "GraphCostModel::evaluate",
                             static_cast<std::int64_t>(evals * per));
            break;
        }
        case TuneKind::Coalesce: {
            const double per = calibrateCoalesce(t, calls);
            tracer.attribute(tune_span_, "serving", "Coalescer::coalesce",
                             static_cast<std::int64_t>(evals * per));
            break;
        }
        }
        return true;
    }

    std::vector<Metric> deterministic() const override
    {
        return {{"sim_tuned_ms", median(tuned_ms_), "sim_ms"}};
    }

    std::vector<Metric> layerMetrics() const override
    {
        const TuneLayerTotals &t = totals_;
        const auto per = [](double a, double n) {
            return n > 0.0 ? a / n : 0.0;
        };
        const double ops = t.ops[0] + t.ops[1] + t.ops[2];
        return {
            {"autotune.kernel_tune_ms", per(t.span_ns[0], t.ops[0]) / 1e6,
             "ms"},
            {"autotune.batch_tune_ms", per(t.span_ns[1], t.ops[1]) / 1e6,
             "ms"},
            {"autotune.coalesce_tune_ms",
             per(t.span_ns[2], t.ops[2]) / 1e6, "ms"},
            {"autotune.real_evals_per_op", per(t.real_evals, ops), "count"},
            {"autotune.surrogate_evals_per_op",
             per(t.surrogate_evals, ops), "count"},
            {"autotune.real_eval_frac", per(t.real_evals, t.grid),
             "fraction"},
            {"autotune.surrogate_mae", per(t.mae_rel, t.mae_ops),
             "fraction"},
            {"chip.fc_cost_us", per(t.fc_cost_ns, t.fc_cost_n) / 1e3, "us"},
            {"graph.cost_eval_ms", per(t.cost_eval_ns, t.cost_eval_n) / 1e6,
             "ms"},
            {"serving.coalesce_ms", per(t.coalesce_ns, t.coalesce_n) / 1e6,
             "ms"},
            {"autotune.fit_ms", per(t.fit_ns, t.fit_n) / 1e6, "ms"},
            {"autotune.predict_us", per(t.predict_ns, t.predict_n) / 1e3,
             "us"},
            {"autotune.knn_us", per(t.knn_ns, t.knn_n) / 1e3, "us"},
        };
    }

  private:
    static TuneKind kindOf(const OpSpec &op)
    {
        return static_cast<TuneKind>(op.index % 3);
    }

    const SurrogateSweepResult &loop(const OpSpec &op) const
    {
        switch (kindOf(op)) {
        case TuneKind::Kernel:
            return kernel_.loop;
        case TuneKind::Batch:
            return batch_.loop;
        case TuneKind::Coalesce:
            break;
        }
        return coalesce_.loop;
    }

    std::size_t gridSize(const OpSpec &op) const
    {
        switch (kindOf(op)) {
        case TuneKind::Kernel:
            return kernel_.grid_size;
        case TuneKind::Batch:
            return batch_.grid_size;
        case TuneKind::Coalesce:
            break;
        }
        return coalesce_.grid_size;
    }

    /** Modelled latency of the chosen FC variant and batch, summed per
     *  rotation over the first rotations. */
    void recordTuned(const OpSpec &op)
    {
        if (op.index >= deterministicOps())
            return;
        if (kindOf(op) == TuneKind::Kernel)
            pending_tuned_ms_ = toMillis(kernel_.result.kernel_time);
        else if (kindOf(op) == TuneKind::Batch)
            tuned_ms_.push_back(pending_tuned_ms_ +
                                batch_.best.cost.latencyMs());
    }

    bool referenceCheck(const OpSpec &op)
    {
        // The same op at another lane count must give the same bits.
        bool ok = true;
        {
            ScopedParallelism lanes(op.reference_lanes);
            switch (kindOf(op)) {
            case TuneKind::Kernel: {
                KernelSurrogateResult r = tuner_->tuneSurrogate(shape_, &db_);
                if (op.corrupt_reference)
                    r.loop.best_index += 1;
                ok = sameLoop(r.loop, kernel_.loop);
                break;
            }
            case TuneKind::Batch: {
                BatchSurrogateResult r = batch_tuner_->tuneSurrogate(
                    builders_[builder_], batches_, slos_[builder_]);
                if (op.corrupt_reference)
                    r.loop.best_index += 1;
                ok = sameLoop(r.loop, batch_.loop);
                break;
            }
            case TuneKind::Coalesce: {
                CoalescingSurrogateResult r = ctuner_.sweepSurrogate(
                    trace_, kCoalesceCapacity, windows_, parallel_options_);
                if (op.corrupt_reference)
                    r.loop.best_index += 1;
                ok = sameLoop(r.loop, coalesce_.loop);
                break;
            }
            }
        }

        // A bench/autotune reference query against the surrogate-off
        // (exhaustive) winner. The cost model leaves exact cost ties,
        // and the tuner promises zero regret with any warm database but
        // the canonical lowest-index tie member only when the verify
        // pass covers the predicted-best cluster. So the run's
        // seed-drawn database must reach the exhaustive cost, and
        // bench/autotune's own database (the one its gate uses) the
        // identical winner.
        const FcShape &q = kReferenceQueries[next_query_++ % 4];
        SurrogateSweepOptions opts;
        opts.top_k = 24;
        KernelSurrogateResult ex;
        {
            ScopedSurrogate off(false);
            ex = tuner_->tuneSurrogate(q);
        }
        if (op.corrupt_reference)
            ex.result.kernel_time += 1;
        KernelSurrogateResult sg;
        KernelSurrogateResult sg_bench;
        {
            ScopedSurrogate on(true);
            sg = tuner_->tuneSurrogate(q, &db_, opts);
            sg_bench = tuner_->tuneSurrogate(q, &benchDatabase(), opts);
        }
        return ok && sg.result.kernel_time == ex.result.kernel_time &&
            sg_bench.loop.best_index == ex.loop.best_index &&
            sg_bench.result.kernel_time == ex.result.kernel_time;
    }

    /** bench/autotune's warm-start database as its gate sees it: the
     *  Rng(7) corpus plus what its 100 ANN queries insert on a miss.
     *  Built on first use: a reference computation, not set-up. */
    const PerfDatabase &benchDatabase()
    {
        if (!bench_db_) {
            Rng rng(7);
            bench_db_ = std::make_unique<PerfDatabase>(
                tuner_->buildDatabase(drawCorpus(rng)));
            for (int i = 0; i < 100; ++i) {
                const FcShape q{
                    static_cast<std::int64_t>(24u << rng.below(7)),
                    static_cast<std::int64_t>(96u << rng.below(7)),
                    static_cast<std::int64_t>(160u << rng.below(6))};
                (void)tuner_->tuneApproximate(q, *bench_db_);
            }
        }
        return *bench_db_;
    }

    double calibrateKernel(TuneLayerTotals &t, std::size_t calls)
    {
        const std::vector<FcOptions> space =
            KernelTuner::extendedVariantSpace();
        const Bytes llc = dev_->sramPartition().llcBytes();
        std::int64_t t0 = wallNs();
        const std::vector<double> costs =
            parallelMap(calls, [&](std::size_t i) {
                const FcOptions &v = space[i * space.size() / calls];
                if (v.weights == Placement::Llc &&
                    shape_.weightBytes(v.dtype) > llc)
                    return 1e18;
                const Device dev = dev_->cloneConfigured();
                const KernelCostModel km(dev);
                return static_cast<double>(km.fc(shape_, v).total);
            });
        const double per =
            secondsSince(t0) * 1e9 / static_cast<double>(calls);
        t.fc_cost_ns += per;
        t.fc_cost_n += 1;

        // kNN warm start, surrogate fit and whole-grid predict, on the
        // training set the loop builds (warm rows + strided seeds).
        t0 = wallNs();
        const std::vector<PerfEntry> warm = db_.lookupK(shape_, 8);
        t.knn_ns += static_cast<double>(wallNs() - t0);
        t.knn_n += 1;

        std::vector<FeatureVec> x;
        std::vector<double> y;
        for (const PerfEntry &e : warm) {
            x.push_back(KernelTuner::variantFeatures(e.shape, e.best_variant));
            y.push_back(std::asinh(static_cast<double>(e.best_time)));
        }
        for (std::size_t i = 0; i < costs.size(); ++i) {
            x.push_back(KernelTuner::variantFeatures(
                shape_, space[i * space.size() / calls]));
            y.push_back(std::asinh(costs[i]));
        }
        std::unique_ptr<CostSurrogate> model =
            makeSurrogate(SurrogateKind::Stumps);
        t0 = wallNs();
        model->fit(x, y);
        t.fit_ns += static_cast<double>(wallNs() - t0);
        t.fit_n += 1;

        t0 = wallNs();
        const std::vector<double> pred =
            parallelMap(space.size(), [&](std::size_t i) {
                return model->predict(
                    KernelTuner::variantFeatures(shape_, space[i]));
            });
        t.predict_ns += static_cast<double>(wallNs() - t0);
        t.predict_n += static_cast<double>(pred.size());
        return per;
    }

    double calibrateBatch(TuneLayerTotals &t, std::size_t calls)
    {
        const Builder &builder = builders_[builder_];
        const std::int64_t t0 = wallNs();
        (void)parallelMap(calls, [&](std::size_t i) {
            ModelInfo m = builder(
                batches_[i * batches_.size() / calls]);
            optimizeGraph(m.graph);
            Device dev = dev_->cloneConfigured();
            GraphCostModel gcm(dev);
            return gcm.evaluate(m.graph, static_cast<double>(m.batch))
                .latency;
        });
        const double per =
            secondsSince(t0) * 1e9 / static_cast<double>(calls);
        t.cost_eval_ns += per;
        t.cost_eval_n += 1;
        return per;
    }

    double calibrateCoalesce(TuneLayerTotals &t, std::size_t calls)
    {
        const std::int64_t t0 = wallNs();
        (void)parallelMap(calls, [&](std::size_t i) {
            const std::size_t w = i * windows_.size() / calls;
            Coalescer c(CoalescerConfig{windows_[w], 2, kCoalesceCapacity});
            return Coalescer::stats(c.coalesce(trace_)).batches;
        });
        const double per =
            secondsSince(t0) * 1e9 / static_cast<double>(calls);
        t.coalesce_ns += per;
        t.coalesce_n += 1;
        return per;
    }

    std::unique_ptr<Device> dev_;
    std::unique_ptr<KernelCostModel> km_;
    std::unique_ptr<KernelTuner> tuner_;
    std::unique_ptr<BatchSizeTuner> batch_tuner_;
    CoalescingTuner ctuner_;
    PerfDatabase db_;
    std::unique_ptr<PerfDatabase> bench_db_;
    std::vector<FcShape> fc_shapes_;
    std::vector<Builder> builders_;
    std::vector<Tick> slos_;
    std::vector<Tick> windows_;
    std::vector<unsigned> parallel_options_;

    FcShape shape_;
    std::size_t builder_ = 0;
    std::vector<std::int64_t> batches_;
    std::vector<Request> trace_;

    KernelSurrogateResult kernel_;
    BatchSurrogateResult batch_;
    CoalescingSurrogateResult coalesce_;
    int tune_span_ = -1;

    double pending_tuned_ms_ = 0.0;
    std::vector<double> tuned_ms_;
    std::size_t next_query_ = 0;
    TuneLayerTotals totals_;
};

} // namespace

std::unique_ptr<Workload>
makeAutotuneSweep()
{
    return std::make_unique<AutotuneSweep>();
}

} // namespace perfbench
