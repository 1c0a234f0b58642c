/**
 * @file
 * cluster_scaleout: one op is two ClusterSimulator::simulate calls on the
 * 64-chip chaos scenario (32 replicas x 2 chips, 16 embedding shards,
 * replica kills and ECC storms), run under least-loaded and then
 * shard-hash routing. Event dispatch (EventQueue, ParallelDes epochs
 * and mailboxes) and the cluster layer (controller, routing, batcher,
 * chaos) do nearly all the work; no GEMM or gather runs.
 */

#include <cmath>
#include <memory>

#include "cluster/cluster_sim.h"
#include "cluster/cluster_trace.h"
#include "core/parallel.h"
#include "sim/random.h"
#include "telemetry/telemetry.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace mtia;

constexpr double kQps = 12000.0;
constexpr double kDurationS = 2.0;

ClusterConfig
chaosConfig(RoutingPolicyKind routing)
{
    ClusterConfig cfg;
    cfg.replicas = 32;
    cfg.chips_per_replica = 2;
    cfg.embedding_shards = 16;
    cfg.routing = routing;
    cfg.trace.users = 1'000'000;
    cfg.trace.user_zipf_alpha = 1.1;
    cfg.trace.traffic.candidates_mean = 64;
    cfg.chaos.enabled = true;
    cfg.chaos.mean_kill_interval_s = 1.0;
    cfg.chaos.mean_storm_interval_s = 0.5;
    return cfg;
}

/** Sums over the traced ops. */
struct ClusterLayerTotals
{
    double ops = 0;
    double simulate_ns = 0;
    double trace_gen_ns = 0;
    double events = 0;
    double epochs = 0;
    double messages = 0;
    double arrivals = 0;
    double completed = 0;
    double rerouted = 0;
    double dropped = 0;
    double batches = 0;
    double full = 0;
    double deadline = 0;
    double window = 0;
    double recovery_ms = 0;
    double shard_skew = 0;
    double ecc_retries = 0;
};

const RoutingPolicyKind kPolicies[] = {RoutingPolicyKind::LeastLoaded,
                                       RoutingPolicyKind::ShardHash};
constexpr std::size_t kNumPolicies = 2;

class ClusterScaleout final : public Workload
{
  public:
    const char *name() const override { return "cluster_scaleout"; }
    std::size_t deterministicOps() const override { return 8; }
    const char *workUnit() const override
    {
        return "simulated requests completed";
    }

    void setup(std::uint64_t) override
    {
        for (std::size_t p = 0; p < kNumPolicies; ++p)
            sims_[p] = std::make_unique<ClusterSimulator>(
                chaosConfig(kPolicies[p]));
    }

    double run(const OpSpec &op, Tracer *tracer, int root) override
    {
        // Both routing policies on the op's scenario. One policy per op
        // would make the op time bimodal, and a median between two
        // equal modes moves with every draw.
        double completed = 0.0;
        for (std::size_t p = 0; p < kNumPolicies; ++p) {
            Span span(tracer, "cluster", "ClusterSimulator::simulate",
                      root, static_cast<std::int64_t>(op.index));
            last_[p] = sims_[p]->simulate(kQps, fromSeconds(kDurationS),
                                          op.seed);
            span.close();
            simulate_span_[p] = span.id();
            completed += static_cast<double>(last_[p].completed);
        }
        return completed;
    }

    bool check(const OpSpec &op) override
    {
        bool ok = true;
        for (std::size_t p = 0; p < kNumPolicies; ++p) {
            const ClusterResult &r = last_[p];
            // Conservation after drain, and every batch closed by one
            // rule.
            ok = ok && r.arrivals == r.completed + r.dropped &&
                r.completed_in_slo <= r.completed &&
                r.batches == r.batches_full + r.batches_deadline +
                        r.batches_window &&
                r.shard_rows.size() == 16 && std::isfinite(r.p99_ms);
            if (op.index < deterministicOps()) {
                p99_ms_[p].push_back(r.p99_ms);
                slo_[p].push_back(r.slo_attainment);
            }
            if (!op.reference)
                continue;
            // Same seed at another lane count (pinned serial, or four
            // partitions at once): not one byte of the outcome may move.
            // Detached, so the reference run does not feed the traced
            // op's counters.
            ClusterResult ref;
            sims_[p]->setTelemetry(nullptr);
            {
                ScopedParallelism lanes(op.reference_lanes);
                ref = sims_[p]->simulate(kQps, fromSeconds(kDurationS),
                                         op.seed);
            }
            sims_[p]->setTelemetry(traced_ ? &telemetry_ : nullptr);
            if (op.corrupt_reference)
                ++ref.completed;
            ok = ok && ref.summary() == r.summary();
        }
        return ok;
    }

    void beginTraced() override
    {
        totals_ = {};
        traced_ = true;
        for (auto &sim : sims_)
            sim->setTelemetry(&telemetry_);
    }

    void endTraced() override
    {
        traced_ = false;
        for (auto &sim : sims_)
            sim->setTelemetry(nullptr);
    }

    bool measureLayers(const OpSpec &op, Tracer &tracer, int) override
    {
        auto &m = telemetry_.metrics;
        ClusterLayerTotals &t = totals_;
        t.events += counterDelta(m, "sim.events_executed", 0);
        t.epochs += counterDelta(m, "cluster.des_epochs", 1);
        t.messages += counterDelta(m, "cluster.des_messages", 2);

        // The trace simulate() generates internally (the same for both
        // policies), generated again on its own to time that stage.
        const ClusterConfig &cfg = sims_[0]->config();
        ClusterTraceParams tp = cfg.trace;
        tp.traffic.qps = kQps;
        tp.traffic.duration = fromSeconds(kDurationS);
        tp.embedding_shards = cfg.embedding_shards;
        Rng trace_rng = Rng(op.seed).fork(0);
        Span gen(&tracer, "cluster", "generateClusterTrace", -1,
                 static_cast<std::int64_t>(op.index));
        const std::vector<ClusterRequest> trace =
            generateClusterTrace(trace_rng, tp);
        gen.close();
        t.trace_gen_ns += static_cast<double>(
            tracer.spans()[static_cast<std::size_t>(gen.id())].dur_ns);

        bool ok = true;
        t.ops += 1;
        for (std::size_t p = 0; p < kNumPolicies; ++p) {
            const ClusterResult &r = last_[p];
            t.simulate_ns += static_cast<double>(
                tracer.spans()[static_cast<std::size_t>(simulate_span_[p])]
                    .dur_ns);
            t.arrivals += static_cast<double>(r.arrivals);
            t.completed += static_cast<double>(r.completed);
            t.rerouted += static_cast<double>(r.rerouted);
            t.dropped += static_cast<double>(r.dropped);
            t.batches += static_cast<double>(r.batches);
            t.full += static_cast<double>(r.batches_full);
            t.deadline += static_cast<double>(r.batches_deadline);
            t.window += static_cast<double>(r.batches_window);
            t.recovery_ms += r.mean_recovery_ms;
            t.shard_skew += r.shard_skew;
            t.ecc_retries += static_cast<double>(r.ecc_retries);
            ok = ok && trace.size() == r.arrivals;
        }
        return ok;
    }

    std::vector<Metric> deterministic() const override
    {
        std::vector<Metric> out;
        for (std::size_t p = 0; p < kNumPolicies; ++p) {
            const std::string policy = routingPolicyKindName(kPolicies[p]);
            out.push_back({"sim_p99_ms." + policy, median(p99_ms_[p]),
                           "sim_ms"});
            out.push_back({"sim_slo_attainment." + policy, median(slo_[p]),
                           "fraction"});
        }
        return out;
    }

    std::vector<Metric> layerMetrics() const override
    {
        const ClusterLayerTotals &t = totals_;
        const double ops = std::max(t.ops, 1.0);
        const double sims = ops * static_cast<double>(kNumPolicies);
        const double partitions =
            static_cast<double>(sims_[0]->config().replicas) + 1.0;
        const auto ratio = [](double a, double b) {
            return b > 0.0 ? a / b : 0.0;
        };
        return {
            {"cluster.simulate_ms", t.simulate_ns / 1e6 / sims, "ms"},
            {"cluster.trace_gen_ms", t.trace_gen_ns / 1e6 / ops, "ms"},
            {"sim.events_per_op", t.events / ops, "count"},
            {"sim.host_ns_per_event", ratio(t.simulate_ns, t.events),
             "ns"},
            {"sim.epochs_per_op", t.epochs / ops, "count"},
            {"sim.messages_per_op", t.messages / ops, "count"},
            {"sim.events_per_partition_epoch",
             ratio(t.events, t.epochs * partitions), "count"},
            {"cluster.requests_per_batch", ratio(t.completed, t.batches),
             "count"},
            {"cluster.close_full_frac", ratio(t.full, t.batches),
             "fraction"},
            {"cluster.close_deadline_frac", ratio(t.deadline, t.batches),
             "fraction"},
            {"cluster.close_window_frac", ratio(t.window, t.batches),
             "fraction"},
            {"cluster.rerouted_frac", ratio(t.rerouted, t.arrivals),
             "fraction"},
            {"cluster.dropped_frac", ratio(t.dropped, t.arrivals),
             "fraction"},
            {"cluster.recovery_ms", t.recovery_ms / sims, "sim_ms"},
            {"cluster.shard_skew", t.shard_skew / sims, "ratio"},
            {"cluster.ecc_retries_per_op", t.ecc_retries / ops, "count"},
        };
    }

  private:
    /** Growth of a registry counter since the last call for @p slot. */
    double counterDelta(mtia::telemetry::MetricRegistry &m,
                        const char *name, int slot)
    {
        const std::uint64_t now = m.counter(name).value();
        const std::uint64_t d = now - seen_[slot];
        seen_[slot] = now;
        return static_cast<double>(d);
    }

    std::unique_ptr<ClusterSimulator> sims_[kNumPolicies];
    ClusterResult last_[kNumPolicies];
    int simulate_span_[kNumPolicies] = {-1, -1};
    std::vector<double> p99_ms_[kNumPolicies];
    std::vector<double> slo_[kNumPolicies];
    mtia::telemetry::Telemetry telemetry_;
    bool traced_ = false;
    std::uint64_t seen_[3] = {0, 0, 0};
    ClusterLayerTotals totals_;
};

} // namespace

std::unique_ptr<Workload>
makeClusterScaleout()
{
    return std::make_unique<ClusterScaleout>();
}

} // namespace perfbench
