#ifndef MTIA_CLUSTER_CLUSTER_SIM_H_
#define MTIA_CLUSTER_CLUSTER_SIM_H_

/**
 * @file
 * Fleet-scale serving cluster simulator: N server replicas x M chips
 * per replica on one DES clock. Requests from a replayable
 * million-user trace are routed by a ClusterController (least-loaded
 * or consistent-hash policy), batched per replica by the
 * deadline-aware DynamicBatcher, and executed as per-shard gather
 * jobs on the chips holding each embedding shard followed by one
 * merge job — the remote/merge structure of serving/serving_sim.h
 * lifted to cluster scale. Replica health is heartbeat-tracked;
 * failover (detect -> drain -> re-route -> restart -> warm-up) and
 * chaos mode (replica kills + ECC storms from the Section 5.1
 * campaigns) exercise the paper's productionization story.
 *
 * One run is one EventQueue. The controller/host plane (trace
 * admission, routing, health sweeps, failover orchestration) and the
 * replicas (batcher, chips, in-flight batches, local counters) talk
 * ONLY through messages over the modeled host/network boundary: every
 * controller<->replica message (admission, heartbeat ack,
 * death/completion notice, drain command/response, restart, warm-up
 * completion) is an event ClusterFabric::latency() after its send.
 *
 * Determinism: one seeded Rng per run (trace and chaos take fork
 * substreams), pre-generated chaos timelines, and (when, seq) event
 * order make every run byte-identical; sweep() runs load points on
 * the deterministic lane pool and is byte-identical at any
 * MTIA_THREADS lane count.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/chaos.h"
#include "cluster/cluster_trace.h"
#include "cluster/controller.h"
#include "cluster/dynamic_batcher.h"
#include "cluster/routing.h"
#include "host/pcie.h"
#include "sim/types.h"

namespace mtia::telemetry {
class Telemetry;
} // namespace mtia::telemetry

namespace mtia {

/** Chip-level service model for one batch. */
struct ClusterServiceModel
{
    /** Per-row embedding gather time on the owning chip. */
    Tick gather_per_row = fromMicros(2.0);
    /** Fixed gather launch cost per (chip, batch) with any rows. */
    Tick gather_base = fromMicros(200.0);
    /** Fixed merge (dense interaction) cost per batch. */
    Tick merge_base = fromMillis(1.0);
    /** Per-row merge cost. */
    Tick merge_per_row = fromMicros(2.0);
    /** Host-side scheduling gap between jobs on one chip. */
    Tick dispatch_gap = fromMicros(100.0);
    /** Chip-time cost of one NaN-consequence ECC retry. */
    Tick retry_penalty = fromMillis(1.0);
};

/**
 * The controller<->replica boundary: every message between them
 * (request admission, heartbeat ack, drain traffic, restart commands)
 * crosses the host PCIe link plus a switched network hop. latency()
 * is the one-way cost: larger switch latency = a staler controller
 * view and coarser control-plane reactivity.
 */
struct ClusterFabric
{
    /** Host-side ingress/egress link (src/host boundary model). */
    PcieConfig pcie;
    /** Marshalled size of one control/request message on that link. */
    Bytes message_bytes = 32 * 1024;
    /** Network hop beyond the host link (ToR switch + host stack). */
    Tick switch_latency = fromMillis(2.0);

    /** One-way controller<->replica latency. */
    Tick latency() const
    {
        return switch_latency + PcieLink(pcie).transferTime(message_bytes);
    }
};

/** Full cluster scenario. */
struct ClusterConfig
{
    unsigned replicas = 4;
    unsigned chips_per_replica = 2;
    unsigned embedding_shards = 8;
    RoutingPolicyKind routing = RoutingPolicyKind::LeastLoaded;
    /** Controller<->replica boundary model. */
    ClusterFabric fabric;
    /** Batch close policy; batcher.slo is THE request SLO. The
     * service estimate fields are derived from `service` at run time
     * so slack tracking and execution always agree. */
    BatcherConfig batcher;
    ClusterServiceModel service;
    HealthConfig health;
    ChaosParams chaos;
    /** User population / sharding of the generated trace. The
     * traffic qps and duration fields are overridden per run. */
    ClusterTraceParams trace;
};

/** Result of simulating one offered load. */
struct ClusterResult
{
    std::string policy;
    double offered_qps = 0;
    double completed_qps = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t completed = 0;
    std::uint64_t completed_in_slo = 0;
    std::uint64_t rerouted = 0; ///< requests re-routed by failovers
    std::uint64_t dropped = 0;  ///< no routable replica at arrival
    double p50_ms = 0;
    double p99_ms = 0;
    /** Fraction of ALL arrivals that completed within the SLO. */
    double slo_attainment = 0;
    /** Candidate rows gathered per embedding shard (cluster-wide). */
    std::vector<std::int64_t> shard_rows;
    double shard_skew = 0; ///< max/mean of shard_rows
    std::uint64_t batches = 0;
    std::uint64_t batches_full = 0;
    std::uint64_t batches_deadline = 0;
    std::uint64_t batches_window = 0;
    unsigned kills = 0;     ///< chaos kills + ECC crash-equivalents
    unsigned failovers = 0; ///< failovers detected by the controller
    double mean_detection_ms = 0; ///< death -> declared Down
    double mean_recovery_ms = 0;  ///< death -> Healthy again
    double max_recovery_ms = 0;
    std::uint64_t ecc_errors = 0;
    std::uint64_t ecc_benign = 0;
    std::uint64_t ecc_corrupted = 0;
    std::uint64_t ecc_retries = 0;
    std::uint64_t ecc_crashes = 0;

    /**
     * Deterministic multi-line rendering of every field (fixed-point
     * formatting, no pointers, no wall clock): the byte-identity
     * currency of the determinism tests and the bench report.
     */
    std::string summary() const;
};

/** The cluster serving simulator. */
class ClusterSimulator
{
  public:
    explicit ClusterSimulator(ClusterConfig cfg);

    /** Simulate the cluster at offered load @p qps for @p duration. */
    ClusterResult simulate(double qps, Tick duration,
                           std::uint64_t seed = 99) const;

    /**
     * Simulate several offered loads via the deterministic parallel
     * harness (one fork substream per point). Runs telemetry-detached
     * — the registry is not lane-safe — and is byte-identical at any
     * MTIA_THREADS count.
     */
    std::vector<ClusterResult> sweep(const std::vector<double> &qps,
                                     Tick duration,
                                     std::uint64_t seed = 99) const;

    const ClusterConfig &config() const { return cfg_; }

    /**
     * Attach an observability context (may be null to detach). While
     * attached, simulate() records latency histograms, request/ECC
     * counters, and failover gauges into the metric registry. The
     * registry series accumulate across simulate() calls; per-call
     * results always come from per-call scoped histograms.
     */
    void setTelemetry(telemetry::Telemetry *telemetry)
    {
        telemetry_ = telemetry;
    }

  private:
    ClusterResult simulateImpl(double qps, Tick duration,
                               std::uint64_t seed,
                               telemetry::Telemetry *tel) const;

    ClusterConfig cfg_;
    telemetry::Telemetry *telemetry_ = nullptr;
};

} // namespace mtia

#endif // MTIA_CLUSTER_CLUSTER_SIM_H_
