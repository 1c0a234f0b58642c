#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

/**
 * @file
 * A workload is a fixed op list determined by the run seed. The runner
 * (runner.h) times each op, checks it, and — in a traced run — lets the
 * workload attribute host time to the layers the op called into.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/** One op of a run. */
struct OpSpec
{
    std::uint64_t index = 0; ///< position in the run's op list
    std::uint64_t seed = 0;  ///< the op's own input seed
    /** In the seed-chosen subset checked against a reference run. */
    bool reference = false;
    /** Lane count of the reference run: reference ops alternate 1 and
     *  4 lanes (2 in place of the timed ops' own count), so simulated
     *  results are checked equal across lane counts. */
    unsigned reference_lanes = 1;
    /** Perturb the reference before comparing (the self-test that a
     *  wrong reference fails the op). */
    bool corrupt_reference = false;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const char *name() const = 0;
    /** Ops per rotation of op kinds; runs end on a rotation boundary. */
    virtual std::size_t rotation() const { return 1; }
    /** The first this many ops give the simulated results. */
    virtual std::size_t deterministicOps() const = 0;
    /** About one op in this many is checked against a reference. */
    virtual std::uint64_t referenceOneIn() const { return 8; }
    /** At most this many reference checks per phase (bounds run time). */
    virtual std::size_t maxReferences() const { return 8; }
    /** Unit of work counted by run(), for the report. */
    virtual const char *workUnit() const = 0;

    /**
     * Everything a user pays before the first op. Timed as setup_s; the
     * benchmark's own reference computations do not belong here.
     */
    virtual void setup(std::uint64_t run_seed) = 0;

    /** Untimed: build the op's inputs. */
    virtual void prepare(const OpSpec &) {}

    /**
     * The timed op. Returns the work it completed. With a tracer, wraps
     * each call into a layer in a span whose parent is @p root.
     */
    virtual double run(const OpSpec &op, Tracer *tracer, int root) = 0;

    /**
     * Untimed: check the op's output; for a reference op also compare
     * it with a reference computation. False marks the op failed.
     */
    virtual bool check(const OpSpec &op) = 0;

    /** Traced runs: called before the first and after the last op. */
    virtual void beginTraced() {}
    virtual void endTraced() {}

    /**
     * Traced runs, untimed, after check(): per-op layer measurements
     * (counter deltas, per-call costs, the rank replay). False marks
     * the op failed.
     */
    virtual bool measureLayers(const OpSpec &, Tracer &, int /*root*/)
    {
        return true;
    }

    /** Simulated results of the first deterministicOps() ops: identical
     *  for one seed across runs and lane counts. */
    virtual std::vector<Metric> deterministic() const = 0;

    /** Per-layer metrics of the traced ops. */
    virtual std::vector<Metric> layerMetrics() const = 0;
};

/** The workloads, in the order a traced run visits them. */
const std::vector<std::string> &workloadNames();

/** Null for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

std::unique_ptr<Workload> makeClusterScaleout();
std::unique_ptr<Workload> makeRankInference();
std::unique_ptr<Workload> makeAutotuneSweep();
std::unique_ptr<Workload> makeWeightPublish();

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_H_
