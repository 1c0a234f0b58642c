#include "runner.h"

#include <cstdio>
#include <exception>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/parallel.h"

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "cluster_scaleout", "rank_inference", "autotune_sweep",
        "weight_publish"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "cluster_scaleout")
        return makeClusterScaleout();
    if (name == "rank_inference")
        return makeRankInference();
    if (name == "autotune_sweep")
        return makeAutotuneSweep();
    if (name == "weight_publish")
        return makeWeightPublish();
    return nullptr;
}

namespace {

/** The k-th reference run's lane count: 1 and 4 in turn, and 2 in place
 *  of whichever of them the timed ops already run at. */
unsigned
referenceLanes(std::size_t k)
{
    const unsigned ambient = mtia::parallelLanes();
    const unsigned lanes = k % 2 == 0 ? 1u : 4u;
    return lanes == ambient ? 2u : lanes;
}

} // namespace

PhaseResult
runPhase(Workload &w, std::uint64_t run_seed, const PhaseOptions &opt)
{
    PhaseResult r;
    const std::size_t rot = w.rotation();
    for (std::uint64_t index = opt.first_index;; ++index) {
        const std::size_t done = r.op_ms.size();
        if (done % rot == 0 && done > 0) {
            const bool spent = r.op_s >= opt.budget_s && done >= opt.min_ops;
            if (spent || wallNs() >= opt.deadline_ns)
                break;
        }

        OpSpec op;
        op.index = index;
        op.seed = opSeed(run_seed, index);
        op.reference = r.references < w.maxReferences() &&
            inReferenceSubset(run_seed, index, w.referenceOneIn());
        op.corrupt_reference = op.reference && opt.corrupt_reference;
        if (op.reference)
            op.reference_lanes = referenceLanes(r.references++);

        bool ok = true;
        try {
            w.prepare(op);
            Tracer *tr = opt.tracer;
            const int root = tr == nullptr
                ? -1
                : tr->begin("bench", "op", -1,
                            static_cast<std::int64_t>(index));
            const std::int64_t cpu0 = processCpuNs();
            const std::int64_t t0 = wallNs();
            const double work = w.run(op, tr, root);
            const std::int64_t t1 = wallNs();
            const std::int64_t cpu1 = processCpuNs();
            if (tr != nullptr)
                tr->end(root);

            const double ms = static_cast<double>(t1 - t0) / 1e6;
            r.op_ms.push_back(ms);
            r.op_s += ms / 1e3;
            r.cpu_ms += static_cast<double>(cpu1 - cpu0) / 1e6;
            r.work += work;

            ok = w.check(op);
            if (tr != nullptr)
                ok = w.measureLayers(op, *tr, root) && ok;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "%s op %llu threw: %s\n", w.name(),
                         static_cast<unsigned long long>(index),
                         e.what());
            if (r.op_ms.size() == done)
                r.op_ms.push_back(0.0); // keep the op count moving
            ok = false;
        }
        if (!ok)
            std::fprintf(stderr, "%s op %llu failed its check%s\n",
                         w.name(), static_cast<unsigned long long>(index),
                         op.reference ? " (reference op)" : "");
        r.ledger.record(ok);
    }
    return r;
}

SetupResult
measureSetup(const std::function<std::unique_ptr<Workload>()> &make,
             std::uint64_t run_seed, std::size_t min_reps, double min_s,
             std::size_t max_reps)
{
    SetupResult s;
    double total = 0.0;
    while (s.seconds.size() < max_reps &&
           (s.seconds.size() < min_reps || total < min_s)) {
        s.workload.reset();
#if defined(__GLIBC__)
        // Hand the freed instance back to the OS, so peak RSS reflects
        // one set-up, not the sum of the repeated ones.
        malloc_trim(0);
#endif
        // A set-up shorter than kMinSetupSampleS is repeated on fresh
        // instances within one sample (each replaced instance is
        // destroyed inside it), so the sample is far longer than the
        // clock's resolution; the sample reports time per instance.
        std::size_t instances = 0;
        const std::int64_t t0 = wallNs();
        std::int64_t t1 = t0;
        do {
            std::unique_ptr<Workload> w = make();
            w->setup(run_seed);
            s.workload = std::move(w);
            ++instances;
            t1 = wallNs();
        } while (static_cast<double>(t1 - t0) < kMinSetupSampleS * 1e9);
        const double dt = static_cast<double>(t1 - t0) / 1e9;
        s.seconds.push_back(dt / static_cast<double>(instances));
        total += dt;
    }
    return s;
}

} // namespace perfbench
