#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

/**
 * @file
 * Drives a workload: repeated timed set-up, then a phase of ops timed
 * one by one, each checked outside its timed region.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace perfbench {

struct PhaseOptions
{
    /** Op time (summed over ops, checks excluded) the phase measures. */
    double budget_s = 1.0;
    /** Ops the phase runs even past its budget. */
    std::size_t min_ops = 1;
    /** Index of the phase's first op (op seeds follow the index). */
    std::uint64_t first_index = 0;
    /** Wall-clock instant (wallNs) after which the phase stops at the
     *  next rotation boundary, whatever min_ops says. */
    std::int64_t deadline_ns = INT64_MAX;
    /** Null for an untraced phase. */
    Tracer *tracer = nullptr;
    bool corrupt_reference = false;
};

struct PhaseResult
{
    std::vector<double> op_ms; ///< host wall time of each op
    double op_s = 0;           ///< sum of op times
    double cpu_ms = 0;         ///< process CPU time inside ops
    double work = 0;           ///< items completed by the ops
    std::size_t references = 0;
    OpLedger ledger;
};

/** Run ops of @p w seeded by @p run_seed until the budget is spent. */
PhaseResult runPhase(Workload &w, std::uint64_t run_seed,
                     const PhaseOptions &opt);

struct SetupResult
{
    std::unique_ptr<Workload> workload; ///< the last one set up
    std::vector<double> seconds;        ///< each sample, per instance
};

/** Shortest set-up sample; shorter set-ups repeat within a sample. */
constexpr double kMinSetupSampleS = 0.01;

/**
 * Take at least @p min_reps set-up samples and until @p min_s seconds
 * of set-up have been measured (at most @p max_reps samples). A sample
 * sets fresh instances up until it has lasted kMinSetupSampleS and
 * records the time per instance; the previous sample's instance is
 * destroyed before it starts.
 */
SetupResult measureSetup(
    const std::function<std::unique_ptr<Workload>()> &make,
    std::uint64_t run_seed, std::size_t min_reps, double min_s,
    std::size_t max_reps);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_H_
