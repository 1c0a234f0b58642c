#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

/**
 * @file
 * The benchmark's own machinery, independent of any workload: sample
 * statistics, op accounting, seeds, clocks, the in-memory span tracer
 * that attributes host time to layers, and the output helpers. Nothing
 * here touches the simulator; workloads (workloads.h) call into the
 * simulator's public API and wrap those calls in spans.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ------------------------------------------------------------ statistics

/**
 * Nearest-rank percentile: the smallest sample with at least @p p
 * percent of the samples at or below it. @p p in (0, 100]; empty input
 * gives 0.
 */
double percentile(std::vector<double> samples, double p);

/**
 * Samples that lie strictly beyond the nearest-rank @p p-th percentile
 * of @p n samples (n - ceil(p/100 * n)). The p90 of 100 samples has 10.
 */
std::size_t samplesBeyond(std::size_t n, double p);

double median(std::vector<double> samples);

// ------------------------------------------------------------ accounting

/** Ops attempted and ops whose check failed. */
struct OpLedger
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void record(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }
    void add(const OpLedger &o)
    {
        attempted += o.attempted;
        failed += o.failed;
    }
    double failedFrac() const
    {
        return attempted == 0 ? 0.0
                              : static_cast<double>(failed) /
                static_cast<double>(attempted);
    }
};

// ----------------------------------------------------------------- seeds

/** SplitMix64 finalizer: a well-mixed 64-bit hash. */
std::uint64_t mix64(std::uint64_t x);

/** Seed of op @p index in a run seeded @p run_seed (distinct per op). */
std::uint64_t opSeed(std::uint64_t run_seed, std::uint64_t index);

/**
 * Whether op @p index is in the run's reference subset: about one op
 * in @p one_in, chosen by the run seed, and always one of the first
 * @p one_in ops so every run checks at least one.
 */
bool inReferenceSubset(std::uint64_t run_seed, std::uint64_t index,
                       std::uint64_t one_in);

// ---------------------------------------------------------------- clocks

/** Monotonic wall clock, ns. */
std::int64_t wallNs();

/** CPU time of the whole process (all threads), ns. */
std::int64_t processCpuNs();

/** Peak resident set of this process, MB. */
double peakRssMb();

// ---------------------------------------------------------------- tracer

/** One timed interval around a call into a layer. */
struct SpanRecord
{
    std::string layer; ///< module of src/ the call enters ("cluster")
    std::string name;  ///< the public function called
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    int parent = -1;   ///< index of the enclosing span, -1 for a root
    int track = 0;     ///< Chrome trace thread id
    std::int64_t op = -1;
    /** Attributed (not timed) share of the parent: a per-call cost
     *  times a call count. Counted in self times, not drawn. */
    bool attributed = false;
};

/**
 * Keeps spans in memory; written out when the benchmark ends. Spans
 * nest by an explicit parent, so a span may be attributed to a parent
 * it does not overlap in time (the rank replay does this).
 */
class Tracer
{
  public:
    int begin(const std::string &layer, const std::string &name,
              int parent, std::int64_t op);
    void end(int span);
    /** Record an attributed child of @p parent lasting @p dur_ns. */
    void attribute(int parent, const std::string &layer,
                   const std::string &name, std::int64_t dur_ns);
    void setTrack(int track) { track_ = track; }

    const std::vector<SpanRecord> &spans() const { return spans_; }
    std::vector<SpanRecord> &spans() { return spans_; }

  private:
    std::vector<SpanRecord> spans_;
    int track_ = 0;
};

/** RAII span; a null tracer makes it free. */
class Span
{
  public:
    Span(Tracer *tracer, const char *layer, const char *name,
         int parent = -1, std::int64_t op = -1)
        : tracer_(tracer),
          id_(tracer == nullptr ? -1
                                : tracer->begin(layer, name, parent, op))
    {}
    ~Span() { close(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** End the span now (idempotent). */
    void close()
    {
        if (tracer_ != nullptr && id_ >= 0)
            tracer_->end(id_);
        tracer_ = nullptr;
    }
    int id() const { return id_; }

  private:
    Tracer *tracer_;
    int id_;
};

/** Self time of one layer over a set of root spans. */
struct LayerSelf
{
    std::string layer;
    double self_ms = 0; ///< total over the roots, not per op
    double share = 0;   ///< of the roots' total time
};

/** Self times under the root spans named @p root_name on @p track. */
struct SelfTimeTable
{
    std::vector<LayerSelf> layers; ///< sorted by self time, descending
    double root_ms = 0;            ///< total root (op) time
    double uncovered_frac = 0;     ///< root self time / root time
    std::size_t roots = 0;
};

/**
 * A span's self time is its duration minus its children's (attributed
 * children included). Roots are spans named @p root_name on @p track;
 * their own self time is the time no layer span covers.
 */
SelfTimeTable selfTimes(const Tracer &tracer, int track,
                        const std::string &root_name);

// ---------------------------------------------------------------- output

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Full-precision JSON number ("null" for non-finite values). */
std::string jsonNumber(double v);
std::string jsonString(const std::string &s);

/** Build environment of this binary and the process it runs in. */
struct EnvStamp
{
    unsigned lanes = 0;
    unsigned hardware_concurrency = 0;
    std::string simd_isa;
    std::string build_type;
    std::string compiler;
    bool optimized = false;
    bool sanitized = false;

    static EnvStamp current();
    /** True for a build whose timings must not be compared. */
    bool flagged() const { return !optimized || sanitized; }
    std::string json() const;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_
