/**
 * @file
 * Tests of the benchmark's own machinery: percentile and tail-sample
 * math, failure counting, self-time attribution, and that a
 * deliberately wrong reference fails the op instead of passing it —
 * on a stand-in workload and on every real workload.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "harness.h"
#include "runner.h"
#include "workload.h"

namespace {

using namespace perfbench;

int g_failures = 0;

#define EXPECT(cond)                                                      \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__,        \
                         __LINE__, #cond);                                \
            ++g_failures;                                                 \
        }                                                                 \
    } while (0)

bool
near(double a, double b)
{
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i); // unsorted on purpose
    EXPECT(near(percentile(v, 50.0), 50.0));
    EXPECT(near(percentile(v, 90.0), 90.0));
    EXPECT(near(percentile(v, 100.0), 100.0));
    EXPECT(near(percentile(v, 0.5), 1.0));
    EXPECT(near(percentile({7.0}, 90.0), 7.0));
    EXPECT(near(percentile({}, 90.0), 0.0));
    EXPECT(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90.0), 9.0));

    // The p90 of 100 samples has exactly ten beyond it; 99 have nine.
    EXPECT(samplesBeyond(100, 90.0) == 10);
    EXPECT(samplesBeyond(99, 90.0) == 9);
    EXPECT(samplesBeyond(10, 90.0) == 1);
    EXPECT(samplesBeyond(1000, 99.0) == 10);
    EXPECT(samplesBeyond(0, 90.0) == 0);
    // Consistent with percentile(): that many samples exceed it.
    std::size_t above = 0;
    const double p90 = percentile(v, 90.0);
    for (double x : v)
        above += x > p90 ? 1 : 0;
    EXPECT(above == samplesBeyond(v.size(), 90.0));

    EXPECT(near(median({3, 1, 2}), 2.0));
    EXPECT(near(median({4, 1, 3, 2}), 2.5));
}

void
testLedger()
{
    OpLedger l;
    EXPECT(near(l.failedFrac(), 0.0));
    l.record(true);
    l.record(false);
    l.record(true);
    l.record(false);
    EXPECT(l.attempted == 4 && l.failed == 2);
    EXPECT(near(l.failedFrac(), 0.5));
    OpLedger m;
    m.record(false);
    l.add(m);
    EXPECT(l.attempted == 5 && l.failed == 3);
}

void
testSeeds()
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seen.insert(opSeed(42, i));
    EXPECT(seen.size() == 10000);
    EXPECT(opSeed(42, 3) == opSeed(42, 3));
    EXPECT(opSeed(42, 3) != opSeed(43, 3));

    for (std::uint64_t seed = 0; seed < 50; ++seed) {
        bool any = false;
        for (std::uint64_t i = 0; i < 8; ++i)
            any = any || inReferenceSubset(seed, i, 8);
        EXPECT(any);
    }
    std::size_t chosen = 0;
    for (std::uint64_t i = 0; i < 8000; ++i)
        chosen += inReferenceSubset(7, i, 8) ? 1 : 0;
    EXPECT(chosen > 800 && chosen < 1200);
}

void
testSelfTimes()
{
    Tracer t;
    t.setTrack(3);
    const int root = t.begin("bench", "op", -1, 0);
    const int a = t.begin("graph", "run", root, 0);
    const int b = t.begin("ops.fc", "fc", a, 0);
    t.spans()[static_cast<std::size_t>(root)].dur_ns = 10'000'000;
    t.spans()[static_cast<std::size_t>(a)].dur_ns = 6'000'000;
    t.spans()[static_cast<std::size_t>(b)].dur_ns = 2'000'000;
    t.attribute(a, "chip", "fc", 1'000'000);
    // A root elsewhere and a root with another name are not counted.
    t.setTrack(4);
    const int other = t.begin("bench", "op", -1, 1);
    t.spans()[static_cast<std::size_t>(other)].dur_ns = 50'000'000;
    t.setTrack(3);
    const int gen = t.begin("cluster", "trace", -1, 0);
    t.spans()[static_cast<std::size_t>(gen)].dur_ns = 70'000'000;

    const SelfTimeTable table = selfTimes(t, 3, "op");
    EXPECT(table.roots == 1);
    EXPECT(near(table.root_ms, 10.0));
    EXPECT(near(table.uncovered_frac, 0.4));
    double total = 0.0;
    for (const LayerSelf &l : table.layers) {
        total += l.self_ms;
        if (l.layer == "graph")
            EXPECT(near(l.self_ms, 3.0));
        else if (l.layer == "ops.fc")
            EXPECT(near(l.self_ms, 2.0));
        else if (l.layer == "chip")
            EXPECT(near(l.self_ms, 1.0));
        else
            EXPECT(l.layer == "graph");
    }
    // Self times plus the uncovered share add up to the op time.
    EXPECT(near(total + table.uncovered_frac * table.root_ms, 10.0));
    EXPECT(table.layers.front().layer == "graph");
}

/** A stand-in workload: op i "computes" i * i; every fifth op's output
 *  is wrong; references recompute i * i independently. */
class Squares final : public Workload
{
  public:
    const char *name() const override { return "squares"; }
    std::size_t rotation() const override { return 2; }
    std::size_t deterministicOps() const override { return 1; }
    std::uint64_t referenceOneIn() const override { return 4; }
    std::size_t maxReferences() const override { return 1000; }
    const char *workUnit() const override { return "squares"; }
    void setup(std::uint64_t) override {}
    double run(const OpSpec &op, Tracer *, int) override
    {
        out_ = op.index * op.index + (op.index % 5 == 4 ? 1 : 0);
        return 1.0;
    }
    bool check(const OpSpec &op) override
    {
        if (!op.reference)
            return true; // only references can catch the wrong outputs
        std::uint64_t ref = op.index * op.index;
        if (op.corrupt_reference)
            ref += 7;
        return ref == out_;
    }
    std::vector<Metric> deterministic() const override { return {}; }
    std::vector<Metric> layerMetrics() const override { return {}; }

  private:
    std::uint64_t out_ = 0;
};

void
testFailureCounting()
{
    Squares w;
    PhaseOptions opt;
    opt.budget_s = 0.0;
    opt.min_ops = 101; // rounds up to the rotation boundary
    const PhaseResult r = runPhase(w, 11, opt);
    EXPECT(r.op_ms.size() == 102);
    EXPECT(r.ledger.attempted == 102);
    std::size_t expected = 0;
    std::size_t refs = 0;
    for (std::uint64_t i = 0; i < 102; ++i) {
        if (inReferenceSubset(11, i, 4)) {
            ++refs;
            expected += i % 5 == 4 ? 1 : 0;
        }
    }
    EXPECT(r.references == refs);
    EXPECT(r.ledger.failed == expected);
    EXPECT(near(r.ledger.failedFrac(), static_cast<double>(expected) / 102));

    // A wrong reference fails every reference op: none may pass.
    opt.corrupt_reference = true;
    const PhaseResult bad = runPhase(w, 11, opt);
    EXPECT(bad.ledger.failed == refs);
}

/** Every real workload: clean references pass, a perturbed reference
 *  fails exactly the reference ops. */
void
testWrongReferenceFailsRealWorkloads()
{
    for (const std::string &name : workloadNames()) {
        for (bool corrupt : {false, true}) {
            std::unique_ptr<Workload> w = makeWorkload(name);
            w->setup(5);
            PhaseOptions opt;
            opt.budget_s = 0.0;
            opt.min_ops = static_cast<std::size_t>(w->referenceOneIn());
            opt.corrupt_reference = corrupt;
            const PhaseResult r = runPhase(*w, 5, opt);
            std::fprintf(stderr, "  %s corrupt=%d: %llu ops, %zu refs, "
                                 "%llu failed\n",
                         name.c_str(), corrupt ? 1 : 0,
                         static_cast<unsigned long long>(r.ledger.attempted),
                         r.references,
                         static_cast<unsigned long long>(r.ledger.failed));
            EXPECT(r.references >= 1);
            EXPECT(r.ledger.failed == (corrupt ? r.references : 0));
        }
    }
}

} // namespace

int
main()
{
    testPercentiles();
    testLedger();
    testSeeds();
    testSelfTimes();
    testFailureCounting();
    testWrongReferenceFailsRealWorkloads();
    if (g_failures != 0) {
        std::fprintf(stderr, "perfbench_test: %d failure(s)\n", g_failures);
        return 1;
    }
    std::printf("perfbench_test: all checks passed\n");
    return 0;
}
