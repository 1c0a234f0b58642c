/**
 * @file
 * perfbench: the repo's benchmark. One run measures one workload for a
 * given number of seconds of op time and prints, as its last stdout
 * line, {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--out DIR]
 *
 * --trace 0 reports the end-to-end metrics of NAME, measured untraced.
 * --trace 1 reports the per-layer metrics: every per-layer metric
 * belongs to one workload, so a traced run visits all four workloads
 * (a quarter of S each; NAME only names the output files), runs each
 * untraced and then traced, and writes a Chrome trace plus a per-layer
 * self-time table to DIR.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "runner.h"
#include "sim/types.h"
#include "telemetry/trace.h"
#include "workload.h"

namespace perfbench {
namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string out = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n"
                 "workloads:",
                 why.c_str());
    for (const std::string &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string v = argv[++i];
        char *end = nullptr;
        errno = 0;
        if (flag == "--workload") {
            a.workload = v;
        } else if (flag == "--seed") {
            const unsigned long long s = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0)
                usage("--seed wants a non-negative integer");
            a.seed = s;
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0.0) ||
                a.seconds > 3600.0)
                usage("--seconds wants a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace wants 0 or 1");
            a.trace = v == "1" ? 1 : 0;
        } else if (flag == "--out") {
            a.out = v;
        } else {
            usage("unknown argument " + flag);
        }
    }
    if (makeWorkload(a.workload) == nullptr)
        usage("unknown workload '" + a.workload + "'");
    if (!have_seed || a.seconds <= 0.0 || a.trace < 0)
        usage("--seed, --seconds and --trace are required");
    return a;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string s = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0)
            s += ", ";
        s += jsonString(metrics[i].name) + ": {\"value\": " +
            jsonNumber(metrics[i].value) +
            ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return s + "}";
}

void
printResult(const OpLedger &ledger, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                ledger.failed == 0 && ledger.attempted > 0 ? "true"
                                                           : "false",
                static_cast<unsigned long long>(ledger.attempted),
                static_cast<unsigned long long>(ledger.failed),
                metricsJson(metrics).c_str());
}

/** The simulated results and run facts that are not gated metrics. */
void
printDeterministic(const Workload &w, const PhaseResult &r)
{
    std::vector<Metric> det = w.deterministic();
    det.push_back({"failed_frac", r.ledger.failedFrac(), "fraction"});
    std::printf("{\"workload\": %s, \"deterministic\": %s, "
                "\"work_unit\": %s, \"op_samples\": %zu, "
                "\"op_p90_samples_beyond\": %zu, \"references\": %zu}\n",
                jsonString(w.name()).c_str(), metricsJson(det).c_str(),
                jsonString(w.workUnit()).c_str(), r.op_ms.size(),
                samplesBeyond(r.op_ms.size(), 90.0), r.references);
}

constexpr double kDeadlineS = 140.0; // the run must end within 180 s

int
runEndToEnd(const Args &a, const EnvStamp &env, std::int64_t start_ns)
{
    SetupResult s = measureSetup(
        [&] { return makeWorkload(a.workload); }, a.seed, 3, 0.5, 100);
    Workload &w = *s.workload;

    PhaseOptions opt;
    opt.budget_s = a.seconds;
    opt.min_ops = std::max(w.deterministicOps(), w.rotation());
    opt.deadline_ns =
        start_ns + static_cast<std::int64_t>(kDeadlineS * 1e9);
    const PhaseResult r = runPhase(w, a.seed, opt);

    const double ops = static_cast<double>(r.op_ms.size());
    const std::vector<Metric> metrics = {
        {"setup_s", median(s.seconds), "s"},
        {"op_p50_ms", percentile(r.op_ms, 50.0), "ms"},
        {"op_p90_ms", percentile(r.op_ms, 90.0), "ms"},
        {"work_per_s", r.op_s > 0.0 ? r.work / r.op_s : 0.0, "items/s"},
        {"cpu_ms_per_op", ops > 0.0 ? r.cpu_ms / ops : 0.0, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };

    std::printf("%s seed %llu: %zu set-ups, %zu ops (%zu reference) in "
                "%.2f s of op time; work unit: %s\n",
                w.name(), static_cast<unsigned long long>(a.seed),
                s.seconds.size(), r.op_ms.size(), r.references, r.op_s,
                w.workUnit());
    for (const Metric &m : metrics)
        std::printf("  %-16s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"env\": %s}\n", env.json().c_str());
    printDeterministic(w, r);
    printResult(r.ledger, metrics);
    return 0;
}

double
meanOf(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/** Module of a layer name ("ops.fc" -> "ops"). */
std::string
moduleOf(const std::string &layer)
{
    return layer.substr(0, layer.find('.'));
}

/** The drawn (timed, not attributed) spans, one trace row per track,
 *  host nanoseconds from the first span as trace ticks. */
mtia::telemetry::TraceRecorder
chromeTrace(const Tracer &tracer, const std::vector<std::string> &tracks)
{
    mtia::telemetry::TraceRecorder rec;
    std::vector<mtia::telemetry::TrackId> ids;
    for (const std::string &t : tracks)
        ids.push_back(rec.track("perfbench", t));
    std::int64_t t0 = INT64_MAX;
    for (const SpanRecord &s : tracer.spans()) {
        if (!s.attributed)
            t0 = std::min(t0, s.start_ns);
    }
    for (const SpanRecord &s : tracer.spans()) {
        if (s.attributed)
            continue;
        const auto start =
            static_cast<mtia::Tick>(s.start_ns - t0) * mtia::kTicksPerNs;
        rec.complete(ids[static_cast<std::size_t>(s.track)],
                     s.layer + "." + s.name, s.layer, start,
                     start + static_cast<mtia::Tick>(s.dur_ns) *
                         mtia::kTicksPerNs);
    }
    return rec;
}

int
runTraced(const Args &a, const EnvStamp &env, std::int64_t start_ns)
{
    const std::vector<std::string> &names = workloadNames();
    const double share = a.seconds / static_cast<double>(names.size());
    const std::int64_t deadline =
        start_ns + static_cast<std::int64_t>(kDeadlineS * 1e9);

    Tracer tracer;
    std::vector<std::string> tracks;
    std::vector<Metric> metrics;
    OpLedger ledger;
    std::string tables;

    for (std::size_t k = 0; k < names.size(); ++k) {
        std::unique_ptr<Workload> w = makeWorkload(names[k]);
        w->setup(a.seed);
        const int track = static_cast<int>(2 * k);
        tracks.push_back(names[k]);
        tracks.push_back(names[k] + " (attribution)");

        PhaseOptions opt;
        opt.budget_s = share / 2.0;
        opt.min_ops = std::max(w->deterministicOps(), 2 * w->rotation());
        opt.deadline_ns = deadline;
        const PhaseResult untraced = runPhase(*w, a.seed, opt);

        w->beginTraced();
        tracer.setTrack(track);
        opt.min_ops = 2 * w->rotation();
        opt.first_index = untraced.op_ms.size();
        opt.tracer = &tracer;
        const PhaseResult traced = runPhase(*w, a.seed, opt);
        w->endTraced();
        ledger.add(untraced.ledger);
        ledger.add(traced.ledger);

        const SelfTimeTable table = selfTimes(tracer, track, "op");
        const double overhead =
            meanOf(traced.op_ms) / meanOf(untraced.op_ms) - 1.0;
        const double roots = std::max<double>(
            static_cast<double>(table.roots), 1.0);

        for (const Metric &m : w->layerMetrics())
            metrics.push_back(m);
        std::map<std::string, double> by_module;
        for (const LayerSelf &l : table.layers)
            by_module[moduleOf(l.layer)] += l.self_ms;
        for (const auto &[module, ms] : by_module)
            metrics.push_back({names[k] + ".self_ms." + module,
                               ms / roots, "ms"});
        metrics.push_back(
            {names[k] + ".uncovered_frac", table.uncovered_frac,
             "fraction"});
        metrics.push_back(
            {names[k] + ".trace_overhead_frac", overhead, "fraction"});

        char line[256];
        std::snprintf(line, sizeof line,
                      "%s: %zu traced ops, %.1f ms per op, trace "
                      "overhead %+.1f%%\n  %-22s %12s %8s\n",
                      names[k].c_str(), table.roots, table.root_ms / roots,
                      overhead * 100.0, "layer", "self ms/op", "share");
        tables += line;
        for (const LayerSelf &l : table.layers) {
            std::snprintf(line, sizeof line, "  %-22s %12.4f %7.1f%%\n",
                          l.layer.c_str(), l.self_ms / roots,
                          l.share * 100.0);
            tables += line;
        }
        std::snprintf(line, sizeof line, "  %-22s %12.4f %7.1f%%\n",
                      "(no span)", table.uncovered_frac * table.root_ms /
                          roots,
                      table.uncovered_frac * 100.0);
        tables += line;
        printDeterministic(*w, untraced);
    }

    std::error_code ec;
    std::filesystem::create_directories(a.out, ec);
    const std::string stem = a.out + "/" + a.workload + "-seed" +
        std::to_string(a.seed);
    {
        std::ofstream os(stem + ".trace.json");
        chromeTrace(tracer, tracks).writeJson(os);
        if (!os)
            std::fprintf(stderr, "perfbench: cannot write %s.trace.json\n",
                         stem.c_str());
    }
    {
        std::ofstream os(stem + ".layers.txt");
        os << "env " << env.json() << "\n" << tables;
    }
    std::printf("%s", tables.c_str());
    std::printf("trace: %s.trace.json\n{\"env\": %s}\n", stem.c_str(),
                env.json().c_str());
    printResult(ledger, metrics);
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const std::int64_t start_ns = wallNs();
    const Args args = parseArgs(argc, argv);
    const EnvStamp env = EnvStamp::current();
    if (env.flagged())
        std::fprintf(stderr,
                     "perfbench: WARNING: %s build (%s); timings are not "
                     "comparable\n",
                     env.sanitized ? "sanitizer" : "unoptimized",
                     env.build_type.c_str());
    return args.trace == 1 ? runTraced(args, env, start_ns)
                           : runEndToEnd(args, env, start_ns);
}
