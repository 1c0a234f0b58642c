#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <thread>

#include <sys/resource.h>

#include "core/parallel.h"
#include "core/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    return samples[rank - 1];
}

std::size_t
samplesBeyond(std::size_t n, double p)
{
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    return n - std::min(rank, n);
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::uint64_t
opSeed(std::uint64_t run_seed, std::uint64_t index)
{
    return mix64(mix64(run_seed) ^ mix64(index + 0x51ed270b27u));
}

bool
inReferenceSubset(std::uint64_t run_seed, std::uint64_t index,
                  std::uint64_t one_in)
{
    if (one_in <= 1)
        return true;
    if (index == mix64(run_seed ^ 0xa5a5u) % one_in)
        return true;
    return mix64(opSeed(run_seed, index) ^ 0x7e57u) % one_in == 0;
}

std::int64_t
wallNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
        ts.tv_nsec;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

int
Tracer::begin(const std::string &layer, const std::string &name,
              int parent, std::int64_t op)
{
    SpanRecord s;
    s.layer = layer;
    s.name = name;
    s.parent = parent;
    s.track = track_;
    s.op = op;
    s.start_ns = wallNs();
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size() - 1);
}

void
Tracer::end(int span)
{
    SpanRecord &s = spans_[static_cast<std::size_t>(span)];
    s.dur_ns = wallNs() - s.start_ns;
}

void
Tracer::attribute(int parent, const std::string &layer,
                  const std::string &name, std::int64_t dur_ns)
{
    SpanRecord s;
    s.layer = layer;
    s.name = name;
    s.parent = parent;
    s.track = track_;
    s.op = parent >= 0 ? spans_[static_cast<std::size_t>(parent)].op : -1;
    s.dur_ns = dur_ns;
    s.attributed = true;
    spans_.push_back(std::move(s));
}

SelfTimeTable
selfTimes(const Tracer &tracer, int track, const std::string &root_name)
{
    const std::vector<SpanRecord> &spans = tracer.spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<int> root_of(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        if (s.parent < 0) {
            if (s.track == track && s.name == root_name)
                root_of[i] = static_cast<int>(i);
            continue;
        }
        // Parents precede children, so the root is already known.
        const auto p = static_cast<std::size_t>(s.parent);
        child_ns[p] += static_cast<double>(s.dur_ns);
        root_of[i] = root_of[p];
    }

    SelfTimeTable table;
    std::map<std::string, double> by_layer;
    double root_self_ns = 0.0;
    double root_ns = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (root_of[i] < 0)
            continue;
        const double self = static_cast<double>(spans[i].dur_ns) -
            child_ns[i];
        if (spans[i].parent < 0) {
            ++table.roots;
            root_ns += static_cast<double>(spans[i].dur_ns);
            root_self_ns += self;
        } else {
            by_layer[spans[i].layer] += self;
        }
    }
    table.root_ms = root_ns / 1e6;
    table.uncovered_frac = root_ns > 0.0 ? root_self_ns / root_ns : 0.0;
    for (const auto &[layer, ns] : by_layer)
        table.layers.push_back(
            {layer, ns / 1e6, root_ns > 0.0 ? ns / root_ns : 0.0});
    std::sort(table.layers.begin(), table.layers.end(),
              [](const LayerSelf &a, const LayerSelf &b) {
                  return a.self_ms > b.self_ms;
              });
    return table;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

EnvStamp
EnvStamp::current()
{
    EnvStamp e;
    e.lanes = mtia::parallelLanes();
    e.hardware_concurrency = std::thread::hardware_concurrency();
    e.simd_isa = mtia::simd::isaName(mtia::simd::activeIsa());
    e.build_type = PERFBENCH_BUILD_TYPE;
#if defined(__clang__)
    e.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    e.compiler = std::string("gcc ") + __VERSION__;
#else
    e.compiler = "unknown";
#endif
#ifdef __OPTIMIZE__
    e.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    e.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    e.sanitized = true;
#endif
#endif
    return e;
}

std::string
EnvStamp::json() const
{
    std::string s = "{";
    s += "\"lanes\": " + std::to_string(lanes);
    s += ", \"hardware_concurrency\": " +
        std::to_string(hardware_concurrency);
    s += ", \"simd_isa\": " + jsonString(simd_isa);
    s += ", \"build_type\": " + jsonString(build_type);
    s += ", \"compiler\": " + jsonString(compiler);
    s += ", \"optimized\": " + std::string(optimized ? "true" : "false");
    s += ", \"sanitized\": " + std::string(sanitized ? "true" : "false");
    s += ", \"timings_comparable\": " +
        std::string(flagged() ? "false" : "true");
    return s + "}";
}

} // namespace perfbench
