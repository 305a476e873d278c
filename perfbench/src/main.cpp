/**
 * @file
 * mts_perfbench: one closed-loop workload, measured end to end or
 * traced per layer.
 *
 *   mts_perfbench --workload repro|pscale|fuzz --seed N --seconds S
 *                 --trace 0|1 [--span-file PATH]
 *
 * Set-up runs several times and reports its median. Untraced passes then
 * repeat while they fit in S seconds (at least one). With --trace 1 the
 * run makes one set-up, one untraced and one traced pass instead, prints
 * the per-layer metrics of the traced pass and writes every span to the
 * span file. Exact simulated counts must be identical in every pass;
 * the last stdout line is the JSON result.
 */
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace
{

using namespace perfbench;

/** A single set-up takes milliseconds; report the median of several. */
constexpr int kSetups = 15;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spanFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "mts_perfbench: %s\n"
                 "usage: mts_perfbench --workload repro|pscale|fuzz "
                 "--seed N --seconds S --trace 0|1 [--span-file PATH]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno == ERANGE)
        usage(flag + " needs a whole number, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveWorkload = false, haveSeconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload") {
            o.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            o.seed = parseUint(flag, value);
        } else if (flag == "--seconds") {
            std::uint64_t s = parseUint(flag, value);
            if (s < 1 || s > 3600)
                usage("--seconds must be 1..3600");
            o.seconds = static_cast<double>(s);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace must be 0 or 1");
            o.trace = value == "1";
        } else if (flag == "--span-file") {
            o.spanFile = value;
        } else {
            usage("unknown option '" + flag + "'");
        }
    }
    if (!haveWorkload || !haveSeconds)
        usage("--workload and --seconds are required");
    return o;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated quantile of @p v (0 <= q <= 1). */
double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/**
 * Peak resident set of this process. Not getrusage's ru_maxrss: that
 * keeps the parent's high-water mark from before exec.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
    const char *better;
};

/** Per-layer metrics of the traced pass, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(const Workload &w, const Pass &traced, double untracedWallS,
             const std::map<std::string, SpanTotals> &totals)
{
    auto self = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfS;
    };
    auto calls = [&](const char *name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0
                                  : static_cast<double>(it->second.calls);
    };
    const ExactCounts &c = traced.counts;
    auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    std::map<std::string, double> own = w.layerMetrics(traced);
    auto fromWorkload = [&](const char *name) {
        auto it = own.find(name);
        return it == own.end() ? 0.0 : it->second;
    };

    return {
        {"core.ladder_s", self("core.ladder"), "s", "lower"},
        {"core.ladder_calls", calls("core.ladder"), "count", "lower"},
        {"core.run_s", self("core.run"), "s", "lower"},
        {"core.run_calls", calls("core.run"), "count", "lower"},
        {"core.reference_s", self("core.reference"), "s", "lower"},
        {"core.prepare_s", self("core.prepare"), "s", "lower"},
        {"core.task_wait_s", fromWorkload("core.task_wait_s"), "s", "lower"},
        {"core.worker_util", fromWorkload("core.worker_util"), "ratio",
         "higher"},
        {"asm.busy_s", self("asm.assemble"), "s", "lower"},
        {"asm.calls", calls("asm.assemble"), "count", "lower"},
        {"opt.busy_s", self("opt.group"), "s", "lower"},
        {"opt.calls", calls("opt.group"), "count", "lower"},
        {"isa.decode_s", self("isa.decode"), "s", "lower"},
        {"isa.decode_calls", calls("isa.decode"), "count", "lower"},
        {"isa.fused_frac", ratio(n(c.fusedInstructions), n(c.instructions)),
         "ratio", "higher"},
        {"isa.fuse_bailouts", n(c.fuseBailouts), "count", "lower"},
        {"sim.construct_s", self("sim.construct"), "s", "lower"},
        {"sim.run_s", self("sim.run"), "s", "lower"},
        {"sim.cycles", n(c.cycles), "cycles", "lower"},
        {"sim.ns_per_instr.mesh.p16",
         fromWorkload("sim.ns_per_instr.mesh.p16"), "ns", "lower"},
        {"sim.ns_per_instr.mesh.p64",
         fromWorkload("sim.ns_per_instr.mesh.p64"), "ns", "lower"},
        {"sim.ns_per_instr.mesh.p256",
         fromWorkload("sim.ns_per_instr.mesh.p256"), "ns", "lower"},
        {"sim.ns_per_instr.mesh.p1024",
         fromWorkload("sim.ns_per_instr.mesh.p1024"), "ns", "lower"},
        {"sim.ns_per_instr.const.p1024",
         fromWorkload("sim.ns_per_instr.const.p1024"), "ns", "lower"},
        {"sim.ns_per_proc_cycle.mesh.p1024",
         fromWorkload("sim.ns_per_proc_cycle.mesh.p1024"), "ns", "lower"},
        {"cpu.instructions", n(c.instructions), "count", "lower"},
        {"cpu.switches_taken", n(c.switchesTaken), "count", "lower"},
        {"cpu.idle_frac", ratio(n(c.idleCycles), n(c.procCycles)), "ratio",
         "lower"},
        {"mem.messages", n(c.messages), "count", "lower"},
        {"mem.avg_hops", ratio(n(c.hops), n(c.routedMsgs)), "hops",
         "lower"},
        {"mem.link_wait_per_msg", ratio(n(c.linkWaitCycles), n(c.routedMsgs)),
         "cycles", "lower"},
        {"cache.hit_ratio", ratio(n(c.cacheHits), n(c.cacheAccesses)),
         "ratio", "higher"},
        {"cache.invalidations", n(c.invalidations), "count", "lower"},
        {"dir.overflows", n(c.dirOverflows), "count", "lower"},
        {"apps.init_s", self("apps.init"), "s", "lower"},
        {"apps.check_s", self("apps.check"), "s", "lower"},
        {"verify.gen_s", self("verify.gen"), "s", "lower"},
        {"verify.diff_s", self("verify.diff"), "s", "lower"},
        {"verify.ref_s", self("verify.ref"), "s", "lower"},
        {"verify.machine_runs", n(c.machineRuns), "count", "higher"},
        {"verify.divergences", n(c.divergences), "count", "lower"},
        {"trace.overhead", traced.wallS / untracedWallS - 1.0, "ratio",
         "lower"},
    };
}

mts::JsonValue
exactJson(const Workload &w, const ExactCounts &c)
{
    mts::JsonValue j = c.toJson();
    for (const auto &[name, v] : w.exactExtras())
        j[name] = mts::JsonValue(v);
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::unique_ptr<Workload> w;
    if (opt.workload == "repro")
        w = makeRepro();
    else if (opt.workload == "pscale")
        w = makePscale();
    else if (opt.workload == "fuzz")
        w = makeFuzz(opt.seed);
    else
        usage("unknown workload '" + opt.workload + "'");

    std::vector<double> setupS;
    auto timedSetup = [&] {
        w->release();
        Clock::time_point t0 = Clock::now();
        w->setup();
        setupS.push_back(secondsSince(t0));
    };
    auto timedPass = [&](Pass &pass) {
        Clock::time_point t0 = Clock::now();
        w->run(pass);
        pass.wallS = secondsSince(t0);
    };

    for (int k = 0; k < (opt.trace ? 1 : kSetups); ++k)
        timedSetup();

    // Closed loop: the next pass starts when the last one ends, while
    // it is expected to fit in the budget.
    std::vector<std::unique_ptr<Pass>> passes;
    const Clock::time_point start = Clock::now();
    do {
        if (!passes.empty())
            timedSetup();
        passes.push_back(std::make_unique<Pass>());
        timedPass(*passes.back());
    } while (!opt.trace &&
             secondsSince(start) + passes.back()->wallS <= opt.seconds);

    std::unique_ptr<Pass> traced;
    if (opt.trace) {
        w->release();
        spanLog().setEnabled(true);
        w->setup();
        traced = std::make_unique<Pass>();
        timedPass(*traced);
    }
    w->replay();

    std::vector<const Pass *> all;
    for (const auto &p : passes)
        all.push_back(p.get());
    if (traced)
        all.push_back(traced.get());

    std::uint64_t attempted = 0, failed = 0;
    // Per pass: the op percentiles then do not depend on how many passes
    // fit in the budget.
    std::vector<double> wallS, instrPerS, opP50S, opP90S;
    for (const Pass *p : all) {
        attempted += p->attempted;
        failed += p->failed;
    }
    for (const auto &p : passes) {
        wallS.push_back(p->wallS);
        instrPerS.push_back(w->instructions(*p) / p->wallS);
        opP50S.push_back(quantile(p->opCpuSeconds, 0.5));
        opP90S.push_back(quantile(p->opCpuSeconds, 0.9));
    }

    // Exact counts must repeat bit-for-bit in every pass, traced or not.
    bool consistent = true;
    for (const Pass *p : all)
        consistent = consistent && p->counts == all.front()->counts;

    const Pass &first = *all.front();
    std::printf("workload %s, seed %llu: %zu untraced pass(es)%s\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), passes.size(),
                traced ? " + 1 traced pass" : "");
    std::printf("ops: %llu attempted, %llu failed (per pass: %llu of "
                "%llu failed)\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(first.failed),
                static_cast<unsigned long long>(first.attempted));
    for (const auto &[what, count] : first.failures)
        std::printf("failed op (x%d per pass): %s\n", count, what.c_str());
    std::printf("pass wall times (s):");
    for (const Pass *p : all)
        std::printf(" %.4f", p->wallS);
    std::printf("\nexact counts: %s\n",
                exactJson(*w, first.counts).dump().c_str());
    std::printf("exact counts %s across %zu pass(es)\n",
                consistent ? "identical" : "DIFFER", all.size());

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = {
            {"setup_s", median(setupS), "s", "lower"},
            {"wall_s", median(wallS), "s", "lower"},
            {"instr_per_s", median(instrPerS), "1/s", "higher"},
            {"op_p50_ms", 1e3 * median(opP50S), "ms", "lower"},
            {"op_p90_ms", 1e3 * median(opP90S), "ms", "lower"},
            {"peak_rss_mb", peakRssMb(), "MB", "lower"},
        };
        std::printf("setup_s is the median of %zu set-ups; wall_s, "
                    "instr_per_s and the op percentiles are medians over "
                    "%zu pass(es); each pass's percentiles are over the "
                    "thread CPU time of its %llu ops\n",
                    setupS.size(), passes.size(),
                    static_cast<unsigned long long>(first.attempted));
    } else {
        const std::map<std::string, SpanTotals> totals = spanLog().totals();
        metrics = layerMetrics(*w, *traced, median(wallS), totals);
        std::printf("per-layer metrics from the traced pass (%zu spans)\n",
                    spanLog().size());
        if (totals.count("replay"))
            std::printf("asm, opt and verify.ref times are replays, "
                        "outside the timed phase, of calls "
                        "runDifferential makes\n");
        if (!opt.spanFile.empty()) {
            mts::JsonValue doc = mts::JsonValue::object();
            doc["workload"] = mts::JsonValue(opt.workload);
            doc["seed"] = mts::JsonValue(opt.seed);
            doc["exact"] = exactJson(*w, first.counts);
            doc["exact_consistent"] = mts::JsonValue(consistent);
            mts::JsonValue jtotals = mts::JsonValue::object();
            for (const auto &[name, t] : totals) {
                mts::JsonValue jt = mts::JsonValue::object();
                jt["total_s"] = mts::JsonValue(t.totalS);
                jt["self_s"] = mts::JsonValue(t.selfS);
                jt["calls"] = mts::JsonValue(t.calls);
                jtotals[name] = jt;
            }
            doc["totals"] = jtotals;
            doc["spans"] = spanLog().toJson();
            std::ofstream out(opt.spanFile);
            out << doc.dump() << '\n';
            if (!out) {
                std::fprintf(stderr, "mts_perfbench: cannot write '%s'\n",
                             opt.spanFile.c_str());
                return 1;
            }
            std::printf("span file: %s\n", opt.spanFile.c_str());
        }
    }
    mts::JsonValue jm = mts::JsonValue::object();
    for (const Metric &m : metrics) {
        std::printf("metric %s = %.6g %s (%s is better)\n", m.name.c_str(),
                    m.value, m.unit, m.better);
        mts::JsonValue v = mts::JsonValue::object();
        v["value"] = mts::JsonValue(m.value);
        v["unit"] = mts::JsonValue(m.unit);
        jm[m.name] = v;
    }
    mts::JsonValue result = mts::JsonValue::object();
    result["correct"] = mts::JsonValue(consistent);
    result["attempted"] = mts::JsonValue(attempted);
    result["failed"] = mts::JsonValue(failed);
    result["metrics"] = jm;
    std::printf("%s\n", result.dump().c_str());
    return 0;
}
