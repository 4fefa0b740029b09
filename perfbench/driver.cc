/**
 * @file
 * Simulator benchmark driver. Runs one benchmark workload's cells one
 * after another on this thread, for at least --seconds, and prints one
 * JSON result line last on stdout:
 *
 *   --trace 0  end-to-end metrics (host wall clock, set-up, simulated
 *              cycles per host second, slowest cell, peak RSS, share of
 *              correct cells, error against the paper's anchors);
 *   --trace 1  per-layer metrics: each cell runs untimed, then again
 *              under the traced loop (traced.hh), whose stat registry
 *              must match the untimed run's.
 *
 * Every cell is checked: Workload::verify() must pass and its RunStats
 * must equal the stored reference for that cell bit for bit. See
 * README.md for the workloads, the metrics and what moves them.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cells.hh"
#include "common/logging.hh"
#include "traced.hh"

using namespace perfbench;
using dx::sim::RunStats;
using dx::sim::System;
using Clock = std::chrono::steady_clock;

#ifndef DX_BENCH_BUILD_TYPE
#define DX_BENCH_BUILD_TYPE "unknown"
#endif

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <allmiss_gather|"
                 "allhit_update|paper_mix> --seed <n> --seconds <s>\n"
                 "                 --trace <0|1> [--elements <n>] "
                 "[--scale <f>] [--cells <id,id,...>]\n"
                 "                 [--reference <file>] "
                 "[--record-reference]\n",
                 why.c_str());
    std::exit(2);
}

struct Options
{
    const WorkloadDef *def = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    InputVariant input;
    std::vector<std::string> onlyCells;
    std::string reference = "perfbench/reference.txt";
    bool record = false;
};

double
parseNumber(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d) || d < 0)
        usage(flag + " needs a non-negative number, got '" + v + "'");
    return d;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    bool haveElements = false, haveScale = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--record-reference") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(a + " needs a value");
        const std::string v = argv[++i];
        if (a == "--workload") {
            o.def = findWorkloadDef(v);
            if (!o.def)
                usage("unknown workload '" + v + "'");
        } else if (a == "--seed") {
            o.seed = static_cast<std::uint64_t>(parseNumber(a, v));
            haveSeed = true;
        } else if (a == "--seconds") {
            o.seconds = parseNumber(a, v);
            haveSeconds = true;
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
            haveTrace = true;
        } else if (a == "--elements") {
            o.input.elements =
                static_cast<std::size_t>(parseNumber(a, v));
            haveElements = true;
        } else if (a == "--scale") {
            o.input.scale = parseNumber(a, v);
            haveScale = true;
        } else if (a == "--cells") {
            std::stringstream ss(v);
            for (std::string id; std::getline(ss, id, ',');)
                o.onlyCells.push_back(id);
        } else if (a == "--reference") {
            o.reference = v;
        } else {
            usage("unknown option '" + a + "'");
        }
    }
    if (!o.def)
        usage("--workload is required");
    if (!o.record && (!haveSeed || !haveSeconds || !haveTrace))
        usage("--seed, --seconds and --trace are required");

    // The input variant: the workload's default size unless overridden
    // along the axis the workload actually has.
    const InputVariant &d = o.def->defaults;
    if (d.elements) {
        if (haveScale)
            usage(o.def->name + " is sized by --elements, not --scale");
        if (!haveElements)
            o.input.elements = d.elements;
        if (o.input.elements < 1024)
            usage("--elements must be at least 1024");
        o.input.scale = 0.0;
    } else {
        if (haveElements)
            usage(o.def->name + " is sized by --scale, not --elements");
        if (!haveScale)
            o.input.scale = d.scale;
        if (o.input.scale <= 0.0)
            usage("--scale must be positive");
        o.input.elements = 0;
    }
    return o;
}

/**
 * Variables that change the simulator's path or add output: the naive
 * scheduler, stat-tree dumps and per-cell timing lines. A run with any
 * of them set would not measure what the metrics claim.
 */
void
rejectTaintingEnvironment()
{
    for (const char *var : {"DX_NAIVE_TICK", "DX_STATS_JSON",
                            "DX_CELL_TIME"}) {
        if (std::getenv(var)) {
            std::fprintf(stderr,
                         "perfbench: %s is set; unset it (it changes "
                         "the simulated path or adds output)\n",
                         var);
            std::exit(2);
        }
    }
}

// ---------------------------------------------------------------------
// Reference RunStats: one line per cell,
//   <workload> <input key> <cell id> field=value ...
// ---------------------------------------------------------------------

std::string
refKey(const std::string &workload, const InputVariant &in,
       const std::string &cell)
{
    return workload + " " + in.key() + " " + cell;
}

std::map<std::string, RunStats>
loadReference(const std::string &file)
{
    std::map<std::string, RunStats> out;
    std::ifstream in(file);
    for (std::string line; std::getline(in, line);) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string w, key, cell;
        ls >> w >> key >> cell;
        RunStats s;
        std::size_t fields = 0;
        bool ok = true;
        for (std::string kv; ls >> kv;) {
            const auto eq = kv.find('=');
            char *end = nullptr;
            const std::string val =
                eq == std::string::npos ? "" : kv.substr(eq + 1);
            const double d = std::strtod(val.c_str(), &end);
            if (val.empty() || *end != '\0' ||
                !s.setField(kv.substr(0, eq), d)) {
                ok = false;
                break;
            }
            ++fields;
        }
        // A malformed line keeps no entry, so its cell fails the check.
        if (ok && fields == RunStats::fieldCount())
            out[w + " " + key + " " + cell] = s;
    }
    return out;
}

std::string
formatStats(const RunStats &s)
{
    std::ostringstream os;
    os.precision(17);
    s.forEachField([&](const char *name, auto value) {
        os << " " << name << "=" << value;
    });
    return os.str();
}

/** The fields that differ, for the failure message. */
std::string
diffStats(const RunStats &got, const RunStats &want)
{
    std::istringstream g(formatStats(got)), w(formatStats(want));
    std::string out;
    for (std::string a, b; g >> a && w >> b;) {
        if (a != b)
            out += " " + a + " (ref " + b.substr(b.find('=') + 1) + ")";
    }
    return out;
}

// ---------------------------------------------------------------------
// One cell
// ---------------------------------------------------------------------

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** A built, initialised system with its kernels attached. */
struct Built
{
    std::unique_ptr<System> sys;
    std::unique_ptr<dx::wl::Workload> wl;
    std::vector<std::unique_ptr<dx::cpu::Kernel>> kernels;
    double buildS = 0, initS = 0, kernelS = 0;
};

Built
setUp(const CellSpec &c)
{
    Built b;
    auto t = Clock::now();
    b.sys = std::make_unique<System>(c.cfg);
    b.buildS = since(t);
    t = Clock::now();
    b.wl = c.make();
    b.wl->init(*b.sys);
    b.initS = since(t);
    t = Clock::now();
    for (unsigned i = 0; i < b.sys->cores(); ++i) {
        b.kernels.push_back(b.wl->makeKernel(*b.sys, i, c.dx100()));
        b.sys->setKernel(i, b.kernels.back().get());
    }
    b.kernelS = since(t);
    return b;
}

using Dump = std::vector<std::pair<std::string, double>>;

Dump
dumpRegistry(const System &sys)
{
    Dump d;
    const dx::StatRegistry &reg = sys.statRegistry();
    for (const std::string &p : reg.paths())
        d.emplace_back(p, reg.value(p));
    return d;
}

/** Paths whose values differ (bitwise), ignoring the root clock. */
std::vector<std::string>
diffDumps(const Dump &a, const Dump &b)
{
    std::vector<std::string> out;
    if (a.size() != b.size())
        return {"<registry shape>"};
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].first != b[i].first) {
            out.push_back(a[i].first);
        } else if (a[i].first != "system.cycles" &&
                   std::memcmp(&a[i].second, &b[i].second,
                               sizeof(double)) != 0) {
            out.push_back(a[i].first);
        }
    }
    return out;
}

struct CellRun
{
    bool ran = false; //!< simulated and verified (timings are valid)
    bool ok = false;  //!< ran, verified and matched the reference
    std::string error;
    RunStats stats;
    double setupS = 0, buildS = 0, initS = 0, kernelS = 0;
    double simS = 0, verifyS = 0, cellS = 0;
    Dump dump;           //!< trace mode only
    LayerTrace trace;    //!< trace mode only
};

/** Untimed cell: set up, System::run, verify, reference check. */
CellRun
runCell(const CellSpec &c, const RunStats *ref, bool checkRef,
        bool keepDump)
{
    CellRun r;
    const auto t0 = Clock::now();
    try {
        dx::ScopedFatalThrow fatalThrows;
        Built b = setUp(c);
        r.buildS = b.buildS;
        r.initS = b.initS;
        r.kernelS = b.kernelS;
        r.setupS = b.buildS + b.initS + b.kernelS;
        auto t = Clock::now();
        r.stats = b.sys->run();
        r.simS = since(t);
        t = Clock::now();
        const bool verified = b.wl->verify(*b.sys);
        r.verifyS = since(t);
        if (keepDump)
            r.dump = dumpRegistry(*b.sys);
        r.ran = true;
        if (!verified)
            r.error = "verify() failed";
        else if (checkRef && !ref)
            r.error = "no reference entry";
        else if (checkRef && !(r.stats == *ref))
            r.error = "stats differ from reference:" +
                      diffStats(r.stats, *ref);
        r.ok = r.error.empty();
    } catch (const std::exception &e) {
        r.error = e.what();
    }
    r.cellS = since(t0);
    return r;
}

/** Traced cell: same inputs, run under tracedRun, compared to @p u. */
void
traceCell(const CellSpec &c, CellRun &u)
{
    try {
        dx::ScopedFatalThrow fatalThrows;
        Built b = setUp(c);
        u.trace = tracedRun(*b.sys);
        const bool verified = b.wl->verify(*b.sys);
        const std::vector<std::string> diff =
            diffDumps(u.dump, dumpRegistry(*b.sys));
        std::string err;
        if (!verified)
            err = "traced run failed verify()";
        else if (u.trace.cycles != u.stats.cycles)
            err = "traced run took " + std::to_string(u.trace.cycles) +
                  " cycles, untimed " + std::to_string(u.stats.cycles);
        else if (!diff.empty())
            err = "traced registry differs at " + diff.front() +
                  " (+" + std::to_string(diff.size() - 1) + " more)";
        if (!err.empty() && u.ok) {
            u.ok = false;
            u.error = err;
        }
    } catch (const std::exception &e) {
        if (u.ok) {
            u.ok = false;
            u.error = std::string("traced run: ") + e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) / v.size();
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Sum of every registry entry whose path matches @p re. */
double
sumWhere(const Dump &d, const std::regex &re)
{
    double s = 0.0;
    for (const auto &[path, v] : d) {
        if (std::regex_match(path, re))
            s += v;
    }
    return s;
}

/** Simulated per-layer counts, summed over a pass's cells. */
struct SimCounts
{
    double committedOps = 0, stallCycles = 0;
    double accesses[3] = {}, hits[3] = {}, mshrFull[3] = {};
    double pfIssued = 0, pfUseful = 0;
    double dxInstr = 0, dxWords = 0, dxColumns = 0, dxDispatch = 0;
    double memLines = 0, rowHits = 0, rowAll = 0;
    double busUtilSum = 0, occupancySum = 0;
    unsigned cells = 0;

    void
    add(const CellSpec &c, const Dump &d)
    {
        static const std::regex ops(R"(system\.core\d+\.committedOps)");
        static const std::regex stalls(
            R"(system\.core\d+\.(rob|lq|sq)StallCycles)");
        // Cache levels in Layer order: L1D, L2, LLC.
        static const std::string level[3] = {
            R"(system\.core\d+\.l1d\.)", R"(system\.core\d+\.l2\.)",
            R"(system\.llc\.)"};
        static const std::regex acc[3] = {
            std::regex(level[0] + "(demandAccesses|dxHits|dxMisses)"),
            std::regex(level[1] + "(demandAccesses|dxHits|dxMisses)"),
            std::regex(level[2] + "(demandAccesses|dxHits|dxMisses)")};
        static const std::regex hit[3] = {
            std::regex(level[0] + "(demandHits|dxHits)"),
            std::regex(level[1] + "(demandHits|dxHits)"),
            std::regex(level[2] + "(demandHits|dxHits)")};
        static const std::regex mshr[3] = {
            std::regex(level[0] + "stallMshrFull"),
            std::regex(level[1] + "stallMshrFull"),
            std::regex(level[2] + "stallMshrFull")};
        // One DX100 is "dx100"; several are "dx100_<i>".
        static const std::regex dxi(
            R"(system\.dx100[^.]*\.instructionsRetired)");
        static const std::regex dxw(
            R"(system\.dx100[^.]*\.rowtable\.words)");
        static const std::regex dxc(
            R"(system\.dx100[^.]*\.rowtable\.columns)");
        static const std::regex dxs(
            R"(system\.dx100[^.]*\.dispatchStalls)");
        static const std::regex lines(
            R"(system\.dram\.linesTransferred)");
        static const std::regex rh(R"(system\.dram\.ch\d+\.rowHits)");
        static const std::regex ra(
            R"(system\.dram\.ch\d+\.(rowHits|rowMisses|rowConflicts))");
        static const std::regex bus(R"(system\.dram\.busUtilization)");
        static const std::regex occ(R"(system\.dram\.queueOccupancy)");
        static const std::regex pfi(
            R"(system\.core\d+\.l1d\.prefetchesIssued)");
        static const std::regex pfu(
            R"(system\.core\d+\.l1d\.prefetchesUseful)");

        committedOps += sumWhere(d, ops);
        stallCycles += sumWhere(d, stalls);
        for (int l = 0; l < 3; ++l) {
            accesses[l] += sumWhere(d, acc[l]);
            hits[l] += sumWhere(d, hit[l]);
            mshrFull[l] += sumWhere(d, mshr[l]);
        }
        if (c.cfg.dmp) {
            pfIssued += sumWhere(d, pfi);
            pfUseful += sumWhere(d, pfu);
        }
        dxInstr += sumWhere(d, dxi);
        dxWords += sumWhere(d, dxw);
        dxColumns += sumWhere(d, dxc);
        dxDispatch += sumWhere(d, dxs);
        memLines += sumWhere(d, lines);
        rowHits += sumWhere(d, rh);
        rowAll += sumWhere(d, ra);
        busUtilSum += sumWhere(d, bus);
        occupancySum += sumWhere(d, occ);
        ++cells;
    }
};

/** Host-side traced totals of one pass. */
struct HostTotals
{
    LayerTrace sum; //!< hostS / ticked / skipped / cycles summed
    double untimedS = 0, buildS = 0, initS = 0, kernelS = 0,
           verifyS = 0;
    double cacheDmpS = 0, cacheDmpBaseS = 0; //!< prefetch attribution

    void
    add(const LayerTrace &t)
    {
        for (unsigned l = 0; l < kLayerCount; ++l) {
            sum.hostS[l] += t.hostS[l];
            sum.ticked[l] += t.ticked[l];
            sum.skipped[l] += t.skipped[l];
        }
        sum.cycles += t.cycles;
        sum.ffCycles += t.ffCycles;
        sum.totalS += t.totalS;
    }
};

double
cacheHostS(const LayerTrace &t)
{
    return t.hostS[kL1d] + t.hostS[kL2] + t.hostS[kLlc];
}

double
tickFrac(const LayerTrace &t, Layer l)
{
    return ratio(static_cast<double>(t.ticked[l]),
                 static_cast<double>(t.ticked[l] + t.skipped[l]));
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::map<std::string, double>
perLayer(const HostTotals &h, const SimCounts &s)
{
    const LayerTrace &t = h.sum;
    const double total = t.totalS;
    const double cache = cacheHostS(t);
    const double allAccesses =
        s.accesses[0] + s.accesses[1] + s.accesses[2];
    std::map<std::string, double> m = {
        {"sim.build_s", h.buildS},
        {"sim.loop_s", t.loopS()},
        {"sim.ff_s", t.hostS[kFastForward]},
        {"sim.ff_cycle_frac",
         ratio(static_cast<double>(t.ffCycles),
               static_cast<double>(t.cycles))},
        {"workloads.init_s", h.initS},
        {"workloads.kernel_s", h.kernelS},
        {"workloads.verify_s", h.verifyS},
        {"cpu.host_s", t.hostS[kCpu]},
        {"cpu.host_share", ratio(t.hostS[kCpu], total)},
        {"cpu.tick_frac", tickFrac(t, kCpu)},
        {"cpu.ns_per_op", 1e9 * ratio(t.hostS[kCpu], s.committedOps)},
        {"cpu.committed_ops", s.committedOps},
        {"cpu.stall_cycles", s.stallCycles},
        {"cache.host_share", ratio(cache, total)},
        {"cache.ns_per_access", 1e9 * ratio(cache, allAccesses)},
        {"prefetch.issued", s.pfIssued},
        {"prefetch.useful_ratio", ratio(s.pfUseful, s.pfIssued)},
        {"prefetch.host_s", h.cacheDmpS - h.cacheDmpBaseS},
        {"dx100.host_s", t.hostS[kDx100]},
        {"dx100.host_share", ratio(t.hostS[kDx100], total)},
        {"dx100.tick_frac", tickFrac(t, kDx100)},
        {"dx100.ns_per_word", 1e9 * ratio(t.hostS[kDx100], s.dxWords)},
        {"dx100.instructions", s.dxInstr},
        {"dx100.coalescing", ratio(s.dxWords, s.dxColumns)},
        {"dx100.dispatch_stalls", s.dxDispatch},
        {"mem.host_s", t.hostS[kMem]},
        {"mem.host_share", ratio(t.hostS[kMem], total)},
        {"mem.tick_frac", tickFrac(t, kMem)},
        {"mem.ns_per_line", 1e9 * ratio(t.hostS[kMem], s.memLines)},
        {"mem.lines", s.memLines},
        {"mem.bus_util", ratio(s.busUtilSum, s.cells)},
        {"mem.row_hit_rate", ratio(s.rowHits, s.rowAll)},
        {"mem.queue_occupancy", ratio(s.occupancySum, s.cells)},
        {"trace.overhead_frac", ratio(total, h.untimedS) - 1.0},
    };
    const char *const names[3] = {"l1d", "l2", "llc"};
    const Layer layers[3] = {kL1d, kL2, kLlc};
    for (int l = 0; l < 3; ++l) {
        const std::string p = std::string("cache.") + names[l] + ".";
        m[p + "host_s"] = t.hostS[layers[l]];
        m[p + "tick_frac"] = tickFrac(t, layers[l]);
        m[p + "accesses"] = s.accesses[l];
        m[p + "hit_rate"] = ratio(s.hits[l], s.accesses[l]);
        m[p + "stall_mshr_full"] = s.mshrFull[l];
    }
    return m;
}

/** Units of the per-layer metrics, by name suffix. */
std::string
perLayerUnit(const std::string &name)
{
    static const std::pair<const char *, const char *> bySuffix[] = {
        {"_s", "s"},
        {"_share", "ratio"},
        {"_frac", "ratio"},
        {"_rate", "ratio"},
        {"_ratio", "ratio"},
        {"bus_util", "ratio"},
        {"queue_occupancy", "ratio"},
        {"ns_per_op", "ns/op"},
        {"ns_per_access", "ns/access"},
        {"ns_per_word", "ns/word"},
        {"ns_per_line", "ns/line"},
        {"coalescing", "words/column"},
    };
    for (const auto &[suffix, unit] : bySuffix) {
        const std::size_t n = std::strlen(suffix);
        if (name.size() >= n &&
            name.compare(name.size() - n, n, suffix) == 0)
            return unit;
    }
    return "count";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << jsonNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

/**
 * Cell host times as a median and the highest of p75/p90/p99 that has
 * at least ten samples above it, with the sample count.
 */
void
printCellPercentiles(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::printf("# cell_s n=%zu median=%.4f", v.size(), median(v));
    for (const double q : {0.99, 0.90, 0.75}) {
        if (v.empty())
            break;
        const auto i = static_cast<std::size_t>(q * (v.size() - 1));
        if (v.size() - 1 - i >= 10) {
            std::printf(" p%.0f=%.4f", 100 * q, v[i]);
            break;
        }
    }
    std::printf("\n");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("g++ ") + __VERSION__;
#else
    return "unknown";
#endif
}

// ---------------------------------------------------------------------
// Reference recording
// ---------------------------------------------------------------------

int
recordReference(const Options &o, const std::vector<CellSpec> &cells)
{
    // Replace the recorded cells' lines and keep every other line.
    std::set<std::string> recorded;
    for (const CellSpec &c : cells)
        recorded.insert(refKey(o.def->name, o.input, c.id()));
    std::vector<std::string> keep;
    {
        std::ifstream in(o.reference);
        for (std::string line; std::getline(in, line);) {
            std::istringstream ls(line);
            std::string w, key, cell;
            ls >> w >> key >> cell;
            if (!recorded.count(w + " " + key + " " + cell))
                keep.push_back(line);
        }
    }
    std::vector<std::string> fresh;
    for (const CellSpec &c : cells) {
        const CellRun r = runCell(c, nullptr, false, false);
        if (!r.ok) {
            std::fprintf(stderr, "perfbench: %s failed: %s\n",
                         c.id().c_str(), r.error.c_str());
            return 1;
        }
        fresh.push_back(refKey(o.def->name, o.input, c.id()) +
                        formatStats(r.stats));
        std::fprintf(stderr, "recorded %s\n", c.id().c_str());
    }
    std::ofstream out(o.reference, std::ios::trunc);
    for (const auto &l : keep)
        out << l << "\n";
    for (const auto &l : fresh)
        out << l << "\n";
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    rejectTaintingEnvironment();

    std::vector<CellSpec> cells = o.def->cells(o.input);
    if (!o.onlyCells.empty()) {
        std::vector<CellSpec> kept;
        for (const std::string &id : o.onlyCells) {
            const auto it =
                std::find_if(cells.begin(), cells.end(),
                             [&](const CellSpec &c) { return c.id() == id; });
            if (it == cells.end())
                usage("no cell '" + id + "' in " + o.def->name);
            kept.push_back(*it);
        }
        cells = std::move(kept);
    }
    if (o.record)
        return recordReference(o, cells);

    // The default input must have a reference entry for every cell;
    // another input variant is compared when entries were recorded for
    // it, and otherwise checked by verify() alone.
    const auto reference = loadReference(o.reference);
    const std::string variantPrefix =
        o.def->name + " " + o.input.key() + " ";
    const auto near = reference.lower_bound(variantPrefix);
    const bool checkRef =
        o.input.key() == o.def->defaults.key() ||
        (near != reference.end() &&
         near->first.rfind(variantPrefix, 0) == 0);

    std::printf("# host: nproc=%ld compiler=%s build=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN), compilerName().c_str(),
                DX_BENCH_BUILD_TYPE);
    std::printf("# workload=%s input: %s cells=%zu seed=%llu "
                "seconds=%g trace=%d reference=%s\n",
                o.def->name.c_str(), o.input.key().c_str(), cells.size(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, checkRef ? "checked" : "none");

    // The seed fixes the order cells run in; the inputs themselves are
    // generated from the seeds fixed inside src/workloads.
    std::mt19937_64 rng(o.seed);
    std::vector<std::size_t> order(cells.size());
    std::iota(order.begin(), order.end(), std::size_t{0});

    std::size_t attempted = 0, failed = 0;
    // Per-cell samples over passes: set-up, System::run and whole-cell
    // host time, and the cell's share of each whole pass's time.
    std::map<std::string, std::vector<double>> cellSetup, cellSim,
        cellTime, cellShare;
    std::vector<std::map<std::string, double>> layerPasses;
    CellStats lastStats;
    const auto start = Clock::now();
    // The first pass always completes, so every cell is checked; after
    // it the run stops at the first cell boundary past --seconds.
    std::size_t passes = 0;
    for (unsigned pass = 0; since(start) < o.seconds || pass == 0;
         ++pass) {
        bool complete = true;
        std::shuffle(order.begin(), order.end(), rng);
        double passSim = 0, passCycles = 0;
        HostTotals host;
        SimCounts counts;
        std::map<std::string, LayerTrace> traces;
        CellStats stats;
        std::map<std::string, double> passCellS;
        const auto passStart = Clock::now();
        for (std::size_t idx : order) {
            if (pass > 0 && since(start) >= o.seconds) {
                complete = false;
                break;
            }
            const CellSpec &c = cells[idx];
            const auto it =
                reference.find(refKey(o.def->name, o.input, c.id()));
            CellRun r = runCell(c, it == reference.end() ? nullptr
                                                         : &it->second,
                                checkRef, o.trace);
            if (o.trace && r.ok)
                traceCell(c, r);
            ++attempted;
            if (!r.ok) {
                ++failed;
                std::fprintf(stderr, "perfbench: cell %s failed: %s\n",
                             c.id().c_str(), r.error.c_str());
            }
            // A cell that ran still counts toward the timings, so a
            // wrong result cannot also look fast.
            if (!r.ran)
                continue;
            stats[c.id()] = r.stats;
            cellSetup[c.id()].push_back(r.setupS);
            cellSim[c.id()].push_back(r.simS);
            cellTime[c.id()].push_back(r.cellS);
            passCellS[c.id()] = r.cellS;
            passSim += r.simS;
            passCycles += static_cast<double>(r.stats.cycles);
            if (o.trace && r.ok) {
                host.add(r.trace);
                host.untimedS += r.simS;
                host.buildS += r.buildS;
                host.initS += r.initS;
                host.kernelS += r.kernelS;
                host.verifyS += r.verifyS;
                counts.add(c, r.dump);
                traces[c.id()] = r.trace;
            }
        }
        if (!complete) {
            std::printf("# pass %u stopped at --seconds after %zu of %zu "
                        "cells\n",
                        pass, stats.size(), cells.size());
            break;
        }
        ++passes;
        const double passWall = since(passStart);
        for (const auto &[id, t] : passCellS)
            cellShare[id].push_back(t / passWall);
        std::printf("# pass %u wall_s=%.4f sim_mcycles_per_s=%.4f\n", pass,
                    passWall, ratio(passCycles / 1e6, passSim));
        lastStats = stats;

        if (o.trace) {
            // DMP host time lives inside the cache ticks: attribute it
            // as dmp-cell cache time minus the same kernel's baseline.
            for (const CellSpec &c : cells) {
                const auto dmp = traces.find(c.id());
                const auto base = traces.find(c.row + "/baseline");
                if (c.cfg.dmp && dmp != traces.end() &&
                    base != traces.end()) {
                    host.cacheDmpS += cacheHostS(dmp->second);
                    host.cacheDmpBaseS += cacheHostS(base->second);
                }
            }
            layerPasses.push_back(perLayer(host, counts));
            if (pass == 0) {
                std::printf("# %-22s %9s %8s %8s %8s %8s %8s %8s %8s "
                            "%6s\n",
                            "cell", "traced_s", "cpu_s", "cache_s",
                            "dx100_s", "mem_s", "ff_s", "loop_s",
                            "mem_shr", "ff%");
                for (const CellSpec &c : cells) {
                    const auto t = traces.find(c.id());
                    if (t == traces.end())
                        continue;
                    const LayerTrace &lt = t->second;
                    std::printf(
                        "# %-22s %9.4f %8.4f %8.4f %8.4f %8.4f %8.4f "
                        "%8.4f %8.3f %6.1f\n",
                        c.id().c_str(), lt.totalS, lt.hostS[kCpu],
                        cacheHostS(lt), lt.hostS[kDx100], lt.hostS[kMem],
                        lt.hostS[kFastForward], lt.loopS(),
                        ratio(lt.hostS[kMem], lt.totalS),
                        100.0 * ratio(static_cast<double>(lt.ffCycles),
                                      static_cast<double>(lt.cycles)));
                }
            }
        }
    }

    std::printf("# passes=%zu cells_attempted=%zu cells_failed=%zu "
                "cells_failed_frac=%.6g\n",
                passes, attempted, failed,
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)));

    std::vector<Metric> metrics;
    if (o.trace) {
        // Host times: median over passes; simulated counts are the
        // same in every pass.
        std::map<std::string, std::vector<double>> byName;
        for (const auto &p : layerPasses) {
            for (const auto &[name, v] : p)
                byName[name].push_back(v);
        }
        for (const auto &[name, vs] : byName)
            metrics.push_back({name, median(vs), perLayerUnit(name)});
    } else {
        double err = 0.0;
        const std::vector<Anchor> anchors = o.def->anchors(lastStats);
        for (const Anchor &a : anchors) {
            const double e = 100.0 * std::fabs(a.measured / a.paper - 1);
            err += e;
            std::printf("# anchor %-34s paper %7.3f measured %8.4f "
                        "err %6.1f%%\n",
                        a.label.c_str(), a.paper, a.measured, e);
        }
        err = anchors.empty() ? 0.0 : err / anchors.size();
        std::printf("# paper_err_pct=%.4f speedup_geomean=%.4f "
                    "(simulated)\n",
                    err, o.def->speedupGeomean(lastStats));
        // Host times of one pass are built from each cell's samples:
        // the mean for run and cell time, because the shared host's
        // speed flips between a fast and a slow level for tens of
        // seconds at a time and a median jumps between the two; the
        // median for set-up, which is short and has outliers.
        double setup = 0.0, wall = 0.0, simS = 0.0, cycles = 0.0;
        std::vector<double> allCells;
        for (const auto &[id, vs] : cellSetup)
            setup += median(vs);
        for (const auto &[id, vs] : cellSim) {
            simS += mean(vs);
            cycles += static_cast<double>(lastStats[id].cycles);
        }
        for (const auto &[id, vs] : cellTime) {
            wall += mean(vs);
            allCells.insert(allCells.end(), vs.begin(), vs.end());
        }
        printCellPercentiles(allCells);
        // A cell has only one sample per pass, too few to average out
        // the host's slow and fast spells; its share of the pass it ran
        // in cancels the spell the whole pass was timed in.
        std::string slowestId;
        double slowestShare = 0.0;
        for (const auto &[id, vs] : cellShare) {
            if (mean(vs) > slowestShare) {
                slowestShare = mean(vs);
                slowestId = id;
            }
        }
        const double slowest = slowestShare * wall;
        std::printf("# slowest cell %s: %.4f of a pass\n", slowestId.c_str(),
                    slowestShare);
        metrics = {
            {"wall_s", wall, "s"},
            {"setup_s", setup, "s"},
            {"sim_mcycles_per_s", ratio(cycles / 1e6, simS), "Mcycles/s"},
            {"slowest_cell_s", slowest, "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
            {"cells_ok_frac",
             1.0 - ratio(static_cast<double>(failed),
                         static_cast<double>(attempted)),
             "ratio"},
            {"paper_err_pct", err, "%"},
        };
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}
