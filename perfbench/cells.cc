#include "cells.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/experiment.hh"
#include "workloads/micro.hh"

namespace perfbench
{

using dx::sim::RunStats;
using dx::sim::SystemConfig;
using dx::wl::DramPatternParams;
using dx::wl::GatherMicro;
using dx::wl::RmwMicro;
using dx::wl::ScatterMicro;

std::string
InputVariant::key() const
{
    std::ostringstream os;
    if (elements)
        os << "elements=" << elements;
    else
        os << "scale=" << scale;
    return os.str();
}

namespace
{

const RunStats *
get(const CellStats &s, const std::string &id)
{
    const auto it = s.find(id);
    return it == s.end() ? nullptr : &it->second;
}

/** cycles(row/baseTag) / cycles(row/dxTag); 0 when a cell is missing. */
double
speedup(const CellStats &s, const std::string &row,
        const std::string &baseTag, const std::string &dxTag)
{
    const RunStats *b = get(s, row + "/" + baseTag);
    const RunStats *d = get(s, row + "/" + dxTag);
    if (!b || !d || d->cycles == 0)
        return 0.0;
    return static_cast<double>(b->cycles) /
           static_cast<double>(d->cycles);
}

/** The fig08bc index orders, in the bench's presentation order. */
std::vector<std::pair<std::string, DramPatternParams>>
indexOrders()
{
    std::vector<std::pair<std::string, DramPatternParams>> out;
    for (unsigned rbh : {0u, 25u, 50u, 75u, 100u}) {
        DramPatternParams p;
        p.rbhPercent = rbh;
        p.channelInterleave = false;
        p.bankGroupInterleave = false;
        out.emplace_back("RBH" + std::to_string(rbh), p);
    }
    DramPatternParams chi;
    chi.rbhPercent = 100;
    chi.channelInterleave = true;
    chi.bankGroupInterleave = false;
    out.emplace_back("RBH100+CHI", chi);
    DramPatternParams bgi;
    bgi.rbhPercent = 100;
    bgi.channelInterleave = true;
    bgi.bankGroupInterleave = true;
    out.emplace_back("RBH100+CHI+BGI", bgi);
    return out;
}

std::vector<CellSpec>
allMissCells(const InputVariant &v)
{
    std::vector<CellSpec> cells;
    const std::size_t n = v.elements;
    for (const auto &[label, pat] : indexOrders()) {
        auto make = [n, p = pat] {
            return std::make_unique<GatherMicro>(GatherMicro::Mode::kFull,
                                                 n, p);
        };
        cells.push_back({label, "baseline", SystemConfig::baseline(),
                         make});
        cells.push_back({label, "dx100", SystemConfig::withDx100(),
                         make});
    }
    return cells;
}

std::vector<Anchor>
allMissAnchors(const CellStats &s)
{
    double bw = 0.0;
    unsigned rows = 0;
    for (const auto &[label, pat] : indexOrders()) {
        if (const RunStats *d = get(s, label + "/dx100")) {
            bw += d->bandwidthUtil;
            ++rows;
        }
    }
    return {
        {"fig08bc speedup RBH0", 9.9,
         speedup(s, "RBH0", "baseline", "dx100")},
        {"fig08bc speedup RBH100+CHI+BGI", 1.7,
         speedup(s, "RBH100+CHI+BGI", "baseline", "dx100")},
        // The paper gives DX100 bandwidth as 0.82-0.85 at every order.
        {"fig08bc dx100 bandwidth (mean)", 0.835,
         rows ? bw / rows : 0.0},
    };
}

double
allMissGeomean(const CellStats &s)
{
    std::vector<double> v;
    for (const auto &[label, pat] : indexOrders())
        v.push_back(speedup(s, label, "baseline", "dx100"));
    return dx::sim::geomean(v);
}

struct HitRow
{
    const char *name;
    const char *baseTag;
    const char *dxTag;
    double paper;
};

const HitRow kHitRows[] = {
    {"Gather-SPD", "baseline", "dx100", 1.2},
    {"Gather-Full", "baseline", "dx100", 3.2},
    {"RMW-Atomic", "baseline", "dx100", 17.8},
    {"RMW-NoAtom", "baseline", "dx100", 3.7},
    {"Scatter", "baseline_1c", "dx100_1c", 6.6},
};

std::vector<CellSpec>
allHitCells(const InputVariant &v)
{
    const std::size_t n = v.elements;
    const std::function<std::unique_ptr<dx::wl::Workload>()> makers[] = {
        [n] {
            return std::make_unique<GatherMicro>(GatherMicro::Mode::kSpd,
                                                 n);
        },
        [n] {
            return std::make_unique<GatherMicro>(
                GatherMicro::Mode::kFull, n);
        },
        [n] { return std::make_unique<RmwMicro>(n, true); },
        [n] { return std::make_unique<RmwMicro>(n, false); },
        [n] { return std::make_unique<ScatterMicro>(n, true); },
    };

    // Scatter runs on one core with the paper's 4 MB / 2 MB LLC split,
    // as in the Fig. 8(a) bench.
    SystemConfig base1 = SystemConfig::baseline(1);
    base1.llc.sizeBytes = 4 * 1024 * 1024;
    base1.llc.assoc = 16;
    SystemConfig dx1 = SystemConfig::withDx100(1);
    dx1.llc.sizeBytes = 2 * 1024 * 1024;
    dx1.llc.assoc = 16;
    const std::map<std::string, SystemConfig> cfgs = {
        {"baseline", SystemConfig::baseline()},
        {"dx100", SystemConfig::withDx100()},
        {"baseline_1c", base1},
        {"dx100_1c", dx1},
    };

    std::vector<CellSpec> cells;
    for (std::size_t i = 0; i < std::size(kHitRows); ++i) {
        const HitRow &r = kHitRows[i];
        cells.push_back({r.name, r.baseTag, cfgs.at(r.baseTag),
                         makers[i]});
        cells.push_back({r.name, r.dxTag, cfgs.at(r.dxTag), makers[i]});
    }
    return cells;
}

std::vector<Anchor>
allHitAnchors(const CellStats &s)
{
    std::vector<Anchor> out;
    for (const HitRow &r : kHitRows)
        out.push_back({std::string("fig08a speedup ") + r.name, r.paper,
                       speedup(s, r.name, r.baseTag, r.dxTag)});
    return out;
}

double
allHitGeomean(const CellStats &s)
{
    std::vector<double> v;
    for (const HitRow &r : kHitRows)
        v.push_back(speedup(s, r.name, r.baseTag, r.dxTag));
    return dx::sim::geomean(v);
}

std::vector<CellSpec>
paperMixCells(const InputVariant &v)
{
    const dx::wl::Scale scale{v.scale};
    std::vector<CellSpec> cells;
    for (const auto &e : dx::wl::paperWorkloads()) {
        auto make = [make = e.make, scale] { return make(scale); };
        cells.push_back({e.name, "baseline", SystemConfig::baseline(),
                         make});
        cells.push_back({e.name, "dx100", SystemConfig::withDx100(),
                         make});
        cells.push_back({e.name, "dmp", SystemConfig::withDmp(), make});
    }
    return cells;
}

/** Geomean over the paper workloads of f(num cell, den cell). */
template <typename F>
double
paperRatio(const CellStats &s, const char *numTag, const char *denTag,
           F f)
{
    std::vector<double> v;
    for (const auto &e : dx::wl::paperWorkloads()) {
        const RunStats *a = get(s, e.name + "/" + numTag);
        const RunStats *b = get(s, e.name + "/" + denTag);
        v.push_back(a && b ? f(*a, *b) : 0.0);
    }
    return dx::sim::geomean(v);
}

double
floorRatio(double num, double den)
{
    return num / std::max(den, 1e-9);
}

double
paperMixGeomean(const CellStats &s)
{
    return paperRatio(s, "baseline", "dx100",
                      [](const RunStats &b, const RunStats &d) {
                          return static_cast<double>(b.cycles) /
                                 static_cast<double>(d.cycles);
                      });
}

std::vector<Anchor>
paperMixAnchors(const CellStats &s)
{
    // Each anchor is the statistic the matching figure bench prints.
    return {
        {"fig09 speedup geomean", 2.6, paperMixGeomean(s)},
        {"fig10 bandwidth ratio", 3.9,
         paperRatio(s, "dx100", "baseline",
                    [](const RunStats &d, const RunStats &b) {
                        return floorRatio(d.bandwidthUtil,
                                          b.bandwidthUtil);
                    })},
        {"fig10 row-hit ratio", 2.7,
         paperRatio(s, "dx100", "baseline",
                    [](const RunStats &d, const RunStats &b) {
                        return floorRatio(d.rowBufferHitRate,
                                          b.rowBufferHitRate);
                    })},
        {"fig10 occupancy ratio", 12.1,
         paperRatio(s, "dx100", "baseline",
                    [](const RunStats &d, const RunStats &b) {
                        return floorRatio(d.requestBufferOccupancy,
                                          b.requestBufferOccupancy);
                    })},
        {"fig11 instruction reduction", 3.6,
         paperRatio(s, "baseline", "dx100",
                    [](const RunStats &b, const RunStats &d) {
                        return static_cast<double>(b.instructions) /
                               static_cast<double>(std::max<
                                   std::uint64_t>(d.instructions, 1));
                    })},
        {"fig12 speedup over dmp", 2.0,
         paperRatio(s, "dmp", "dx100",
                    [](const RunStats &m, const RunStats &d) {
                        return static_cast<double>(m.cycles) /
                               static_cast<double>(d.cycles);
                    })},
        {"fig12 bandwidth ratio over dmp", 3.3,
         paperRatio(s, "dx100", "dmp",
                    [](const RunStats &d, const RunStats &m) {
                        return floorRatio(d.bandwidthUtil,
                                          m.bandwidthUtil);
                    })},
    };
}

} // namespace

const std::vector<WorkloadDef> &
workloadDefs()
{
    static const std::vector<WorkloadDef> defs = {
        {"allmiss_gather", {64 * 1024, 0.0}, allMissCells,
         allMissAnchors, allMissGeomean},
        {"allhit_update", {std::size_t{1} << 18, 0.0}, allHitCells,
         allHitAnchors, allHitGeomean},
        {"paper_mix", {0, 0.03}, paperMixCells, paperMixAnchors,
         paperMixGeomean},
    };
    return defs;
}

const WorkloadDef *
findWorkloadDef(const std::string &name)
{
    for (const auto &d : workloadDefs()) {
        if (d.name == name)
            return &d;
    }
    return nullptr;
}

} // namespace perfbench
