/**
 * @file
 * google-benchmark component microbenchmarks: raw throughput of the
 * substrates (address map, LLC miss path, DRAM controller, row table,
 * ISA codec, functional model). These measure the *simulator's* own speed and
 * component behaviour, complementing the figure benches.
 */

#include <benchmark/benchmark.h>

#include <deque>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/sim_memory.hh"
#include "dx100/functional.hh"
#include "dx100/row_table.hh"
#include "mem/dram_system.hh"
#include "sim/system.hh"

using namespace dx;

static void
BM_AddressMapDecompose(benchmark::State &state)
{
    mem::AddressMap map{mem::DramGeometry{},
                        mem::MapOrder::kChBgCoBaRo};
    Rng rng(1);
    Addr a = 0;
    for (auto _ : state) {
        a += 0x40;
        benchmark::DoNotOptimize(map.decompose(a & 0xffffffff));
    }
}
BENCHMARK(BM_AddressMapDecompose);

static void
BM_IsaEncodeDecode(benchmark::State &state)
{
    dx100::Instruction in;
    in.op = dx100::Opcode::kIrmw;
    in.dtype = dx100::DataType::kF64;
    in.aluOp = dx100::AluOp::kAdd;
    in.ts1 = 3;
    in.ts2 = 4;
    in.base = 0xdeadbeef000;
    for (auto _ : state) {
        auto words = dx100::encode(in);
        benchmark::DoNotOptimize(dx100::decode(words));
    }
}
BENCHMARK(BM_IsaEncodeDecode);

static void
BM_RowTableInsertDrain(benchmark::State &state)
{
    dx100::IndirectTables::Config cfg;
    dx100::IndirectTables t(cfg);
    Rng rng(7);
    for (auto _ : state) {
        state.PauseTiming();
        t.reset(4096);
        state.ResumeTiming();
        std::uint32_t inserted = 0;
        while (inserted < 4096) {
            const auto res = t.insert(
                static_cast<unsigned>(rng.below(cfg.slices)),
                static_cast<std::uint32_t>(rng.below(1024)),
                static_cast<std::uint32_t>(rng.below(128)), 0,
                inserted);
            if (res ==
                dx100::IndirectTables::InsertResult::kSliceFull) {
                for (unsigned s = 0; s < cfg.slices; ++s) {
                    if (auto req = t.nextRequest(s)) {
                        t.completeColumn(
                            req->handle,
                            [](std::uint32_t, std::uint16_t) {});
                    }
                }
                continue;
            }
            ++inserted;
        }
        while (!t.drained()) {
            for (unsigned s = 0; s < cfg.slices; ++s) {
                if (auto req = t.nextRequest(s)) {
                    t.completeColumn(
                        req->handle,
                        [](std::uint32_t, std::uint16_t) {});
                }
            }
        }
    }
}
BENCHMARK(BM_RowTableInsertDrain);

static void
BM_DramControllerRandomReads(benchmark::State &state)
{
    // Simulated-cycles-per-second of the FR-FCFS controller under
    // saturating random read traffic.
    mem::DramSystem::Config cfg;
    cfg.ctrl.timings.refreshEnabled = false;
    for (auto _ : state) {
        state.PauseTiming();
        mem::DramSystem dram(cfg);
        Rng rng(3);
        state.ResumeTiming();
        for (int t = 0; t < 4096; ++t) {
            const Addr a = lineAlign(rng.below(64u << 20));
            if (dram.canAccept(a, false))
                dram.access(a, false, mem::Origin::kCpuDemand, 0,
                            nullptr);
            dram.tick();
        }
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DramControllerRandomReads);

namespace
{

/** Fixed-latency downstream for a cache: fills return in order. */
struct FillPipe : public cache::CachePort
{
    struct Fill
    {
        std::uint64_t tag;
        cache::CacheRespSink *sink;
        std::uint64_t due;
    };

    std::deque<Fill> inFlight;
    std::uint64_t now = 0;
    std::uint64_t latency = 200;

    bool canAccept() const override { return true; }

    void
    request(const cache::CacheReq &req) override
    {
        inFlight.push_back({req.tag, req.sink, now + latency});
    }

    void
    tick()
    {
        ++now;
        while (!inFlight.empty() && inFlight.front().due <= now) {
            const Fill f = inFlight.front();
            inFlight.pop_front();
            f.sink->complete(f.tag);
        }
    }
};

} // namespace

static void
BM_CacheLlcMissPath(benchmark::State &state)
{
    // The default LLC (10 MiB, 20 ways, 256 MSHRs) fed two random-line
    // misses per cycle against 200-cycle fills, so up to 256 MSHRs are
    // outstanding and the head often stalls on a full MSHR file; two
    // residency snoops per cycle stand in for DX100's H-bit probes.
    FillPipe pipe;
    cache::Cache llc(sim::SystemConfig::baseline().llc, &pipe);
    Rng rng(11);
    std::uint64_t requests = 0;
    for (auto _ : state) {
        for (int t = 0; t < 4096; ++t) {
            for (int n = 0; n < 2 && llc.canAccept(); ++n) {
                cache::CacheReq req;
                req.addr = lineAlign(rng.below(Addr{1} << 34));
                req.origin = mem::Origin::kDx100;
                llc.request(req);
                ++requests;
            }
            llc.tick();
            pipe.tick();
            for (int n = 0; n < 2; ++n) {
                benchmark::DoNotOptimize(
                    llc.containsLine(rng.below(Addr{1} << 34)));
            }
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(requests));
}
BENCHMARK(BM_CacheLlcMissPath);

static void
BM_ControllerFullBuffer(benchmark::State &state)
{
    // FR-FCFS tick plus the scheduler's nextEventAt() probe with the
    // 32-entry read buffer kept full of random-bank, random-row reads.
    mem::MemoryController::Config cfg;
    cfg.timings.refreshEnabled = false;
    mem::MemoryController ctrl(cfg, 0);
    Rng rng(13);
    for (auto _ : state) {
        for (int t = 0; t < 4096; ++t) {
            while (ctrl.canAccept(false)) {
                mem::MemRequest req;
                req.coord.bankGroup =
                    static_cast<std::uint16_t>(rng.below(4));
                req.coord.bank = static_cast<std::uint16_t>(rng.below(4));
                req.coord.row = static_cast<std::uint32_t>(rng.below(64));
                req.coord.column =
                    static_cast<std::uint32_t>(rng.below(128));
                ctrl.enqueue(req);
            }
            benchmark::DoNotOptimize(ctrl.nextEventAt());
            ctrl.tick();
        }
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_ControllerFullBuffer);

static void
BM_FunctionalGather(benchmark::State &state)
{
    SimMemory mem;
    dx100::Functional fn(mem, 4, 16384, 8);
    Rng rng(5);
    auto &idx = fn.tileRef(0);
    for (unsigned i = 0; i < 16384; ++i)
        idx.data[i] = rng.below(1 << 20);
    idx.size = 16384;
    dx100::Instruction in;
    in.op = dx100::Opcode::kIld;
    in.dtype = dx100::DataType::kU32;
    in.td = 1;
    in.ts1 = 0;
    in.base = 0x100000;
    for (auto _ : state)
        fn.execute(in);
    state.SetItemsProcessed(state.iterations() * 16384);
}
BENCHMARK(BM_FunctionalGather);

BENCHMARK_MAIN();
