/**
 * @file
 * google-benchmark component microbenchmarks: raw throughput of the
 * substrates (address map, core issue/commit, LLC miss path, DRAM
 * controller, DMP pattern matcher, row table, ISA codec, functional
 * model). These measure the *simulator's* own speed and
 * component behaviour, complementing the figure benches.
 */

#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "cache/cache.hh"
#include "common/rng.hh"
#include "common/sim_memory.hh"
#include "cpu/core.hh"
#include "dx100/functional.hh"
#include "dx100/row_table.hh"
#include "mem/dram_system.hh"
#include "prefetch/indirect_prefetcher.hh"
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

namespace
{

/** L1 stand-in that accepts every request and answers it next cycle. */
struct InstantL1 : public cache::CachePort
{
    std::vector<cache::CacheReq> pending;
    std::vector<cache::CacheReq> answering;

    bool canAccept(const cache::CacheReq &) const override { return true; }

    void
    request(const cache::CacheReq &req) override
    {
        pending.push_back(req);
    }

    void
    tick()
    {
        answering.swap(pending);
        for (const cache::CacheReq &r : answering)
            r.sink->complete(r.tag);
        answering.clear();
    }
};

/**
 * Endless op stream in the shape of an indirect kernel's core work: an
 * index load, a four-op ALU dependence chain on it, an independent
 * load, and a store of the chain's result.
 */
class ChainKernel : public cpu::Kernel
{
  public:
    bool more() const override { return true; }

    void
    emitChunk(cpu::OpEmitter &e) override
    {
        for (int i = 0; i < 8; ++i, ++n_) {
            const SeqNum idx = e.load(0x100000 + n_ * 4, 4, 1, n_);
            SeqNum v = e.intOp(1, idx);
            v = e.intOp(1, v);
            v = e.fpOp(4, v, idx);
            v = e.intOp(1, v, v);
            e.load(0x800000 + (n_ % 4096) * 64, 8, 2);
            e.store(0x400000 + n_ * 8, 8, 3, v);
        }
    }

  private:
    Addr n_ = 0;
};

} // namespace

static void
BM_CoreIssueCommit(benchmark::State &state)
{
    // Dispatch, wake-up, issue and commit of the default core (8-wide,
    // 224-entry ROB) with memory ops answered after one cycle, so the
    // core's own bookkeeping is all that is timed.
    InstantL1 l1;
    cpu::Core core(cpu::Core::Config{}, 0, &l1);
    ChainKernel kernel;
    core.setKernel(&kernel);
    for (auto _ : state) {
        for (int t = 0; t < 4096; ++t) {
            core.tick();
            l1.tick();
        }
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(core.stats().committedOps.value()));
}
BENCHMARK(BM_CoreIssueCommit);

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
                        t.send(*req);
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
                    t.send(*req);
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

    bool canAccept(const cache::CacheReq &) const override { return true; }

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
            for (int n = 0; n < 2; ++n) {
                cache::CacheReq req;
                req.addr = lineAlign(rng.below(Addr{1} << 34));
                req.origin = mem::Origin::kDx100;
                if (!llc.canAccept(req))
                    break;
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
BM_ControllerReadWriteMix(benchmark::State &state)
{
    // BM_ControllerFullBuffer with about 30% writes: arrivals stop at
    // the first request whose queue is full, so the write queue keeps
    // crossing its drain watermarks and the tWTR/tRTW turnarounds and
    // write-mode switches run.
    mem::MemoryController::Config cfg;
    cfg.timings.refreshEnabled = false;
    mem::MemoryController ctrl(cfg, 0);
    Rng rng(17);
    for (auto _ : state) {
        for (int t = 0; t < 4096; ++t) {
            for (;;) {
                mem::MemRequest req;
                req.write = rng.below(10) < 3;
                if (!ctrl.canAccept(req.write))
                    break;
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
BENCHMARK(BM_ControllerReadWriteMix);

static void
BM_DmpMatchMiss(benchmark::State &state)
{
    // The DMP prefetcher's differential matcher on random demand
    // misses: eight recent index values (two scales each) against a
    // full 16-pattern table, so every miss ages or replaces patterns.
    SimMemory mem;
    prefetch::IndirectPrefetcher pf(prefetch::IndirectPrefetcher::Config{},
                                    &mem);
    Rng rng(17);
    for (Addr i = 0; i < 64; ++i) {
        cache::CacheReq load;
        load.addr = 0x10000 + i * 4;
        load.pc = 11;
        load.value = rng.below(1 << 20);
        pf.observe(load, true);
    }
    Addr line;
    while (pf.nextPrefetch(line)) {
    }
    cache::CacheReq miss; // pc 0: trains the matcher only
    for (auto _ : state) {
        for (int t = 0; t < 4096; ++t) {
            miss.addr = 0x4000000 + rng.below(Addr{1} << 24) * 4;
            pf.observe(miss, true);
        }
    }
    benchmark::DoNotOptimize(pf.stats().patternsLearned);
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_DmpMatchMiss);

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
