#include "workloads/micro.hh"

#include <algorithm>
#include <array>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "workloads/kernels.hh"

namespace dx::wl
{

using runtime::DataType;

namespace
{

/** Deterministic fill value for A[i]. */
std::uint32_t
fillValue(std::size_t i)
{
    return static_cast<std::uint32_t>(i * 2654435761u + 12345u);
}

/**
 * Store the words fill(0), ..., fill(n - 1) at @p base, built on the
 * host one chunk at a time: one bulk copy per chunk instead of a frame
 * lookup per word, without a host copy of the whole array.
 */
template <typename Fill>
void
storeWords(SimMemory &mem, Addr base, std::size_t n, Fill fill)
{
    std::array<std::uint32_t, 4096> chunk;
    for (std::size_t i = 0; i < n; i += chunk.size()) {
        const std::size_t len = std::min(chunk.size(), n - i);
        for (std::size_t k = 0; k < len; ++k)
            chunk[k] = fill(i + k);
        mem.writeBytes(base + i * 4, chunk.data(), len * 4);
    }
}

} // namespace

// =====================================================================
// GatherMicro: C[i] = A[B[i]]
// =====================================================================

GatherMicro::GatherMicro(Mode mode, std::size_t n,
                         std::optional<DramPatternParams> pattern)
    : mode_(mode), n_(n), pattern_(std::move(pattern))
{
}

std::string
GatherMicro::name() const
{
    std::ostringstream os;
    os << (mode_ == Mode::kSpd ? "gather-spd" : "gather-full");
    if (pattern_) {
        os << "-rbh" << pattern_->rbhPercent
           << (pattern_->channelInterleave ? "-chi" : "")
           << (pattern_->bankGroupInterleave ? "-bgi" : "");
    }
    return os.str();
}

void
GatherMicro::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();

    std::vector<std::uint32_t> indices;
    if (pattern_) {
        indices = makeDramPattern(static_cast<std::uint32_t>(n_),
                                  *pattern_, sys.dram().addressMap(),
                                  1);
        std::uint32_t maxIdx = 0;
        for (auto v : indices)
            maxIdx = std::max(maxIdx, v);
        domain_ = maxIdx + 16;
    } else {
        indices.resize(n_);
        for (std::size_t i = 0; i < n_; ++i)
            indices[i] = static_cast<std::uint32_t>(i);
        domain_ = n_;
    }

    a_ = alloc.alloc(domain_ * 4);
    b_ = alloc.alloc(n_ * 4);
    c_ = alloc.alloc(n_ * 4);

    storeWords(mem, a_, domain_, fillValue);
    mem.writeBytes(b_, indices.data(), n_ * 4);

    registerAll(sys, a_, domain_ * 4);
    registerAll(sys, b_, n_ * 4);
    registerAll(sys, c_, n_ * 4);

    // The all-hit scenario warms all caches (paper §6.1); the all-miss
    // patterns must start cold.
    if (!pattern_) {
        sys.warmLlc(a_, domain_ * 4);
        sys.warmLlc(b_, n_ * 4);
        sys.warmLlc(c_, n_ * 4);
    }
}

namespace
{

class GatherBaseKernel : public LoopKernel
{
  public:
    GatherBaseKernel(SimMemory &mem, Addr a, Addr b, Addr c,
                     std::size_t begin, std::size_t end)
        : LoopKernel(begin, end), mem_(mem), a_(a), b_(b), c_(c)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto idx = mem_.read<std::uint32_t>(b_ + i * 4);
        const SeqNum ld = e.load(b_ + i * 4, 4, pc::kIndex, idx);
        const SeqNum calc = e.intOp(1, ld);
        const auto v = mem_.read<std::uint32_t>(a_ + Addr{idx} * 4);
        const SeqNum ld2 =
            e.load(a_ + Addr{idx} * 4, 4, pc::kTarget, v, calc);
        mem_.write<std::uint32_t>(c_ + i * 4, v);
        e.store(c_ + i * 4, 4, pc::kOut, ld2);
        e.intOp(); // loop increment + branch
    }

  private:
    SimMemory &mem_;
    Addr a_, b_, c_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
GatherMicro::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(n_, core, sys.cores());
    if (!dx100) {
        return std::make_unique<GatherBaseKernel>(sys.memory(), a_, b_,
                                                  c_, begin, end);
    }

    auto *rt = sys.runtimeFor(core);
    dx_assert(rt, "gather DX100 kernel needs a runtime");
    const std::uint32_t T = rt->tileElems();
    const int coreId = static_cast<int>(core);

    struct Bufs
    {
        unsigned idx[2];
        unsigned dat[2];
    };
    auto bufs = std::make_shared<Bufs>();
    for (int k = 0; k < 2; ++k) {
        bufs->idx[k] = rt->allocTile();
        bufs->dat[k] = rt->allocTile();
    }

    const Addr a = a_, b = b_, c = c_;
    if (mode_ == Mode::kFull) {
        auto emitTile = [rt, coreId, bufs, a, b, c](
                            cpu::OpEmitter &e, unsigned buf,
                            std::size_t tb, std::uint32_t cnt) {
            rt->sld(e, coreId, DataType::kU32, b, bufs->idx[buf], tb,
                    cnt);
            rt->ild(e, coreId, DataType::kU32, a, bufs->dat[buf],
                    bufs->idx[buf]);
            return rt->sst(e, coreId, DataType::kU32, c,
                           bufs->dat[buf], tb, cnt);
        };
        return std::make_unique<TiledDxKernel>(*rt, begin, end, T,
                                               emitTile);
    }

    // Gather-SPD: only the gather is offloaded; the core streams the
    // packed data out of the scratchpad and stores it itself.
    SimMemory *mem = &sys.memory();
    auto emitTile = [rt, coreId, bufs, a, b](cpu::OpEmitter &e,
                                             unsigned buf,
                                             std::size_t tb,
                                             std::uint32_t cnt) {
        rt->sld(e, coreId, DataType::kU32, b, bufs->idx[buf], tb, cnt);
        return rt->ild(e, coreId, DataType::kU32, a, bufs->dat[buf],
                       bufs->idx[buf]);
    };
    auto consume = [rt, bufs, c, mem](cpu::OpEmitter &e, unsigned buf,
                                      std::size_t tb,
                                      std::uint32_t cnt) {
        for (std::uint32_t k = 0; k < cnt; ++k) {
            const std::uint64_t v = rt->spdValue(bufs->dat[buf], k);
            const SeqNum ld =
                e.load(rt->spdAddr(bufs->dat[buf], k), 8, pc::kSpd, v);
            mem->write<std::uint32_t>(
                c + (tb + k) * 4, static_cast<std::uint32_t>(v));
            e.store(c + (tb + k) * 4, 4, pc::kOut, ld);
            e.intOp();
        }
    };
    return std::make_unique<TiledDxKernel>(*rt, begin, end, T, emitTile,
                                           consume);
}

bool
GatherMicro::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    for (std::size_t i = 0; i < n_; ++i) {
        const auto idx = mem.read<std::uint32_t>(b_ + i * 4);
        const auto expect = mem.read<std::uint32_t>(a_ + Addr{idx} * 4);
        if (mem.read<std::uint32_t>(c_ + i * 4) != expect)
            return false;
    }
    return true;
}

// =====================================================================
// RmwMicro: A[B[i]] += C[i]
// =====================================================================

RmwMicro::RmwMicro(std::size_t n, bool atomicBaseline)
    : n_(n), atomic_(atomicBaseline)
{
}

std::string
RmwMicro::name() const
{
    return atomic_ ? "rmw-atomic" : "rmw-noatom";
}

void
RmwMicro::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();
    domain_ = n_;

    a_ = alloc.alloc(domain_ * 4);
    b_ = alloc.alloc(n_ * 4);
    c_ = alloc.alloc(n_ * 4);
    storeWords(mem, a_, domain_,
               [](std::size_t i) { return fillValue(i) & 0xffff; });
    storeWords(mem, b_, n_, [](std::size_t i) {
        return static_cast<std::uint32_t>(i);
    });
    storeWords(mem, c_, n_, [](std::size_t i) {
        return static_cast<std::uint32_t>(i % 7 + 1);
    });
    registerAll(sys, a_, domain_ * 4);
    registerAll(sys, b_, n_ * 4);
    registerAll(sys, c_, n_ * 4);
    sys.warmLlc(a_, domain_ * 4);
    sys.warmLlc(b_, n_ * 4);
    sys.warmLlc(c_, n_ * 4);
}

namespace
{

class RmwBaseKernel : public LoopKernel
{
  public:
    RmwBaseKernel(SimMemory &mem, Addr a, Addr b, Addr c,
                  std::size_t begin, std::size_t end, bool atomic)
        : LoopKernel(begin, end), mem_(mem), a_(a), b_(b), c_(c),
          atomic_(atomic)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto idx = mem_.read<std::uint32_t>(b_ + i * 4);
        const auto val = mem_.read<std::uint32_t>(c_ + i * 4);
        const SeqNum li = e.load(b_ + i * 4, 4, pc::kIndex, idx);
        const SeqNum lv = e.load(c_ + i * 4, 4, pc::kValue, val);
        const SeqNum calc = e.intOp(1, li);

        const Addr target = a_ + Addr{idx} * 4;
        const auto old = mem_.read<std::uint32_t>(target);
        mem_.write<std::uint32_t>(target, old + val);

        if (atomic_) {
            e.rmw(target, 4, pc::kTarget, calc, lv);
        } else {
            const SeqNum lt =
                e.load(target, 4, pc::kTarget, old, calc);
            const SeqNum add = e.intOp(1, lt, lv);
            e.store(target, 4, pc::kTarget, add);
        }
        e.intOp();
    }

  private:
    SimMemory &mem_;
    Addr a_, b_, c_;
    bool atomic_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
RmwMicro::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(n_, core, sys.cores());
    if (!dx100) {
        return std::make_unique<RmwBaseKernel>(sys.memory(), a_, b_, c_,
                                               begin, end, atomic_);
    }

    auto *rt = sys.runtimeFor(core);
    dx_assert(rt, "rmw DX100 kernel needs a runtime");
    const std::uint32_t T = rt->tileElems();
    const int coreId = static_cast<int>(core);

    struct Bufs
    {
        unsigned idx[2];
        unsigned val[2];
    };
    auto bufs = std::make_shared<Bufs>();
    for (int k = 0; k < 2; ++k) {
        bufs->idx[k] = rt->allocTile();
        bufs->val[k] = rt->allocTile();
    }

    const Addr a = a_, b = b_, c = c_;
    auto emitTile = [rt, coreId, bufs, a, b, c](cpu::OpEmitter &e,
                                                unsigned buf,
                                                std::size_t tb,
                                                std::uint32_t cnt) {
        rt->sld(e, coreId, DataType::kU32, b, bufs->idx[buf], tb, cnt);
        rt->sld(e, coreId, DataType::kU32, c, bufs->val[buf], tb, cnt);
        return rt->irmw(e, coreId, DataType::kU32, runtime::AluOp::kAdd,
                        a, bufs->idx[buf], bufs->val[buf]);
    };
    return std::make_unique<TiledDxKernel>(*rt, begin, end, T,
                                           emitTile);
}

bool
RmwMicro::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    // Replay: expected A = initial fill + sum of C over matching B.
    std::vector<std::uint32_t> expect(domain_);
    for (std::size_t i = 0; i < domain_; ++i)
        expect[i] = fillValue(i) & 0xffff;
    for (std::size_t i = 0; i < n_; ++i) {
        const auto idx = mem.read<std::uint32_t>(b_ + i * 4);
        expect[idx] += mem.read<std::uint32_t>(c_ + i * 4);
    }
    for (std::size_t i = 0; i < domain_; ++i) {
        if (mem.read<std::uint32_t>(a_ + i * 4) != expect[i])
            return false;
    }
    return true;
}

// =====================================================================
// ScatterMicro: A[B[i]] = C[i], B a permutation
// =====================================================================

ScatterMicro::ScatterMicro(std::size_t n, bool streaming)
    : n_(n), streaming_(streaming)
{
}

std::string
ScatterMicro::name() const
{
    return "scatter";
}

void
ScatterMicro::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();

    a_ = alloc.alloc(n_ * 4);
    b_ = alloc.alloc(n_ * 4);
    c_ = alloc.alloc(n_ * 4);

    // Unique scatter targets: streaming (all-hit scenario) or a
    // Fisher-Yates permutation.
    Rng rng(99);
    std::vector<std::uint32_t> perm(n_);
    for (std::size_t i = 0; i < n_; ++i)
        perm[i] = static_cast<std::uint32_t>(i);
    if (!streaming_) {
        for (std::size_t i = n_ - 1; i > 0; --i)
            std::swap(perm[i], perm[rng.below(i + 1)]);
    }

    mem.writeBytes(b_, perm.data(), n_ * 4);
    storeWords(mem, c_, n_, fillValue);
    registerAll(sys, a_, n_ * 4);
    registerAll(sys, b_, n_ * 4);
    registerAll(sys, c_, n_ * 4);
    if (streaming_) {
        sys.warmLlc(a_, n_ * 4);
        sys.warmLlc(b_, n_ * 4);
        sys.warmLlc(c_, n_ * 4);
    }
}

namespace
{

class ScatterBaseKernel : public LoopKernel
{
  public:
    ScatterBaseKernel(SimMemory &mem, Addr a, Addr b, Addr c,
                      std::size_t begin, std::size_t end)
        : LoopKernel(begin, end), mem_(mem), a_(a), b_(b), c_(c)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto idx = mem_.read<std::uint32_t>(b_ + i * 4);
        const auto val = mem_.read<std::uint32_t>(c_ + i * 4);
        const SeqNum li = e.load(b_ + i * 4, 4, pc::kIndex, idx);
        const SeqNum lv = e.load(c_ + i * 4, 4, pc::kValue, val);
        const SeqNum calc = e.intOp(1, li);
        mem_.write<std::uint32_t>(a_ + Addr{idx} * 4, val);
        e.store(a_ + Addr{idx} * 4, 4, pc::kTarget, calc, lv);
        e.intOp();
    }

  private:
    SimMemory &mem_;
    Addr a_, b_, c_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
ScatterMicro::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(n_, core, sys.cores());
    if (!dx100) {
        return std::make_unique<ScatterBaseKernel>(sys.memory(), a_, b_,
                                                   c_, begin, end);
    }

    auto *rt = sys.runtimeFor(core);
    dx_assert(rt, "scatter DX100 kernel needs a runtime");
    const std::uint32_t T = rt->tileElems();
    const int coreId = static_cast<int>(core);

    struct Bufs
    {
        unsigned idx[2];
        unsigned val[2];
    };
    auto bufs = std::make_shared<Bufs>();
    for (int k = 0; k < 2; ++k) {
        bufs->idx[k] = rt->allocTile();
        bufs->val[k] = rt->allocTile();
    }

    const Addr a = a_, b = b_, c = c_;
    auto emitTile = [rt, coreId, bufs, a, b, c](cpu::OpEmitter &e,
                                                unsigned buf,
                                                std::size_t tb,
                                                std::uint32_t cnt) {
        rt->sld(e, coreId, DataType::kU32, b, bufs->idx[buf], tb, cnt);
        rt->sld(e, coreId, DataType::kU32, c, bufs->val[buf], tb, cnt);
        return rt->ist(e, coreId, DataType::kU32, a, bufs->idx[buf],
                       bufs->val[buf]);
    };
    return std::make_unique<TiledDxKernel>(*rt, begin, end, T,
                                           emitTile);
}

bool
ScatterMicro::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    for (std::size_t i = 0; i < n_; ++i) {
        const auto idx = mem.read<std::uint32_t>(b_ + i * 4);
        if (mem.read<std::uint32_t>(a_ + Addr{idx} * 4) !=
            mem.read<std::uint32_t>(c_ + i * 4)) {
            return false;
        }
    }
    return true;
}

} // namespace dx::wl
