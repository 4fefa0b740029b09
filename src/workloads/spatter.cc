#include "workloads/spatter.hh"

#include "common/logging.hh"
#include "workloads/kernels.hh"

namespace dx::wl
{

using runtime::DataType;

namespace
{

/**
 * Stored value is a pure function of the target index, so duplicate
 * scatter targets are write-idempotent: any execution order (or any
 * winner among racing cores) produces the same final memory.
 */
std::uint32_t
valueFor(std::uint32_t target)
{
    return target * 2246822519u + 374761393u;
}

} // namespace

SpatterXrage::SpatterXrage(Scale s)
    : n_(s.of(1 << 20)), domain_(s.of(1 << 24))
{
    pattern_ = makeXragePattern(static_cast<std::uint32_t>(n_),
                                static_cast<std::uint32_t>(domain_),
                                777);
}

void
SpatterXrage::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();

    a_ = alloc.alloc(domain_ * 4);
    b_ = alloc.alloc(n_ * 4);
    v_ = alloc.alloc(n_ * 4);
    for (std::size_t i = 0; i < n_; ++i) {
        mem.write<std::uint32_t>(b_ + i * 4, pattern_[i]);
        mem.write<std::uint32_t>(v_ + i * 4, valueFor(pattern_[i]));
    }

    registerAll(sys, a_, domain_ * 4);
    registerAll(sys, b_, n_ * 4);
    registerAll(sys, v_, n_ * 4);

    // The previous timestep's sweep wrote the target field.
    sys.warmLlc(a_, domain_ * 4);
}

namespace
{

class SpatterBaseKernel : public LoopKernel
{
  public:
    SpatterBaseKernel(SimMemory &mem, Addr a, Addr b, Addr v,
                      std::size_t bg, std::size_t en)
        : LoopKernel(bg, en), mem_(mem), a_(a), b_(b), v_(v)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto idx = mem_.read<std::uint32_t>(b_ + i * 4);
        const auto val = mem_.read<std::uint32_t>(v_ + i * 4);
        const SeqNum li = e.load(b_ + i * 4, 4, pc::kIndex, idx);
        const SeqNum lv = e.load(v_ + i * 4, 4, pc::kValue, val);
        const SeqNum calc = e.intOp(1, li);
        mem_.write<std::uint32_t>(a_ + Addr{idx} * 4, val);
        e.store(a_ + Addr{idx} * 4, 4, pc::kTarget, calc, lv);
        e.intOp();
    }

  private:
    SimMemory &mem_;
    Addr a_, b_, v_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
SpatterXrage::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(n_, core, sys.cores());
    if (!dx100) {
        return std::make_unique<SpatterBaseKernel>(sys.memory(), a_,
                                                   b_, v_, begin, end);
    }

    auto *rt = sys.runtimeFor(core);
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

    const Addr a = a_, b = b_, v = v_;
    auto emitTile = [rt, coreId, bufs, a, b, v](cpu::OpEmitter &e,
                                                unsigned buf,
                                                std::size_t tb,
                                                std::uint32_t cnt) {
        rt->sld(e, coreId, DataType::kU32, b, bufs->idx[buf], tb, cnt);
        rt->sld(e, coreId, DataType::kU32, v, bufs->val[buf], tb, cnt);
        return rt->ist(e, coreId, DataType::kU32, a, bufs->idx[buf],
                       bufs->val[buf]);
    };
    return std::make_unique<TiledDxKernel>(*rt, begin, end, T,
                                           emitTile);
}

bool
SpatterXrage::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    for (std::size_t i = 0; i < n_; ++i) {
        const std::uint32_t t = pattern_[i];
        if (mem.read<std::uint32_t>(a_ + Addr{t} * 4) != valueFor(t))
            return false;
    }
    return true;
}

} // namespace dx::wl
