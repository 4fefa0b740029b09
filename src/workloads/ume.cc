#include "workloads/ume.hh"

#include <bit>

#include "common/logging.hh"
#include "workloads/kernels.hh"

namespace dx::wl
{

using runtime::AluOp;
using runtime::DataType;

namespace
{

constexpr unsigned kNone = runtime::Dx100Runtime::kNone;

} // namespace

// =====================================================================
// GZZ / GZP: A[B[i]] += val[i] if D[i] >= F
// =====================================================================

UmeGradient::UmeGradient(Variant v, Scale s)
    : variant_(v), n_(s.of(1 << 20))
{
    // Zone- and point-centred maps differ in spread (average index
    // distance) and seed; paper reports ~85K average distance at 2M.
    const auto spread = static_cast<std::uint32_t>(
        variant_ == Variant::kZone ? n_ / 24 : n_ / 12);
    map_ = makeMeshMap(static_cast<std::uint32_t>(n_), spread,
                       variant_ == Variant::kZone ? 31 : 37);
}

void
UmeGradient::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();

    a_ = alloc.alloc(n_ * 8);
    b_ = alloc.alloc(n_ * 4);
    d_ = alloc.alloc(n_ * 8);
    val_ = alloc.alloc(n_ * 8);

    Rng rng(variant_ == Variant::kZone ? 5150 : 5151);
    for (std::size_t i = 0; i < n_; ++i) {
        mem.write<std::uint32_t>(b_ + i * 4, map_[i]);
        mem.write<double>(d_ + i * 8, rng.real());
        // Integer-valued doubles keep the scattered accumulation
        // exact under any add order (f64 adds of small ints are
        // associative).
        mem.write<double>(val_ + i * 8,
                          static_cast<double>(rng.below(16) + 1));
        mem.write<double>(a_ + i * 8,
                          static_cast<double>(rng.below(4)));
    }

    registerAll(sys, a_, n_ * 8);
    registerAll(sys, b_, n_ * 4);
    registerAll(sys, d_, n_ * 8);
    registerAll(sys, val_, n_ * 8);

    // The gradient accumulators were zeroed by the cores this step.
    sys.warmLlc(a_, n_ * 8);
}

namespace
{

class UmeBaseKernel : public LoopKernel
{
  public:
    UmeBaseKernel(SimMemory &mem, Addr a, Addr b, Addr d, Addr val,
                  double thr, std::size_t bg, std::size_t en)
        : LoopKernel(bg, en), mem_(mem), a_(a), b_(b), d_(d),
          val_(val), thr_(thr)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const double d = mem_.read<double>(d_ + i * 8);
        const SeqNum ld = e.load(d_ + i * 8, 8, pc::kAux,
                                 std::bit_cast<std::uint64_t>(d));
        const SeqNum cmp = e.fpOp(3, ld); // compare + branch resolve
        e.intOp(1, cmp);
        if (d >= thr_) {
            const auto idx = mem_.read<std::uint32_t>(b_ + i * 4);
            const SeqNum li = e.load(b_ + i * 4, 4, pc::kIndex, idx);
            const SeqNum lv = e.load(val_ + i * 8, 8, pc::kValue);
            const SeqNum calc = e.intOp(1, li);
            const Addr target = a_ + Addr{idx} * 8;
            mem_.write<double>(target,
                               mem_.read<double>(target) +
                                   mem_.read<double>(val_ + i * 8));
            e.rmw(target, 8, pc::kTarget, calc, lv);
        }
        e.intOp();
    }

  private:
    SimMemory &mem_;
    Addr a_, b_, d_, val_;
    double thr_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
UmeGradient::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(n_, core, sys.cores());
    if (!dx100) {
        return std::make_unique<UmeBaseKernel>(sys.memory(), a_, b_,
                                               d_, val_, threshold_,
                                               begin, end);
    }

    auto *rt = sys.runtimeFor(core);
    const std::uint32_t T = rt->tileElems();
    const int coreId = static_cast<int>(core);

    struct Bufs
    {
        unsigned idx[2];
        unsigned val[2];
        unsigned cond[2];
    };
    auto bufs = std::make_shared<Bufs>();
    for (int k = 0; k < 2; ++k) {
        bufs->idx[k] = rt->allocTile();
        bufs->val[k] = rt->allocTile();
        bufs->cond[k] = rt->allocTile();
    }

    const Addr a = a_, b = b_, d = d_, val = val_;
    const std::uint64_t thr = std::bit_cast<std::uint64_t>(threshold_);
    auto emitTile = [rt, coreId, bufs, a, b, d, val, thr](
                        cpu::OpEmitter &e, unsigned buf,
                        std::size_t tb, std::uint32_t cnt) {
        // cond = (D[i] >= F)
        rt->sld(e, coreId, DataType::kF64, d, bufs->cond[buf], tb, cnt);
        rt->alus(e, coreId, DataType::kF64, AluOp::kGe,
                 bufs->cond[buf], bufs->cond[buf], thr);
        rt->sld(e, coreId, DataType::kU32, b, bufs->idx[buf], tb, cnt);
        rt->sld(e, coreId, DataType::kF64, val, bufs->val[buf], tb,
                cnt);
        return rt->irmw(e, coreId, DataType::kF64, AluOp::kAdd, a,
                        bufs->idx[buf], bufs->val[buf],
                        bufs->cond[buf]);
    };
    return std::make_unique<TiledDxKernel>(*rt, begin, end, T,
                                           emitTile);
}

bool
UmeGradient::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    // Recompute from scratch: expected A = init + conditional adds.
    Rng rng(variant_ == Variant::kZone ? 5150 : 5151);
    std::vector<double> expect(n_);
    std::vector<double> dval(n_), vval(n_);
    for (std::size_t i = 0; i < n_; ++i) {
        dval[i] = rng.real();
        vval[i] = static_cast<double>(rng.below(16) + 1);
        expect[i] = static_cast<double>(rng.below(4));
    }
    for (std::size_t i = 0; i < n_; ++i) {
        if (dval[i] >= threshold_)
            expect[map_[i]] += vval[i];
    }
    for (std::size_t i = 0; i < n_; ++i) {
        if (mem.read<double>(a_ + i * 8) != expect[i])
            return false;
    }
    return true;
}

// =====================================================================
// GZZI / GZPI: out[z] = sum_j A[B[C[j]]] if D[j] >= F,
//              j in H[K[i]] .. H[K[i]+1]
// =====================================================================

UmeGradientIndirect::UmeGradientIndirect(Variant v, Scale s)
    : variant_(v), outer_(s.of(1 << 17))
{
    const std::uint64_t seed = variant_ == Variant::kZone ? 61 : 67;
    ranges_ = makeMeshRanges(static_cast<std::uint32_t>(outer_), 4, 8,
                             seed);
    const std::uint32_t inner = ranges_.innerTotal;
    cmap_ = makeMeshMap(inner, inner / 16, seed + 1);
    bmap_ = makeMeshMap(inner, inner / 24, seed + 2);
}

void
UmeGradientIndirect::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();
    const std::uint32_t inner = ranges_.innerTotal;

    a_ = alloc.alloc(Addr{inner} * 8);
    b_ = alloc.alloc(Addr{inner} * 4);
    c_ = alloc.alloc(Addr{inner} * 4);
    d_ = alloc.alloc(Addr{inner} * 8);
    lo_ = alloc.alloc((outer_ + 1) * 4); //!< H array
    hi_ = alloc.alloc(outer_ * 4);       //!< K array (shuffled ids)
    out_ = alloc.alloc(outer_ * 8);

    Rng rng(variant_ == Variant::kZone ? 808 : 809);
    for (std::uint32_t j = 0; j < inner; ++j) {
        mem.write<double>(a_ + Addr{j} * 8, rng.real());
        mem.write<std::uint32_t>(b_ + Addr{j} * 4, bmap_[j]);
        mem.write<std::uint32_t>(c_ + Addr{j} * 4, cmap_[j]);
        mem.write<double>(d_ + Addr{j} * 8, rng.real());
    }
    for (std::size_t i = 0; i < outer_; ++i)
        mem.write<std::uint32_t>(lo_ + i * 4, ranges_.lo[i]);
    mem.write<std::uint32_t>(lo_ + outer_ * 4, ranges_.hi.back());

    // K: a shuffled traversal order over the outer entities.
    std::vector<std::uint32_t> karr(outer_);
    for (std::size_t i = 0; i < outer_; ++i)
        karr[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = outer_ - 1; i > 0; --i)
        std::swap(karr[i], karr[rng.below(i + 1)]);
    for (std::size_t i = 0; i < outer_; ++i)
        mem.write<std::uint32_t>(hi_ + i * 4, karr[i]);

    registerAll(sys, a_, Addr{inner} * 8);
    registerAll(sys, b_, Addr{inner} * 4);
    registerAll(sys, c_, Addr{inner} * 4);
    registerAll(sys, d_, Addr{inner} * 8);
    registerAll(sys, lo_, (outer_ + 1) * 4);
    registerAll(sys, hi_, outer_ * 4);

    // The gathered field and corner mask were produced by the
    // preceding phase.
    sys.warmLlc(a_, Addr{inner} * 8);
    sys.warmLlc(d_, Addr{inner} * 8);
}

namespace
{

class UmeIndirectBaseKernel : public LoopKernel
{
  public:
    UmeIndirectBaseKernel(SimMemory &mem, Addr a, Addr b, Addr c,
                          Addr d, Addr h, Addr k, Addr out, double thr,
                          std::size_t bg, std::size_t en)
        : LoopKernel(bg, en), mem_(mem), a_(a), b_(b), c_(c), d_(d),
          h_(h), k_(k), out_(out), thr_(thr)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto z = mem_.read<std::uint32_t>(k_ + i * 4);
        const SeqNum lk = e.load(k_ + i * 4, 4, pc::kAux, z);
        const auto jb = mem_.read<std::uint32_t>(h_ + Addr{z} * 4);
        const auto je = mem_.read<std::uint32_t>(h_ + Addr{z} * 4 + 4);
        const SeqNum llo =
            e.load(h_ + Addr{z} * 4, 4, pc::kAux, jb, lk);
        const SeqNum lhi =
            e.load(h_ + Addr{z} * 4 + 4, 4, pc::kAux, je, lk);

        SeqNum sum = e.fpOp(1, llo, lhi);
        double acc = 0.0;
        for (std::uint32_t j = jb; j < je; ++j) {
            const double dv = mem_.read<double>(d_ + Addr{j} * 8);
            const SeqNum ld = e.load(d_ + Addr{j} * 8, 8, pc::kValue,
                                     std::bit_cast<std::uint64_t>(dv));
            e.fpOp(3, ld); // compare
            if (dv < thr_)
                continue;
            const auto cv = mem_.read<std::uint32_t>(c_ + Addr{j} * 4);
            const SeqNum lc =
                e.load(c_ + Addr{j} * 4, 4, pc::kIndex, cv);
            const SeqNum calc1 = e.intOp(1, lc);
            const auto bv =
                mem_.read<std::uint32_t>(b_ + Addr{cv} * 4);
            const SeqNum lb =
                e.load(b_ + Addr{cv} * 4, 4, pc::kTarget, bv, calc1);
            const SeqNum calc2 = e.intOp(1, lb);
            const double av = mem_.read<double>(a_ + Addr{bv} * 8);
            const SeqNum la = e.load(a_ + Addr{bv} * 8, 8, pc::kSpd,
                                     std::bit_cast<std::uint64_t>(av),
                                     calc2);
            sum = e.fpOp(4, la, sum);
            acc += av;
        }
        mem_.write<double>(out_ + i * 8, acc);
        e.store(out_ + i * 8, 8, pc::kOut, sum);
        e.intOp();
    }

  private:
    SimMemory &mem_;
    Addr a_, b_, c_, d_, h_, k_, out_;
    double thr_;
};

/**
 * DX100 variant: ILD the range bounds through K, fuse ranges with RNG,
 * gather D (condition), C, B[C] and A[B[C]] with conditioned chained
 * ILDs, then reduce per-outer sums on the core from the scratchpad.
 */
class UmeIndirectDxKernel : public cpu::Kernel
{
  public:
    UmeIndirectDxKernel(runtime::Dx100Runtime &rt, int coreId,
                        SimMemory &mem, Addr a, Addr b, Addr c, Addr d,
                        Addr h, Addr k, Addr out, double thr,
                        std::size_t bg, std::size_t en)
        : rt_(rt), coreId_(coreId), mem_(mem), a_(a), b_(b), c_(c),
          d_(d), h_(h), k_(k), out_(out), thr_(thr), pos_(bg),
          end_(en)
    {
        tK_ = rt_.allocTile();
        tLo_ = rt_.allocTile();
        tHi_ = rt_.allocTile();
        tO_ = rt_.allocTile();
        tJ_ = rt_.allocTile();
        tCond_ = rt_.allocTile();
        tDat_ = rt_.allocTile();
    }

    bool more() const override { return pos_ < end_; }

    void
    emitChunk(cpu::OpEmitter &e) override
    {
        if (chunkLeft_ == 0) {
            // New outer chunk: load K, bounds lo/hi via indirection.
            chunkBegin_ = pos_;
            chunkCount_ = static_cast<std::uint32_t>(
                std::min<std::size_t>(rt_.tileElems() / 2,
                                      end_ - pos_));
            rt_.sld(e, coreId_, DataType::kU32, k_, tK_, chunkBegin_,
                    chunkCount_);
            rt_.ild(e, coreId_, DataType::kU32, h_, tLo_, tK_);
            rt_.alus(e, coreId_, DataType::kU32, AluOp::kAdd, tK_, tK_,
                     1);
            rt_.ild(e, coreId_, DataType::kU32, h_, tHi_, tK_);
            chunkConsumed_ = 0;
            chunkLeft_ = chunkCount_;
        }

        // One RNG batch over the remaining ranges of this chunk.
        std::uint32_t consumed = 0;
        rt_.rng(e, coreId_, tO_, tJ_, tLo_, tHi_, chunkConsumed_,
                &consumed);
        dx_assert(consumed > 0, "range longer than a tile");

        // cond = (D[j] >= F); then gather C, B[C], A[B[C]].
        rt_.ild(e, coreId_, DataType::kF64, d_, tCond_, tJ_);
        rt_.alus(e, coreId_, DataType::kF64, AluOp::kGe, tCond_,
                 tCond_, std::bit_cast<std::uint64_t>(thr_));
        rt_.ild(e, coreId_, DataType::kU32, c_, tDat_, tJ_, tCond_);
        rt_.ild(e, coreId_, DataType::kU32, b_, tDat_, tDat_, tCond_);
        const std::uint64_t tok = rt_.ild(e, coreId_, DataType::kF64,
                                          a_, tDat_, tDat_, tCond_);
        rt_.wait(e, tok);

        // Core-side reduction per outer entity.
        const std::uint32_t outN = rt_.tileSize(tDat_);
        SeqNum sum = kNoSeq;
        double acc = 0.0;
        std::uint64_t curOuter = ~std::uint64_t{0};
        auto flush = [&](cpu::OpEmitter &em) {
            if (curOuter == ~std::uint64_t{0})
                return;
            const Addr outAddr =
                out_ + (chunkBegin_ + curOuter) * 8;
            mem_.write<double>(outAddr, acc);
            em.store(outAddr, 8, pc::kOut, sum);
            em.intOp();
            acc = 0.0;
            sum = kNoSeq;
        };
        for (std::uint32_t x = 0; x < outN; ++x) {
            const std::uint64_t o = rt_.spdValue(tO_, x);
            if (o != curOuter) {
                flush(e);
                curOuter = o;
            }
            const SeqNum lo2 =
                e.load(rt_.spdAddr(tO_, x), 8, pc::kSpd, o);
            if (rt_.spdValue(tCond_, x)) {
                const std::uint64_t av = rt_.spdValue(tDat_, x);
                const SeqNum la = e.load(rt_.spdAddr(tDat_, x), 8,
                                         pc::kSpd, av, lo2);
                sum = e.fpOp(4, la, sum);
                acc += std::bit_cast<double>(av);
            }
        }
        flush(e);

        chunkConsumed_ += consumed;
        chunkLeft_ -= consumed;
        pos_ += consumed;
    }

  private:
    runtime::Dx100Runtime &rt_;
    int coreId_;
    SimMemory &mem_;
    Addr a_, b_, c_, d_, h_, k_, out_;
    double thr_;
    std::size_t pos_, end_;
    std::size_t chunkBegin_ = 0;
    std::uint32_t chunkCount_ = 0;
    std::uint32_t chunkConsumed_ = 0;
    std::uint32_t chunkLeft_ = 0;
    unsigned tK_, tLo_, tHi_, tO_, tJ_, tCond_, tDat_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
UmeGradientIndirect::makeKernel(sim::System &sys, unsigned core,
                                bool dx100)
{
    const auto [begin, end] = coreSlice(outer_, core, sys.cores());
    if (!dx100) {
        return std::make_unique<UmeIndirectBaseKernel>(
            sys.memory(), a_, b_, c_, d_, lo_, hi_, out_, threshold_,
            begin, end);
    }
    return std::make_unique<UmeIndirectDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), sys.memory(),
        a_, b_, c_, d_, lo_, hi_, out_, threshold_, begin, end);
}

bool
UmeGradientIndirect::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    for (std::size_t i = 0; i < outer_; ++i) {
        const auto z = mem.read<std::uint32_t>(hi_ + i * 4);
        double acc = 0.0;
        for (std::uint32_t j = ranges_.lo[z]; j < ranges_.hi[z]; ++j) {
            if (mem.read<double>(d_ + Addr{j} * 8) >= threshold_) {
                const auto cv =
                    mem.read<std::uint32_t>(c_ + Addr{j} * 4);
                const auto bv =
                    mem.read<std::uint32_t>(b_ + Addr{cv} * 4);
                acc += mem.read<double>(a_ + Addr{bv} * 8);
            }
        }
        if (mem.read<double>(out_ + i * 8) != acc)
            return false;
    }
    return true;
}

} // namespace dx::wl
