#include "workloads/nas.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"
#include "workloads/kernels.hh"

namespace dx::wl
{

using runtime::AluOp;
using runtime::DataType;

// =====================================================================
// IS: A[K[i]] += 1
// =====================================================================

IntegerSort::IntegerSort(Scale s)
    : keys_(s.of(1 << 20)), buckets_(s.of(1 << 23))
{
}

void
IntegerSort::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();

    k_ = alloc.alloc(keys_ * 4);
    a_ = alloc.alloc(buckets_ * 4);
    Rng rng(2024);
    for (std::size_t i = 0; i < keys_; ++i) {
        mem.write<std::uint32_t>(
            k_ + i * 4, static_cast<std::uint32_t>(rng.below(buckets_)));
    }

    // Constant-1 value array for the DX100 IRMW source tile.
    const std::size_t T =
        sys.runtime(0) ? sys.runtime(0)->tileElems() : 16384;
    ones_ = alloc.alloc(T * 4);
    for (std::size_t i = 0; i < T; ++i)
        mem.write<std::uint32_t>(ones_ + i * 4, 1);

    registerAll(sys, k_, keys_ * 4);
    registerAll(sys, a_, buckets_ * 4);
    registerAll(sys, ones_, T * 4);

    // Prior ranking passes of the full IS touched the histogram.
    sys.warmLlc(a_, buckets_ * 4);
}

namespace
{

class IsBaseKernel : public LoopKernel
{
  public:
    IsBaseKernel(SimMemory &mem, Addr k, Addr a, std::size_t b,
                 std::size_t e)
        : LoopKernel(b, e), mem_(mem), k_(k), a_(a)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto key = mem_.read<std::uint32_t>(k_ + i * 4);
        const SeqNum lk = e.load(k_ + i * 4, 4, pc::kIndex, key);
        const SeqNum calc = e.intOp(1, lk);
        const Addr target = a_ + Addr{key} * 4;
        mem_.write<std::uint32_t>(
            target, mem_.read<std::uint32_t>(target) + 1);
        e.rmw(target, 4, pc::kTarget, calc);
        e.intOp();
    }

  private:
    SimMemory &mem_;
    Addr k_, a_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
IntegerSort::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(keys_, core, sys.cores());
    if (!dx100) {
        return std::make_unique<IsBaseKernel>(sys.memory(), k_, a_,
                                              begin, end);
    }

    auto *rt = sys.runtimeFor(core);
    const std::uint32_t T = rt->tileElems();
    const int coreId = static_cast<int>(core);

    struct State
    {
        unsigned idx[2];
        unsigned ones;
        bool onesLoaded = false;
    };
    auto st = std::make_shared<State>();
    st->idx[0] = rt->allocTile();
    st->idx[1] = rt->allocTile();
    st->ones = rt->allocTile();

    const Addr k = k_, a = a_, ones = ones_;
    auto emitTile = [rt, coreId, st, k, a, ones, T](
                        cpu::OpEmitter &e, unsigned buf,
                        std::size_t tb, std::uint32_t cnt) {
        if (!st->onesLoaded) {
            rt->sld(e, coreId, DataType::kU32, ones, st->ones, 0, T);
            st->onesLoaded = true;
        }
        rt->sld(e, coreId, DataType::kU32, k, st->idx[buf], tb, cnt);
        return rt->irmw(e, coreId, DataType::kU32, AluOp::kAdd, a,
                        st->idx[buf], st->ones);
    };
    return std::make_unique<TiledDxKernel>(*rt, begin, end, T,
                                           emitTile);
}

bool
IntegerSort::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    std::vector<std::uint32_t> expect(buckets_, 0);
    for (std::size_t i = 0; i < keys_; ++i)
        ++expect[mem.read<std::uint32_t>(k_ + i * 4)];
    for (std::size_t b = 0; b < buckets_; ++b) {
        if (mem.read<std::uint32_t>(a_ + b * 4) != expect[b])
            return false;
    }
    return true;
}

// =====================================================================
// CG: y = M * x (CSR SpMV)
// =====================================================================

ConjugateGradient::ConjugateGradient(Scale s)
{
    m_ = makeSparseMatrix(
        static_cast<std::uint32_t>(s.of(1 << 16)),
        static_cast<std::uint32_t>(s.of(1 << 20)), 15, 4242);
}

void
ConjugateGradient::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();

    rowPtr_ = alloc.alloc((m_.rows + 1) * 4);
    colIdx_ = alloc.alloc(m_.colIdx.size() * 4);
    vals_ = alloc.alloc(m_.values.size() * 8);
    x_ = alloc.alloc(m_.cols * 8);
    y_ = alloc.alloc(m_.rows * 8);

    for (std::size_t i = 0; i <= m_.rows; ++i)
        mem.write<std::uint32_t>(rowPtr_ + i * 4, m_.rowPtr[i]);
    for (std::size_t i = 0; i < m_.colIdx.size(); ++i) {
        mem.write<std::uint32_t>(colIdx_ + i * 4, m_.colIdx[i]);
        mem.write<double>(vals_ + i * 8, m_.values[i]);
    }
    Rng rng(77);
    for (std::size_t i = 0; i < m_.cols; ++i)
        mem.write<double>(x_ + i * 8, rng.real());

    registerAll(sys, colIdx_, m_.colIdx.size() * 4);
    registerAll(sys, x_, m_.cols * 8);

    // In the full solver, x was just produced by the preceding vector
    // update, so it enters the SpMV cache-resident (this is what makes
    // DX100's H-bit LLC path live; §3.6).
    sys.warmLlc(x_, m_.cols * 8);
}

namespace
{

/** Baseline SpMV: one matrix row per emitChunk. */
class CgBaseKernel : public LoopKernel
{
  public:
    CgBaseKernel(SimMemory &mem, const CsrMatrix &m, Addr rowPtr,
                 Addr colIdx, Addr vals, Addr x, Addr y, std::size_t b,
                 std::size_t e)
        : LoopKernel(b, e), mem_(mem), m_(m), rowPtr_(rowPtr),
          colIdx_(colIdx), vals_(vals), x_(x), y_(y)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t r) override
    {
        const SeqNum lr0 =
            e.load(rowPtr_ + r * 4, 4, pc::kAux, m_.rowPtr[r]);
        const SeqNum lr1 = e.load(rowPtr_ + (r + 1) * 4, 4, pc::kAux,
                                  m_.rowPtr[r + 1]);
        SeqNum sum = e.fpOp(4, lr0, lr1); // init accumulator

        double acc = 0.0;
        for (std::uint32_t j = m_.rowPtr[r]; j < m_.rowPtr[r + 1];
             ++j) {
            const std::uint32_t col = m_.colIdx[j];
            const SeqNum lc =
                e.load(colIdx_ + Addr{j} * 4, 4, pc::kIndex, col);
            const double v = m_.values[j];
            const SeqNum lv = e.load(vals_ + Addr{j} * 8, 8, pc::kValue);
            const SeqNum calc = e.intOp(1, lc);
            const double xv = mem_.read<double>(x_ + Addr{col} * 8);
            const SeqNum lx = e.load(x_ + Addr{col} * 8, 8, pc::kTarget,
                                     std::bit_cast<std::uint64_t>(xv),
                                     calc);
            const SeqNum mul = e.fpOp(4, lv, lx);
            sum = e.fpOp(4, mul, sum);
            acc += v * xv;
        }
        mem_.write<double>(y_ + r * 8, acc);
        e.store(y_ + r * 8, 8, pc::kOut, sum);
        e.intOp();
    }

  private:
    SimMemory &mem_;
    const CsrMatrix &m_;
    Addr rowPtr_, colIdx_, vals_, x_, y_;
};

/**
 * DX100 SpMV: the j-domain (nonzeros) is tiled; DX100 streams colIdx
 * and gathers x[col] into the scratchpad; the core streams vals[] and
 * the gathered tile, doing the multiply-accumulate and the row stores.
 */
class CgDxKernel : public cpu::Kernel
{
  public:
    CgDxKernel(runtime::Dx100Runtime &rt, int coreId, SimMemory &mem,
               const CsrMatrix &m, Addr colIdx, Addr vals, Addr x,
               Addr y, std::size_t rowBegin, std::size_t rowEnd)
        : rt_(rt), coreId_(coreId), mem_(mem), m_(m), colIdx_(colIdx),
          vals_(vals), x_(x), y_(y), row_(rowBegin), rowEnd_(rowEnd)
    {
        for (int k = 0; k < 2; ++k) {
            idxT_[k] = rt_.allocTile();
            datT_[k] = rt_.allocTile();
        }
        jPos_ = m_.rowPtr[rowBegin];
        jEnd_ = m_.rowPtr[rowEnd];
        tiled_ = std::make_unique<TiledDxKernel>(
            rt_, jPos_, jEnd_, rt_.tileElems(),
            [this](cpu::OpEmitter &e, unsigned buf, std::size_t tb,
                   std::uint32_t cnt) {
                rt_.sld(e, coreId_, DataType::kU32, colIdx_,
                        idxT_[buf], tb, cnt);
                return rt_.ild(e, coreId_, DataType::kF64, x_,
                               datT_[buf], idxT_[buf]);
            },
            [this](cpu::OpEmitter &e, unsigned buf, std::size_t tb,
                   std::uint32_t cnt) {
                consume(e, buf, tb, cnt);
            });
    }

    bool more() const override { return tiled_->more(); }

    void
    emitChunk(cpu::OpEmitter &e) override
    {
        tiled_->emitChunk(e);
    }

  private:
    void
    consume(cpu::OpEmitter &e, unsigned buf, std::size_t tb,
            std::uint32_t cnt)
    {
        for (std::uint32_t k = 0; k < cnt; ++k) {
            const std::size_t j = tb + k;
            // Advance row bookkeeping; close finished rows.
            while (row_ < rowEnd_ &&
                   j >= m_.rowPtr[row_ + 1]) {
                closeRow(e);
                ++row_;
            }
            const SeqNum lv =
                e.load(vals_ + Addr{j} * 8, 8, pc::kValue);
            const std::uint64_t xbits =
                rt_.spdValue(datT_[buf], k);
            const SeqNum lx = e.load(rt_.spdAddr(datT_[buf], k), 8,
                                     pc::kSpd, xbits);
            const SeqNum mul = e.fpOp(4, lv, lx);
            sumSeq_ = e.fpOp(4, mul, sumSeq_);
            acc_ += m_.values[j] * std::bit_cast<double>(xbits);
        }
        // Close rows fully consumed at the tile boundary.
        while (row_ < rowEnd_ && tb + cnt >= m_.rowPtr[row_ + 1]) {
            closeRow(e);
            ++row_;
        }
    }

    void
    closeRow(cpu::OpEmitter &e)
    {
        mem_.write<double>(y_ + Addr{row_} * 8, acc_);
        e.store(y_ + Addr{row_} * 8, 8, pc::kOut, sumSeq_);
        e.intOp();
        acc_ = 0.0;
        sumSeq_ = kNoSeq;
    }

    runtime::Dx100Runtime &rt_;
    int coreId_;
    SimMemory &mem_;
    const CsrMatrix &m_;
    Addr colIdx_, vals_, x_, y_;
    std::size_t row_, rowEnd_;
    std::size_t jPos_, jEnd_;
    unsigned idxT_[2], datT_[2];
    double acc_ = 0.0;
    SeqNum sumSeq_ = kNoSeq;
    std::unique_ptr<TiledDxKernel> tiled_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
ConjugateGradient::makeKernel(sim::System &sys, unsigned core,
                              bool dx100)
{
    const auto [begin, end] = coreSlice(m_.rows, core, sys.cores());
    if (!dx100) {
        return std::make_unique<CgBaseKernel>(sys.memory(), m_,
                                              rowPtr_, colIdx_, vals_,
                                              x_, y_, begin, end);
    }
    return std::make_unique<CgDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), sys.memory(),
        m_, colIdx_, vals_, x_, y_, begin, end);
}

bool
ConjugateGradient::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    for (std::uint32_t r = 0; r < m_.rows; ++r) {
        double acc = 0.0;
        for (std::uint32_t j = m_.rowPtr[r]; j < m_.rowPtr[r + 1]; ++j)
            acc += m_.values[j] *
                   mem.read<double>(x_ + Addr{m_.colIdx[j]} * 8);
        if (mem.read<double>(y_ + Addr{r} * 8) != acc)
            return false;
    }
    return true;
}

} // namespace dx::wl
