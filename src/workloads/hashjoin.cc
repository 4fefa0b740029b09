#include "workloads/hashjoin.hh"

#include <bit>

#include "common/logging.hh"
#include "workloads/kernels.hh"

namespace dx::wl
{

using runtime::AluOp;
using runtime::DataType;

// =====================================================================
// PRH
// =====================================================================

RadixPartition::RadixPartition(Scale s) : n_(s.of(1 << 22))
{
    keys_ = makeTupleKeys(static_cast<std::uint32_t>(n_), 333);
}

void
RadixPartition::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();
    const unsigned cores = sys.cores();
    const std::uint32_t parts = 1u << kRadixBits;
    const std::uint32_t mask = (parts - 1) << kShift;

    c_ = alloc.alloc(n_ * 4);
    out_ = alloc.alloc(n_ * 8); //!< 8-byte tuples (key + payload)
    dests_ = alloc.alloc(n_ * 4);
    for (std::size_t i = 0; i < n_; ++i)
        mem.write<std::uint32_t>(c_ + i * 4, keys_[i]);

    // Per-core histograms -> global partition layout: partition p is
    // contiguous, with core c's sub-range inside it.
    std::vector<std::vector<std::uint32_t>> hist(
        cores, std::vector<std::uint32_t>(parts, 0));
    for (unsigned c = 0; c < cores; ++c) {
        const auto [b, e] = coreSlice(n_, c, cores);
        for (std::size_t i = b; i < e; ++i)
            ++hist[c][(keys_[i] & mask) >> kShift];
    }
    coreBase_.assign(cores, std::vector<std::uint32_t>(parts, 0));
    std::uint32_t cursor = 0;
    for (std::uint32_t p = 0; p < parts; ++p) {
        for (unsigned c = 0; c < cores; ++c) {
            coreBase_[c][p] = cursor;
            cursor += hist[c][p];
        }
    }

    registerAll(sys, c_, n_ * 4);
    registerAll(sys, out_, n_ * 8);
    registerAll(sys, dests_, n_ * 4);

    // Earlier passes of the multi-pass radix join wrote the output.
    sys.warmLlc(out_, n_ * 8);
}

namespace
{

/** Shared cursor logic for both PRH variants. */
class PrhKernelBase : public LoopKernel
{
  public:
    PrhKernelBase(SimMemory &mem, Addr c, std::uint32_t mask,
                  std::vector<std::uint32_t> cursors, std::size_t bg,
                  std::size_t en)
        : LoopKernel(bg, en), mem_(mem), c_(c), mask_(mask),
          cursors_(std::move(cursors))
    {}

  protected:
    /** Emits key load + partition function + cursor update; returns
     *  the destination slot and the dependency for the final store. */
    std::pair<std::uint32_t, SeqNum>
    emitCursor(cpu::OpEmitter &e, std::size_t i)
    {
        const auto key = mem_.read<std::uint32_t>(c_ + i * 4);
        const SeqNum lk = e.load(c_ + i * 4, 4, pc::kIndex, key);
        const SeqNum fAnd = e.intOp(1, lk);
        const SeqNum fShr = e.intOp(1, fAnd);
        const std::uint32_t p =
            (key & mask_) >> RadixPartition::kShift;
        // Cursor array is hot in cache; model as a dependent ALU pair
        // (load+inc+store collapse to register traffic after warmup).
        const SeqNum cur = e.intOp(1, fShr);
        const SeqNum inc = e.intOp(1, cur);
        const std::uint32_t dest = cursors_[p]++;
        return {dest, inc};
    }

    SimMemory &mem_;
    Addr c_;
    std::uint32_t mask_;
    std::vector<std::uint32_t> cursors_;
};

class PrhBaseKernel : public PrhKernelBase
{
  public:
    PrhBaseKernel(SimMemory &mem, Addr c, Addr out, std::uint32_t mask,
                  std::vector<std::uint32_t> cursors, std::size_t bg,
                  std::size_t en)
        : PrhKernelBase(mem, c, mask, std::move(cursors), bg, en),
          out_(out)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto [dest, dep] = emitCursor(e, i);
        const auto key = mem_.read<std::uint32_t>(c_ + i * 4);
        mem_.write<std::uint64_t>(out_ + Addr{dest} * 8, key);
        e.store(out_ + Addr{dest} * 8, 8, pc::kTarget, dep);
        e.intOp();
    }

  private:
    Addr out_;
};

/**
 * DX100 PRH: the core streams destination slots into dests[]; DX100
 * then executes the scattered store as SLD(dests) + SLD(C) + IST(out).
 */
class PrhDxKernel : public cpu::Kernel
{
  public:
    PrhDxKernel(runtime::Dx100Runtime &rt, int coreId, SimMemory &mem,
                Addr c, Addr out, Addr dests, std::uint32_t mask,
                std::vector<std::uint32_t> cursors, std::size_t bg,
                std::size_t en)
        : rt_(rt), cursorPart_(mem, c, mask, std::move(cursors), bg,
                               en),
          mem_(mem), dests_(dests)
    {
        for (int k = 0; k < 2; ++k) {
            idxT_[k] = rt_.allocTile();
            valT_[k] = rt_.allocTile();
        }
        tiled_ = std::make_unique<TiledDxKernel>(
            rt_, bg, en, rt_.tileElems(),
            [this, coreId, c, out](cpu::OpEmitter &e, unsigned buf,
                                   std::size_t tb, std::uint32_t cnt) {
                for (std::uint32_t k = 0; k < cnt; ++k)
                    cursorPart_.emitOne(e, tb + k, dests_, mem_);
                rt_.sld(e, coreId, DataType::kU32, dests_, idxT_[buf],
                        tb, cnt);
                rt_.sld(e, coreId, DataType::kU32, c, valT_[buf], tb,
                        cnt);
                return rt_.ist(e, coreId, DataType::kU64, out,
                               idxT_[buf], valT_[buf]);
            });
    }

    bool more() const override { return tiled_->more(); }
    void emitChunk(cpu::OpEmitter &e) override { tiled_->emitChunk(e); }

  private:
    /** Adapter exposing the protected cursor emitter. */
    struct CursorPart : public PrhKernelBase
    {
        using PrhKernelBase::PrhKernelBase;

        void
        emitIteration(cpu::OpEmitter &, std::size_t) override
        {
            dx_panic("not driven as a kernel");
        }

        void
        emitOne(cpu::OpEmitter &e, std::size_t i, Addr dests,
                SimMemory &mem)
        {
            const auto [dest, dep] = emitCursor(e, i);
            mem.write<std::uint32_t>(dests + i * 4, dest);
            e.store(dests + i * 4, 4, pc::kAux, dep);
        }
    };

    runtime::Dx100Runtime &rt_;
    CursorPart cursorPart_;
    SimMemory &mem_;
    Addr dests_;
    unsigned idxT_[2], valT_[2];
    std::unique_ptr<TiledDxKernel> tiled_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
RadixPartition::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(n_, core, sys.cores());
    const std::uint32_t parts = 1u << kRadixBits;
    const std::uint32_t mask = (parts - 1) << kShift;
    if (!dx100) {
        return std::make_unique<PrhBaseKernel>(sys.memory(), c_, out_,
                                               mask, coreBase_[core],
                                               begin, end);
    }
    return std::make_unique<PrhDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), sys.memory(),
        c_, out_, dests_, mask, coreBase_[core], begin, end);
}

bool
RadixPartition::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    const std::uint32_t parts = 1u << kRadixBits;
    const std::uint32_t mask = (parts - 1) << kShift;
    const unsigned cores = sys.cores();

    auto cursors = coreBase_;
    for (unsigned c = 0; c < cores; ++c) {
        const auto [b, e] = coreSlice(n_, c, cores);
        for (std::size_t i = b; i < e; ++i) {
            const std::uint32_t p = (keys_[i] & mask) >> kShift;
            const std::uint32_t dest = cursors[c][p]++;
            if (mem.read<std::uint64_t>(out_ + Addr{dest} * 8) !=
                keys_[i]) {
                return false;
            }
        }
    }
    return true;
}

// =====================================================================
// PRO
// =====================================================================

BucketChainProbe::BucketChainProbe(Scale s)
    : nBuild_(s.of(1 << 21)), nProbe_(s.of(1 << 20))
{
    buckets_ = std::bit_ceil(nBuild_ * 2);
    buildKeys_ = makeTupleKeys(static_cast<std::uint32_t>(nBuild_),
                               444);
    Rng rng(445);
    probeKeys_.resize(nProbe_);
    for (auto &k : probeKeys_) {
        // Foreign-key join: probe keys reference the build relation.
        k = buildKeys_[rng.below(nBuild_)];
    }

    // Host-side chain build (loop-carried; see header comment).
    head_.assign(buckets_, 0);
    next_.assign(nBuild_, 0);
    std::vector<unsigned> chainLen(buckets_, 0);
    for (std::size_t i = 0; i < nBuild_; ++i) {
        const std::uint32_t h = hashOf(buildKeys_[i]);
        next_[i] = head_[h];
        head_[h] = static_cast<std::uint32_t>(i) + 1;
        maxChain_ = std::max(maxChain_, ++chainLen[h]);
    }
    dx_assert(maxChain_ <= 16, "pathological chain length");
}

std::uint32_t
BucketChainProbe::hashOf(std::uint32_t key) const
{
    return key & static_cast<std::uint32_t>(buckets_ - 1);
}

void
BucketChainProbe::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();

    cProbe_ = alloc.alloc(nProbe_ * 4);
    headA_ = alloc.alloc(buckets_ * 4);
    nextA_ = alloc.alloc(nBuild_ * 4);
    keysA_ = alloc.alloc(nBuild_ * 4);
    out_ = alloc.alloc(nProbe_ * 4);

    for (std::size_t i = 0; i < nProbe_; ++i)
        mem.write<std::uint32_t>(cProbe_ + i * 4, probeKeys_[i]);
    for (std::size_t b = 0; b < buckets_; ++b)
        mem.write<std::uint32_t>(headA_ + b * 4, head_[b]);
    for (std::size_t i = 0; i < nBuild_; ++i) {
        mem.write<std::uint32_t>(nextA_ + i * 4, next_[i]);
        mem.write<std::uint32_t>(keysA_ + i * 4, buildKeys_[i]);
    }

    registerAll(sys, cProbe_, nProbe_ * 4);
    registerAll(sys, headA_, buckets_ * 4);
    registerAll(sys, nextA_, nBuild_ * 4);
    registerAll(sys, keysA_, nBuild_ * 4);
    registerAll(sys, out_, nProbe_ * 4);

    // The build phase just wrote the hash table through the cores.
    sys.warmLlc(headA_, buckets_ * 4);
}

namespace
{

class ProBaseKernel : public LoopKernel
{
  public:
    ProBaseKernel(SimMemory &mem, Addr c, Addr head, Addr next,
                  Addr keys, Addr out, std::uint64_t bucketMask,
                  std::size_t bg, std::size_t en)
        : LoopKernel(bg, en), mem_(mem), c_(c), head_(head),
          next_(next), keys_(keys), out_(out), bucketMask_(bucketMask)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const auto key = mem_.read<std::uint32_t>(c_ + i * 4);
        const SeqNum lk = e.load(c_ + i * 4, 4, pc::kIndex, key);
        const SeqNum hOp = e.intOp(1, lk);
        const std::uint32_t h =
            key & static_cast<std::uint32_t>(bucketMask_);

        std::uint32_t cur =
            mem_.read<std::uint32_t>(head_ + Addr{h} * 4);
        SeqNum lc =
            e.load(head_ + Addr{h} * 4, 4, pc::kTarget, cur, hOp);
        std::uint32_t matches = 0;
        while (cur != 0) {
            const Addr slot = Addr{cur - 1} * 4;
            const auto bk =
                mem_.read<std::uint32_t>(keys_ + slot);
            const SeqNum lkey = e.load(keys_ + slot, 4, pc::kSpd, bk,
                                       lc);
            e.intOp(1, lkey); // compare
            if (bk == key)
                ++matches;
            cur = mem_.read<std::uint32_t>(next_ + slot);
            lc = e.load(next_ + slot, 4, pc::kValue, cur, lc);
        }
        mem_.write<std::uint32_t>(out_ + i * 4, matches);
        e.store(out_ + i * 4, 4, pc::kOut, lc);
        e.intOp();
    }

  private:
    SimMemory &mem_;
    Addr c_, head_, next_, keys_, out_;
    std::uint64_t bucketMask_;
};

/** DX100 PRO: bulk chain traversal with unrolled conditional ILDs. */
class ProDxKernel : public cpu::Kernel
{
  public:
    ProDxKernel(runtime::Dx100Runtime &rt, int coreId, Addr c,
                Addr head, Addr next, Addr keys, Addr out,
                std::uint64_t bucketMask, unsigned maxChain,
                std::size_t bg, std::size_t en)
        : rt_(rt)
    {
        tC_ = rt_.allocTile();
        tIdx_ = rt_.allocTile();
        tCur_ = rt_.allocTile();
        tAlive_ = rt_.allocTile();
        tKey_ = rt_.allocTile();
        tEq_ = rt_.allocTile();
        tAcc_ = rt_.allocTile();

        tiled_ = std::make_unique<TiledDxKernel>(
            rt_, bg, en, rt_.tileElems(),
            [this, coreId, c, head, next, keys, out, bucketMask,
             maxChain](cpu::OpEmitter &e, unsigned, std::size_t tb,
                       std::uint32_t cnt) {
                rt_.sld(e, coreId, DataType::kU32, c, tC_, tb, cnt);
                // h = key & (buckets-1); cur = head[h] (idx+1, 0=end)
                rt_.alus(e, coreId, DataType::kU32, AluOp::kAnd,
                         tCur_, tC_, bucketMask);
                rt_.ild(e, coreId, DataType::kU32, head, tCur_,
                        tCur_);
                // acc = 0
                rt_.alus(e, coreId, DataType::kU32, AluOp::kMul,
                         tAcc_, tC_, 0);
                for (unsigned r = 0; r < maxChain; ++r) {
                    // The runtime mirror knows the live lanes: stop
                    // unrolling once every chain has terminated.
                    bool anyAlive = false;
                    for (std::uint32_t k = 0; k < cnt; ++k) {
                        if (rt_.spdValue(tCur_, k) != 0) {
                            anyAlive = true;
                            break;
                        }
                    }
                    if (!anyAlive)
                        break;
                    rt_.alus(e, coreId, DataType::kU32, AluOp::kGt,
                             tAlive_, tCur_, 0);
                    rt_.alus(e, coreId, DataType::kU32, AluOp::kSub,
                             tIdx_, tCur_, 1, tAlive_);
                    rt_.ild(e, coreId, DataType::kU32, keys, tKey_,
                            tIdx_, tAlive_);
                    rt_.aluv(e, coreId, DataType::kU32, AluOp::kEq,
                             tEq_, tKey_, tC_, tAlive_);
                    rt_.aluv(e, coreId, DataType::kU32, AluOp::kAdd,
                             tAcc_, tAcc_, tEq_);
                    rt_.ild(e, coreId, DataType::kU32, next, tCur_,
                            tIdx_, tAlive_);
                }
                return rt_.sst(e, coreId, DataType::kU32, out, tAcc_,
                               tb, cnt);
            },
            TiledDxKernel::ConsumeTileFn{}, /*buffers=*/1);
    }

    bool more() const override { return tiled_->more(); }
    void emitChunk(cpu::OpEmitter &e) override { tiled_->emitChunk(e); }

  private:
    runtime::Dx100Runtime &rt_;
    unsigned tC_, tIdx_, tCur_, tAlive_, tKey_, tEq_, tAcc_;
    std::unique_ptr<TiledDxKernel> tiled_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
BucketChainProbe::makeKernel(sim::System &sys, unsigned core,
                             bool dx100)
{
    const auto [begin, end] = coreSlice(nProbe_, core, sys.cores());
    const std::uint64_t mask = buckets_ - 1;
    if (!dx100) {
        return std::make_unique<ProBaseKernel>(sys.memory(), cProbe_,
                                               headA_, nextA_, keysA_,
                                               out_, mask, begin, end);
    }
    return std::make_unique<ProDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), cProbe_, headA_,
        nextA_, keysA_, out_, mask, maxChain_, begin, end);
}

bool
BucketChainProbe::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    for (std::size_t i = 0; i < nProbe_; ++i) {
        std::uint32_t expect = 0;
        std::uint32_t cur = head_[hashOf(probeKeys_[i])];
        while (cur != 0) {
            if (buildKeys_[cur - 1] == probeKeys_[i])
                ++expect;
            cur = next_[cur - 1];
        }
        if (mem.read<std::uint32_t>(out_ + i * 4) != expect)
            return false;
    }
    return true;
}

} // namespace dx::wl
