#include "workloads/gap.hh"

#include <deque>

#include "common/logging.hh"
#include "workloads/kernels.hh"

namespace dx::wl
{

using runtime::AluOp;
using runtime::DataType;

namespace
{

/** Host BFS computing depths from vertex 0. */
std::vector<std::uint32_t>
hostBfs(const CsrGraph &g)
{
    constexpr std::uint32_t kUnset = ~std::uint32_t{0};
    std::vector<std::uint32_t> depth(g.nodes, kUnset);
    std::deque<std::uint32_t> queue;
    depth[0] = 0;
    queue.push_back(0);
    while (!queue.empty()) {
        const std::uint32_t v = queue.front();
        queue.pop_front();
        for (std::uint32_t j = g.rowPtr[v]; j < g.rowPtr[v + 1]; ++j) {
            const std::uint32_t w = g.col[j];
            if (depth[w] == kUnset) {
                depth[w] = depth[v] + 1;
                queue.push_back(w);
            }
        }
    }
    return depth;
}

constexpr std::uint32_t kUnsetDepth = 0x3fffffffu;

} // namespace

// =====================================================================
// PR
// =====================================================================

PageRank::PageRank(Scale s)
{
    g_ = makeUniformGraph(static_cast<std::uint32_t>(s.of(1 << 18)),
                          15, 900);
}

void
PageRank::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();
    const std::uint32_t n = g_.nodes;
    const std::uint32_t m = g_.edges();

    rowPtr_ = alloc.alloc((n + 1) * 4);
    col_ = alloc.alloc(Addr{m} * 4);
    contrib_ = alloc.alloc(Addr{n} * 8);
    newScore_ = alloc.alloc(Addr{n} * 8);
    edgeVal_ = alloc.alloc(Addr{m} * 8);

    Rng rng(901);
    for (std::uint32_t v = 0; v <= n; ++v)
        mem.write<std::uint32_t>(rowPtr_ + Addr{v} * 4, g_.rowPtr[v]);
    for (std::uint32_t j = 0; j < m; ++j)
        mem.write<std::uint32_t>(col_ + Addr{j} * 4, g_.col[j]);
    for (std::uint32_t v = 0; v < n; ++v) {
        // Fixed-point contributions: small integers keep the scattered
        // f64 accumulation exact under any ordering.
        mem.write<double>(contrib_ + Addr{v} * 8,
                          static_cast<double>(rng.below(32) + 1));
        mem.write<double>(newScore_ + Addr{v} * 8, 0.0);
    }

    registerAll(sys, col_, Addr{m} * 4);
    registerAll(sys, newScore_, Addr{n} * 8);
    registerAll(sys, edgeVal_, Addr{m} * 8);

    // Cores reset newScore and recompute contrib between iterations.
    sys.warmLlc(newScore_, Addr{n} * 8);
    sys.warmLlc(contrib_, Addr{n} * 8);
}

namespace
{

class PrBaseKernel : public LoopKernel
{
  public:
    PrBaseKernel(SimMemory &mem, const CsrGraph &g, Addr rowPtr,
                 Addr col, Addr contrib, Addr newScore, std::size_t bg,
                 std::size_t en)
        : LoopKernel(bg, en), mem_(mem), g_(g), rowPtr_(rowPtr),
          col_(col), contrib_(contrib), newScore_(newScore)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t u) override
    {
        const SeqNum l0 =
            e.load(rowPtr_ + u * 4, 4, pc::kAux, g_.rowPtr[u]);
        e.load(rowPtr_ + (u + 1) * 4, 4, pc::kAux, g_.rowPtr[u + 1]);
        const double cu = mem_.read<double>(contrib_ + u * 8);
        const SeqNum lc = e.load(contrib_ + u * 8, 8, pc::kValue,
                                 std::bit_cast<std::uint64_t>(cu), l0);
        for (std::uint32_t j = g_.rowPtr[u]; j < g_.rowPtr[u + 1];
             ++j) {
            const std::uint32_t v = g_.col[j];
            const SeqNum le =
                e.load(col_ + Addr{j} * 4, 4, pc::kIndex, v);
            const SeqNum calc = e.intOp(1, le);
            const Addr target = newScore_ + Addr{v} * 8;
            mem_.write<double>(target,
                               mem_.read<double>(target) + cu);
            e.rmw(target, 8, pc::kTarget, calc, lc);
        }
        e.intOp();
    }

  private:
    SimMemory &mem_;
    const CsrGraph &g_;
    Addr rowPtr_, col_, contrib_, newScore_;
};

/**
 * DX100 PR: the core materializes the per-edge contribution stream
 * C[j] = contrib[u] (cheap streaming stores), and DX100 turns the
 * scattered accumulation into SLD(E) + SLD(C) + IRMW(newScore).
 */
class PrDxKernel : public cpu::Kernel
{
  public:
    PrDxKernel(runtime::Dx100Runtime &rt, int coreId, SimMemory &mem,
               const CsrGraph &g, Addr col, Addr contrib,
               Addr newScore, Addr edgeVal, std::size_t rowBegin,
               std::size_t rowEnd)
        : rt_(rt), mem_(mem), g_(g), contrib_(contrib),
          edgeVal_(edgeVal), row_(rowBegin)
    {
        for (int k = 0; k < 2; ++k) {
            idxT_[k] = rt_.allocTile();
            valT_[k] = rt_.allocTile();
        }
        const std::size_t jb = g_.rowPtr[rowBegin];
        const std::size_t je = g_.rowPtr[rowEnd];
        tiled_ = std::make_unique<TiledDxKernel>(
            rt_, jb, je, rt_.tileElems(),
            [this, coreId, col, newScore](cpu::OpEmitter &e,
                                          unsigned buf, std::size_t tb,
                                          std::uint32_t cnt) {
                fillEdgeValues(e, tb, cnt);
                rt_.sld(e, coreId, DataType::kU32, col, idxT_[buf], tb,
                        cnt);
                rt_.sld(e, coreId, DataType::kF64, edgeVal_,
                        valT_[buf], tb, cnt);
                return rt_.irmw(e, coreId, DataType::kF64, AluOp::kAdd,
                                newScore, idxT_[buf], valT_[buf]);
            });
    }

    bool more() const override { return tiled_->more(); }
    void emitChunk(cpu::OpEmitter &e) override { tiled_->emitChunk(e); }

  private:
    void
    fillEdgeValues(cpu::OpEmitter &e, std::size_t tb,
                   std::uint32_t cnt)
    {
        for (std::uint32_t k = 0; k < cnt; ++k) {
            const std::size_t j = tb + k;
            while (j >= g_.rowPtr[row_ + 1])
                ++row_;
            const double cu = mem_.read<double>(contrib_ + row_ * 8);
            SeqNum lc = kNoSeq;
            if (j == g_.rowPtr[row_]) {
                lc = e.load(contrib_ + row_ * 8, 8, pc::kValue,
                            std::bit_cast<std::uint64_t>(cu));
            }
            mem_.write<double>(edgeVal_ + j * 8, cu);
            e.store(edgeVal_ + j * 8, 8, pc::kAux, lc);
        }
    }

    runtime::Dx100Runtime &rt_;
    SimMemory &mem_;
    const CsrGraph &g_;
    Addr contrib_, edgeVal_;
    std::size_t row_;
    unsigned idxT_[2], valT_[2];
    std::unique_ptr<TiledDxKernel> tiled_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
PageRank::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] = coreSlice(g_.nodes, core, sys.cores());
    if (!dx100) {
        return std::make_unique<PrBaseKernel>(sys.memory(), g_,
                                              rowPtr_, col_, contrib_,
                                              newScore_, begin, end);
    }
    return std::make_unique<PrDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), sys.memory(),
        g_, col_, contrib_, newScore_, edgeVal_, begin, end);
}

bool
PageRank::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    std::vector<double> expect(g_.nodes, 0.0);
    for (std::uint32_t u = 0; u < g_.nodes; ++u) {
        const double cu = mem.read<double>(contrib_ + Addr{u} * 8);
        for (std::uint32_t j = g_.rowPtr[u]; j < g_.rowPtr[u + 1]; ++j)
            expect[g_.col[j]] += cu;
    }
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        if (mem.read<double>(newScore_ + Addr{v} * 8) != expect[v])
            return false;
    }
    return true;
}

// =====================================================================
// BFS (bottom-up step)
// =====================================================================

BfsBottomUp::BfsBottomUp(Scale s)
{
    g_ = makeUniformGraph(static_cast<std::uint32_t>(s.of(1 << 18)),
                          15, 700);
    hostDepth_ = hostBfs(g_);
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        if (hostDepth_[v] >= step_)
            unvisited_.push_back(v);
    }
}

void
BfsBottomUp::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();
    const std::uint32_t n = g_.nodes;
    const std::uint32_t m = g_.edges();

    rowPtr_ = alloc.alloc((n + 1) * 4);
    col_ = alloc.alloc(Addr{m} * 4);
    depth_ = alloc.alloc(Addr{n} * 4);
    parent_ = alloc.alloc(Addr{n} * 4);
    u_ = alloc.alloc(unvisited_.size() * 4);

    for (std::uint32_t v = 0; v <= n; ++v)
        mem.write<std::uint32_t>(rowPtr_ + Addr{v} * 4, g_.rowPtr[v]);
    for (std::uint32_t j = 0; j < m; ++j)
        mem.write<std::uint32_t>(col_ + Addr{j} * 4, g_.col[j]);
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t d =
            hostDepth_[v] < step_ ? hostDepth_[v] : kUnsetDepth;
        mem.write<std::uint32_t>(depth_ + Addr{v} * 4, d);
        mem.write<std::uint32_t>(parent_ + Addr{v} * 4,
                                 ~std::uint32_t{0});
    }
    for (std::size_t i = 0; i < unvisited_.size(); ++i)
        mem.write<std::uint32_t>(u_ + i * 4, unvisited_[i]);

    registerAll(sys, col_, Addr{m} * 4);
    registerAll(sys, depth_, Addr{n} * 4);
    registerAll(sys, parent_, Addr{n} * 4);
    registerAll(sys, rowPtr_, (n + 1) * 4);
    registerAll(sys, u_, unvisited_.size() * 4);

    // The previous BFS step wrote depth[] through the cores, so it is
    // cache-resident when this step begins.
    sys.warmLlc(depth_, Addr{n} * 4);
}

namespace
{

class BfsBaseKernel : public LoopKernel
{
  public:
    BfsBaseKernel(SimMemory &mem, const CsrGraph &g,
                  const std::vector<std::uint32_t> &unvisited,
                  Addr rowPtr, Addr col, Addr depth, Addr parent,
                  std::uint32_t step, std::size_t bg, std::size_t en)
        : LoopKernel(bg, en), mem_(mem), g_(g), unvisited_(unvisited),
          rowPtr_(rowPtr), col_(col), depth_(depth), parent_(parent),
          step_(step)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const std::uint32_t u = unvisited_[i];
        const SeqNum lu = e.load(
            // U list is streamed
            u_addr(i), 4, pc::kAux, u);
        const SeqNum l0 = e.load(rowPtr_ + Addr{u} * 4, 4, pc::kAux,
                                 g_.rowPtr[u], lu);
        e.load(rowPtr_ + Addr{u} * 4 + 4, 4, pc::kAux,
               g_.rowPtr[u + 1], lu);
        (void)l0;

        for (std::uint32_t j = g_.rowPtr[u]; j < g_.rowPtr[u + 1];
             ++j) {
            const std::uint32_t w = g_.col[j];
            const SeqNum le =
                e.load(col_ + Addr{j} * 4, 4, pc::kIndex, w);
            const SeqNum calc = e.intOp(1, le);
            const auto dw =
                mem_.read<std::uint32_t>(depth_ + Addr{w} * 4);
            const SeqNum ld = e.load(depth_ + Addr{w} * 4, 4,
                                     pc::kTarget, dw, calc);
            e.intOp(1, ld); // compare + branch
            if (dw == step_ - 1) {
                mem_.write<std::uint32_t>(depth_ + Addr{u} * 4, step_);
                mem_.write<std::uint32_t>(parent_ + Addr{u} * 4, w);
                e.store(depth_ + Addr{u} * 4, 4, pc::kOut, ld);
                e.store(parent_ + Addr{u} * 4, 4, pc::kOut, le);
                break; // bottom-up early exit
            }
        }
        e.intOp();
    }

  private:
    Addr u_addr(std::size_t i) const { return uBase_ + i * 4; }

  public:
    Addr uBase_ = 0;

  private:
    SimMemory &mem_;
    const CsrGraph &g_;
    const std::vector<std::uint32_t> &unvisited_;
    Addr rowPtr_, col_, depth_, parent_;
    std::uint32_t step_;
};

/**
 * DX100 BFS: SLD the unvisited chunk, ILD the range bounds, fuse with
 * RNG, gather neighbours and their depths, build the frontier
 * condition with ALUS, and conditionally IST depth/parent. Tiles are
 * aggressively reused to stay within the per-core budget (8 of 32).
 */
class BfsDxKernel : public cpu::Kernel
{
  public:
    BfsDxKernel(runtime::Dx100Runtime &rt, int coreId, Addr rowPtr,
                Addr col, Addr depth, Addr parent, Addr uArr,
                std::uint32_t step, std::size_t bg, std::size_t en)
        : rt_(rt), coreId_(coreId), rowPtr_(rowPtr), col_(col),
          depth_(depth), parent_(parent), uArr_(uArr), step_(step),
          pos_(bg), end_(en)
    {
        tU_ = rt_.allocTile();
        tU1_ = rt_.allocTile(); // K+1, later U[TO] gather
        tLo_ = rt_.allocTile();
        tHi_ = rt_.allocTile();
        tO_ = rt_.allocTile();  // later the constant-depth tile
        tJ_ = rt_.allocTile();  // j values, then gathered neighbours
        tCond_ = rt_.allocTile();
    }

    bool more() const override { return pos_ < end_; }

    void
    emitChunk(cpu::OpEmitter &e) override
    {
        if (chunkLeft_ == 0) {
            chunkBegin_ = pos_;
            chunkCount_ = static_cast<std::uint32_t>(
                std::min<std::size_t>(rt_.tileElems() / 2,
                                      end_ - pos_));
            rt_.sld(e, coreId_, DataType::kU32, uArr_, tU_,
                    chunkBegin_, chunkCount_);
            rt_.ild(e, coreId_, DataType::kU32, rowPtr_, tLo_, tU_);
            rt_.alus(e, coreId_, DataType::kU32, AluOp::kAdd, tU1_,
                     tU_, 1);
            rt_.ild(e, coreId_, DataType::kU32, rowPtr_, tHi_, tU1_);
            chunkConsumed_ = 0;
            chunkLeft_ = chunkCount_;
        }

        std::uint32_t consumed = 0;
        rt_.rng(e, coreId_, tO_, tJ_, tLo_, tHi_, chunkConsumed_,
                &consumed);
        dx_assert(consumed > 0, "adjacency list longer than a tile");

        // Gather neighbours in place over the fused j tile.
        rt_.ild(e, coreId_, DataType::kU32, col_, tJ_, tJ_);
        rt_.ild(e, coreId_, DataType::kU32, depth_, tCond_, tJ_);
        rt_.alus(e, coreId_, DataType::kU32, AluOp::kEq, tCond_,
                 tCond_, step_ - 1);
        // u per inner element: gather U[chunkBegin + TO].
        rt_.ild(e, coreId_, DataType::kU32,
                uArr_ + Addr{chunkBegin_} * 4, tU1_, tO_);
        // Conditional frontier stores: parent[u] = neighbour.
        rt_.ist(e, coreId_, DataType::kU32, parent_, tU1_, tJ_,
                tCond_);
        // depth[u] = step: constant tile built in tO_ (free now).
        rt_.alus(e, coreId_, DataType::kU32, AluOp::kMul, tO_, tO_, 0);
        rt_.alus(e, coreId_, DataType::kU32, AluOp::kAdd, tO_, tO_,
                 step_);
        const std::uint64_t tok = rt_.ist(
            e, coreId_, DataType::kU32, depth_, tU1_, tO_, tCond_);
        rt_.wait(e, tok);

        chunkConsumed_ += consumed;
        chunkLeft_ -= consumed;
        pos_ += consumed;
    }

  private:
    runtime::Dx100Runtime &rt_;
    int coreId_;
    Addr rowPtr_, col_, depth_, parent_, uArr_;
    std::uint32_t step_;
    std::size_t pos_, end_;
    std::size_t chunkBegin_ = 0;
    std::uint32_t chunkCount_ = 0;
    std::uint32_t chunkConsumed_ = 0;
    std::uint32_t chunkLeft_ = 0;
    unsigned tU_, tU1_, tLo_, tHi_, tO_, tJ_, tCond_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
BfsBottomUp::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] =
        coreSlice(unvisited_.size(), core, sys.cores());
    if (!dx100) {
        auto k = std::make_unique<BfsBaseKernel>(
            sys.memory(), g_, unvisited_, rowPtr_, col_, depth_,
            parent_, step_, begin, end);
        k->uBase_ = u_;
        return k;
    }
    return std::make_unique<BfsDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), rowPtr_, col_,
        depth_, parent_, u_, step_, begin, end);
}

bool
BfsBottomUp::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    for (const std::uint32_t u : unvisited_) {
        bool expectFound = false;
        for (std::uint32_t j = g_.rowPtr[u]; j < g_.rowPtr[u + 1];
             ++j) {
            if (hostDepth_[g_.col[j]] == step_ - 1) {
                expectFound = true;
                break;
            }
        }
        const auto d = mem.read<std::uint32_t>(depth_ + Addr{u} * 4);
        const auto p = mem.read<std::uint32_t>(parent_ + Addr{u} * 4);
        if (expectFound) {
            if (d != step_)
                return false;
            // Parent must be *some* frontier neighbour of u.
            bool ok = false;
            for (std::uint32_t j = g_.rowPtr[u]; j < g_.rowPtr[u + 1];
                 ++j) {
                if (g_.col[j] == p &&
                    hostDepth_[p] == step_ - 1) {
                    ok = true;
                    break;
                }
            }
            if (!ok)
                return false;
        } else {
            if (d != kUnsetDepth || p != ~std::uint32_t{0})
                return false;
        }
    }
    return true;
}

// =====================================================================
// BFS (top-down step; paper footnote 1 extension)
// =====================================================================

BfsTopDown::BfsTopDown(Scale s)
{
    g_ = makeUniformGraph(static_cast<std::uint32_t>(s.of(1 << 18)),
                          15, 710);
    hostDepth_ = hostBfs(g_);

    // Expand at the most populous level: that is where top-down BFS
    // spends its time before direction-optimization flips bottom-up.
    std::vector<std::uint32_t> perLevel;
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        const std::uint32_t d = hostDepth_[v];
        if (d == ~std::uint32_t{0})
            continue;
        if (perLevel.size() <= d)
            perLevel.resize(d + 1, 0);
        ++perLevel[d];
    }
    std::uint32_t best = 0;
    for (std::uint32_t d = 1; d < perLevel.size(); ++d) {
        if (perLevel[d] > perLevel[best])
            best = d;
    }
    step_ = best + 1;
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        if (hostDepth_[v] == step_ - 1)
            frontier_.push_back(v);
    }
}

void
BfsTopDown::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();
    const std::uint32_t n = g_.nodes;
    const std::uint32_t m = g_.edges();

    rowPtr_ = alloc.alloc((n + 1) * 4);
    col_ = alloc.alloc(Addr{m} * 4);
    depth_ = alloc.alloc(Addr{n} * 4);
    parent_ = alloc.alloc(Addr{n} * 4);
    f_ = alloc.alloc(frontier_.size() * 4);

    for (std::uint32_t v = 0; v <= n; ++v)
        mem.write<std::uint32_t>(rowPtr_ + Addr{v} * 4, g_.rowPtr[v]);
    for (std::uint32_t j = 0; j < m; ++j)
        mem.write<std::uint32_t>(col_ + Addr{j} * 4, g_.col[j]);
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t d =
            hostDepth_[v] < step_ ? hostDepth_[v] : kUnsetDepth;
        mem.write<std::uint32_t>(depth_ + Addr{v} * 4, d);
        mem.write<std::uint32_t>(parent_ + Addr{v} * 4,
                                 ~std::uint32_t{0});
    }
    for (std::size_t i = 0; i < frontier_.size(); ++i)
        mem.write<std::uint32_t>(f_ + i * 4, frontier_[i]);

    registerAll(sys, col_, Addr{m} * 4);
    registerAll(sys, depth_, Addr{n} * 4);
    registerAll(sys, parent_, Addr{n} * 4);
    registerAll(sys, rowPtr_, (n + 1) * 4);
    registerAll(sys, f_, frontier_.size() * 4);
    sys.warmLlc(depth_, Addr{n} * 4);
}

namespace
{

class BfsTdBaseKernel : public LoopKernel
{
  public:
    BfsTdBaseKernel(SimMemory &mem, const CsrGraph &g,
                    const std::vector<std::uint32_t> &frontier,
                    Addr fArr, Addr rowPtr, Addr col, Addr depth,
                    Addr parent, std::uint32_t step, std::size_t bg,
                    std::size_t en)
        : LoopKernel(bg, en), mem_(mem), g_(g), frontier_(frontier),
          fArr_(fArr), rowPtr_(rowPtr), col_(col), depth_(depth),
          parent_(parent), step_(step)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const std::uint32_t u = frontier_[i];
        const SeqNum lu = e.load(fArr_ + i * 4, 4, pc::kAux, u);
        e.load(rowPtr_ + Addr{u} * 4, 4, pc::kAux, g_.rowPtr[u], lu);
        e.load(rowPtr_ + Addr{u} * 4 + 4, 4, pc::kAux,
               g_.rowPtr[u + 1], lu);
        for (std::uint32_t j = g_.rowPtr[u]; j < g_.rowPtr[u + 1];
             ++j) {
            const std::uint32_t v = g_.col[j];
            const SeqNum le =
                e.load(col_ + Addr{j} * 4, 4, pc::kIndex, v);
            const SeqNum calc = e.intOp(1, le);
            const auto dv =
                mem_.read<std::uint32_t>(depth_ + Addr{v} * 4);
            const SeqNum ld = e.load(depth_ + Addr{v} * 4, 4,
                                     pc::kTarget, dv, calc);
            e.intOp(1, ld);
            if (dv == kUnsetDepth) {
                mem_.write<std::uint32_t>(depth_ + Addr{v} * 4,
                                          step_);
                mem_.write<std::uint32_t>(parent_ + Addr{v} * 4, u);
                e.store(depth_ + Addr{v} * 4, 4, pc::kOut, ld);
                e.store(parent_ + Addr{v} * 4, 4, pc::kOut, le, lu);
            }
        }
        e.intOp();
    }

  private:
    SimMemory &mem_;
    const CsrGraph &g_;
    const std::vector<std::uint32_t> &frontier_;
    Addr fArr_, rowPtr_, col_, depth_, parent_;
    std::uint32_t step_;
};

/** DX100 top-down step: fuse frontier adjacency ranges, gather
 *  neighbour depths, and conditionally claim the undiscovered. */
class BfsTdDxKernel : public cpu::Kernel
{
  public:
    BfsTdDxKernel(runtime::Dx100Runtime &rt, int coreId, Addr rowPtr,
                  Addr col, Addr depth, Addr parent, Addr fArr,
                  std::uint32_t step, std::size_t bg, std::size_t en)
        : rt_(rt), coreId_(coreId), rowPtr_(rowPtr), col_(col),
          depth_(depth), parent_(parent), fArr_(fArr), step_(step),
          pos_(bg), end_(en)
    {
        tF_ = rt_.allocTile();
        tF1_ = rt_.allocTile();
        tLo_ = rt_.allocTile();
        tHi_ = rt_.allocTile();
        tO_ = rt_.allocTile();
        tJ_ = rt_.allocTile();
        tCond_ = rt_.allocTile();
    }

    bool more() const override { return pos_ < end_; }

    void
    emitChunk(cpu::OpEmitter &e) override
    {
        if (chunkLeft_ == 0) {
            chunkBegin_ = pos_;
            chunkCount_ = static_cast<std::uint32_t>(
                std::min<std::size_t>(rt_.tileElems() / 2,
                                      end_ - pos_));
            rt_.sld(e, coreId_, DataType::kU32, fArr_, tF_,
                    chunkBegin_, chunkCount_);
            rt_.ild(e, coreId_, DataType::kU32, rowPtr_, tLo_, tF_);
            rt_.alus(e, coreId_, DataType::kU32, AluOp::kAdd, tF1_,
                     tF_, 1);
            rt_.ild(e, coreId_, DataType::kU32, rowPtr_, tHi_, tF1_);
            chunkConsumed_ = 0;
            chunkLeft_ = chunkCount_;
        }

        std::uint32_t consumed = 0;
        rt_.rng(e, coreId_, tO_, tJ_, tLo_, tHi_, chunkConsumed_,
                &consumed);
        dx_assert(consumed > 0, "adjacency list longer than a tile");

        // v = E[j] (in place); cond = (depth[v] == unset).
        rt_.ild(e, coreId_, DataType::kU32, col_, tJ_, tJ_);
        rt_.ild(e, coreId_, DataType::kU32, depth_, tCond_, tJ_);
        rt_.alus(e, coreId_, DataType::kU32, AluOp::kEq, tCond_,
                 tCond_, kUnsetDepth);
        // u per inner element: F[chunkBegin + TO].
        rt_.ild(e, coreId_, DataType::kU32,
                fArr_ + Addr{chunkBegin_} * 4, tF1_, tO_);
        rt_.ist(e, coreId_, DataType::kU32, parent_, tJ_, tF1_,
                tCond_);
        // depth[v] = step: constant tile built in tO_.
        rt_.alus(e, coreId_, DataType::kU32, AluOp::kMul, tO_, tO_,
                 0);
        rt_.alus(e, coreId_, DataType::kU32, AluOp::kAdd, tO_, tO_,
                 step_);
        const std::uint64_t tok = rt_.ist(
            e, coreId_, DataType::kU32, depth_, tJ_, tO_, tCond_);
        rt_.wait(e, tok);

        chunkConsumed_ += consumed;
        chunkLeft_ -= consumed;
        pos_ += consumed;
    }

  private:
    runtime::Dx100Runtime &rt_;
    int coreId_;
    Addr rowPtr_, col_, depth_, parent_, fArr_;
    std::uint32_t step_;
    std::size_t pos_, end_;
    std::size_t chunkBegin_ = 0;
    std::uint32_t chunkCount_ = 0;
    std::uint32_t chunkConsumed_ = 0;
    std::uint32_t chunkLeft_ = 0;
    unsigned tF_, tF1_, tLo_, tHi_, tO_, tJ_, tCond_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
BfsTopDown::makeKernel(sim::System &sys, unsigned core, bool dx100)
{
    const auto [begin, end] =
        coreSlice(frontier_.size(), core, sys.cores());
    if (!dx100) {
        return std::make_unique<BfsTdBaseKernel>(
            sys.memory(), g_, frontier_, f_, rowPtr_, col_, depth_,
            parent_, step_, begin, end);
    }
    return std::make_unique<BfsTdDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), rowPtr_, col_,
        depth_, parent_, f_, step_, begin, end);
}

bool
BfsTopDown::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    // A vertex is discovered iff it is undiscovered at step-1 and has
    // a frontier neighbour; its parent must be such a neighbour.
    std::vector<bool> hasFrontierParent(g_.nodes, false);
    for (const std::uint32_t u : frontier_) {
        for (std::uint32_t j = g_.rowPtr[u]; j < g_.rowPtr[u + 1];
             ++j) {
            if (hostDepth_[g_.col[j]] >= step_)
                hasFrontierParent[g_.col[j]] = true;
        }
    }
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        const auto d = mem.read<std::uint32_t>(depth_ + Addr{v} * 4);
        const auto p = mem.read<std::uint32_t>(parent_ + Addr{v} * 4);
        if (hostDepth_[v] < step_) {
            if (d != hostDepth_[v])
                return false;
            continue;
        }
        if (hasFrontierParent[v]) {
            if (d != step_)
                return false;
            if (p >= g_.nodes || hostDepth_[p] != step_ - 1)
                return false;
        } else {
            if (d != kUnsetDepth || p != ~std::uint32_t{0})
                return false;
        }
    }
    return true;
}

// =====================================================================
// BC (one dependency-accumulation level)
// =====================================================================

BetweennessCentrality::BetweennessCentrality(Scale s)
{
    g_ = makeUniformGraph(static_cast<std::uint32_t>(s.of(1 << 18)),
                          15, 650);
    hostDepth_ = hostBfs(g_);

    // Accumulate at the most populous BFS level: that is where the
    // dependency pass spends its time in the full algorithm.
    std::vector<std::uint32_t> perLevel;
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        const std::uint32_t d = hostDepth_[v];
        if (d == ~std::uint32_t{0} || d == 0)
            continue;
        if (perLevel.size() <= d)
            perLevel.resize(d + 1, 0);
        ++perLevel[d];
    }
    std::uint32_t best = 1;
    for (std::uint32_t d = 2; d < perLevel.size(); ++d) {
        if (perLevel[d] > perLevel[best])
            best = d;
    }
    d_ = best;
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        if (hostDepth_[v] == d_)
            level_.push_back(v);
    }
}

void
BetweennessCentrality::init(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    SimAllocator &alloc = sys.allocator();
    const std::uint32_t n = g_.nodes;
    const std::uint32_t m = g_.edges();

    rowPtr_ = alloc.alloc((n + 1) * 4);
    col_ = alloc.alloc(Addr{m} * 4);
    depth_ = alloc.alloc(Addr{n} * 4);
    sigma_ = alloc.alloc(Addr{n} * 4);
    delta_ = alloc.alloc(Addr{n} * 4); //!< fixed-point deltas
    f_ = alloc.alloc(Addr{n} * 4);
    w_ = alloc.alloc(level_.size() * 4);

    Rng rng(651);
    for (std::uint32_t v = 0; v <= n; ++v)
        mem.write<std::uint32_t>(rowPtr_ + Addr{v} * 4, g_.rowPtr[v]);
    for (std::uint32_t j = 0; j < m; ++j)
        mem.write<std::uint32_t>(col_ + Addr{j} * 4, g_.col[j]);
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint32_t d =
            hostDepth_[v] == ~std::uint32_t{0} ? kUnsetDepth
                                               : hostDepth_[v];
        mem.write<std::uint32_t>(depth_ + Addr{v} * 4, d);
        mem.write<std::uint32_t>(
            sigma_ + Addr{v} * 4,
            static_cast<std::uint32_t>(rng.below(8) + 1));
        mem.write<std::uint32_t>(delta_ + Addr{v} * 4, 0);
        mem.write<std::uint32_t>(
            f_ + Addr{v} * 4,
            static_cast<std::uint32_t>(rng.below(8) + 1));
    }
    for (std::size_t i = 0; i < level_.size(); ++i)
        mem.write<std::uint32_t>(w_ + i * 4, level_[i]);

    registerAll(sys, col_, Addr{m} * 4);
    registerAll(sys, depth_, Addr{n} * 4);
    registerAll(sys, sigma_, Addr{n} * 4);
    registerAll(sys, delta_, Addr{n} * 4);
    registerAll(sys, f_, Addr{n} * 4);
    registerAll(sys, rowPtr_, (n + 1) * 4);
    registerAll(sys, w_, level_.size() * 4);

    // The forward sigma pass and deeper delta levels ran just before
    // this accumulation level; their arrays enter cache-resident.
    sys.warmLlc(depth_, Addr{n} * 4);
    sys.warmLlc(sigma_, Addr{n} * 4);
    sys.warmLlc(delta_, Addr{n} * 4);
}

namespace
{

class BcBaseKernel : public LoopKernel
{
  public:
    BcBaseKernel(SimMemory &mem, const CsrGraph &g,
                 const std::vector<std::uint32_t> &level, Addr wArr,
                 Addr rowPtr, Addr col, Addr depth, Addr sigma,
                 Addr delta, Addr f, std::uint32_t d, std::size_t bg,
                 std::size_t en)
        : LoopKernel(bg, en), mem_(mem), g_(g), level_(level),
          wArr_(wArr), rowPtr_(rowPtr), col_(col), depth_(depth),
          sigma_(sigma), delta_(delta), f_(f), d_(d)
    {}

  protected:
    void
    emitIteration(cpu::OpEmitter &e, std::size_t i) override
    {
        const std::uint32_t w = level_[i];
        const SeqNum lw = e.load(wArr_ + i * 4, 4, pc::kAux, w);
        e.load(rowPtr_ + Addr{w} * 4, 4, pc::kAux, g_.rowPtr[w], lw);
        e.load(rowPtr_ + Addr{w} * 4 + 4, 4, pc::kAux,
               g_.rowPtr[w + 1], lw);
        const auto fw = mem_.read<std::uint32_t>(f_ + Addr{w} * 4);
        const SeqNum lf = e.load(f_ + Addr{w} * 4, 4, pc::kValue, fw,
                                 lw);

        for (std::uint32_t j = g_.rowPtr[w]; j < g_.rowPtr[w + 1];
             ++j) {
            const std::uint32_t v = g_.col[j];
            const SeqNum le =
                e.load(col_ + Addr{j} * 4, 4, pc::kIndex, v);
            const SeqNum calc = e.intOp(1, le);
            const auto dv =
                mem_.read<std::uint32_t>(depth_ + Addr{v} * 4);
            const SeqNum ld = e.load(depth_ + Addr{v} * 4, 4,
                                     pc::kTarget, dv, calc);
            e.intOp(1, ld);
            if (dv != d_ - 1)
                continue;
            const auto sv =
                mem_.read<std::uint32_t>(sigma_ + Addr{v} * 4);
            const SeqNum ls =
                e.load(sigma_ + Addr{v} * 4, 4, pc::kAux, sv, calc);
            const SeqNum mul = e.intOp(3, ls, lf);
            const Addr target = delta_ + Addr{v} * 4;
            mem_.write<std::uint32_t>(
                target,
                mem_.read<std::uint32_t>(target) + sv * fw);
            e.rmw(target, 4, pc::kOut, mul);
        }
        e.intOp();
    }

  private:
    SimMemory &mem_;
    const CsrGraph &g_;
    const std::vector<std::uint32_t> &level_;
    Addr wArr_, rowPtr_, col_, depth_, sigma_, delta_, f_;
    std::uint32_t d_;
};

/** DX100 BC: fused ranges + chained gathers + conditional IRMW. */
class BcDxKernel : public cpu::Kernel
{
  public:
    BcDxKernel(runtime::Dx100Runtime &rt, int coreId, Addr rowPtr,
               Addr col, Addr depth, Addr sigma, Addr delta, Addr f,
               Addr wArr, std::uint32_t d, std::size_t bg,
               std::size_t en)
        : rt_(rt), coreId_(coreId), rowPtr_(rowPtr), col_(col),
          depth_(depth), sigma_(sigma), delta_(delta), f_(f),
          wArr_(wArr), d_(d), pos_(bg), end_(en)
    {
        tW_ = rt_.allocTile();
        tW1_ = rt_.allocTile(); // W+1 -> W[TO] -> f[W[TO]]
        tLo_ = rt_.allocTile();
        tHi_ = rt_.allocTile();
        tO_ = rt_.allocTile();  // outer ids, then sigma products
        tJ_ = rt_.allocTile();  // j values, then gathered vertices
        tCond_ = rt_.allocTile();
    }

    bool more() const override { return pos_ < end_; }

    void
    emitChunk(cpu::OpEmitter &e) override
    {
        if (chunkLeft_ == 0) {
            chunkBegin_ = pos_;
            chunkCount_ = static_cast<std::uint32_t>(
                std::min<std::size_t>(rt_.tileElems() / 2,
                                      end_ - pos_));
            rt_.sld(e, coreId_, DataType::kU32, wArr_, tW_,
                    chunkBegin_, chunkCount_);
            rt_.ild(e, coreId_, DataType::kU32, rowPtr_, tLo_, tW_);
            rt_.alus(e, coreId_, DataType::kU32, AluOp::kAdd, tW1_,
                     tW_, 1);
            rt_.ild(e, coreId_, DataType::kU32, rowPtr_, tHi_, tW1_);
            chunkConsumed_ = 0;
            chunkLeft_ = chunkCount_;
        }

        std::uint32_t consumed = 0;
        rt_.rng(e, coreId_, tO_, tJ_, tLo_, tHi_, chunkConsumed_,
                &consumed);
        dx_assert(consumed > 0, "adjacency list longer than a tile");

        // Gather target vertices in place over the fused j tile.
        rt_.ild(e, coreId_, DataType::kU32, col_, tJ_, tJ_);
        rt_.ild(e, coreId_, DataType::kU32, depth_, tCond_, tJ_);
        rt_.alus(e, coreId_, DataType::kU32, AluOp::kEq, tCond_,
                 tCond_, d_ - 1);
        // f[W[TO]]: W ids into tW1_, then gather f through them.
        rt_.ild(e, coreId_, DataType::kU32,
                wArr_ + Addr{chunkBegin_} * 4, tW1_, tO_);
        rt_.ild(e, coreId_, DataType::kU32, f_, tW1_, tW1_);
        // sigma[v] into tO_ (outer ids no longer needed this batch).
        rt_.ild(e, coreId_, DataType::kU32, sigma_, tO_, tJ_, tCond_);
        // value = sigma[v] * f[w]
        rt_.aluv(e, coreId_, DataType::kU32, AluOp::kMul, tO_, tO_,
                 tW1_, tCond_);
        const std::uint64_t tok =
            rt_.irmw(e, coreId_, DataType::kU32, AluOp::kAdd, delta_,
                     tJ_, tO_, tCond_);
        rt_.wait(e, tok);

        chunkConsumed_ += consumed;
        chunkLeft_ -= consumed;
        pos_ += consumed;
    }

  private:
    runtime::Dx100Runtime &rt_;
    int coreId_;
    Addr rowPtr_, col_, depth_, sigma_, delta_, f_, wArr_;
    std::uint32_t d_;
    std::size_t pos_, end_;
    std::size_t chunkBegin_ = 0;
    std::uint32_t chunkCount_ = 0;
    std::uint32_t chunkConsumed_ = 0;
    std::uint32_t chunkLeft_ = 0;
    unsigned tW_, tW1_, tLo_, tHi_, tO_, tJ_, tCond_;
};

} // namespace

std::unique_ptr<cpu::Kernel>
BetweennessCentrality::makeKernel(sim::System &sys, unsigned core,
                                  bool dx100)
{
    const auto [begin, end] =
        coreSlice(level_.size(), core, sys.cores());
    if (!dx100) {
        return std::make_unique<BcBaseKernel>(
            sys.memory(), g_, level_, w_, rowPtr_, col_, depth_,
            sigma_, delta_, f_, d_, begin, end);
    }
    return std::make_unique<BcDxKernel>(
        *sys.runtimeFor(core), static_cast<int>(core), rowPtr_, col_,
        depth_, sigma_, delta_, f_, w_, d_, begin, end);
}

bool
BetweennessCentrality::verify(sim::System &sys)
{
    SimMemory &mem = sys.memory();
    std::vector<std::uint32_t> expect(g_.nodes, 0);
    for (const std::uint32_t w : level_) {
        const auto fw = mem.read<std::uint32_t>(f_ + Addr{w} * 4);
        for (std::uint32_t j = g_.rowPtr[w]; j < g_.rowPtr[w + 1];
             ++j) {
            const std::uint32_t v = g_.col[j];
            if (hostDepth_[v] == d_ - 1) {
                expect[v] +=
                    mem.read<std::uint32_t>(sigma_ + Addr{v} * 4) * fw;
            }
        }
    }
    for (std::uint32_t v = 0; v < g_.nodes; ++v) {
        if (mem.read<std::uint32_t>(delta_ + Addr{v} * 4) != expect[v])
            return false;
    }
    return true;
}

} // namespace dx::wl
