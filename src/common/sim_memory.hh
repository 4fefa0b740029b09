/**
 * @file
 * Functional backing store for the simulated physical address space.
 *
 * The timing models in this repository are *pure timing*: data values are
 * produced and consumed functionally, eagerly, by the workload kernels and
 * the DX100 runtime at micro-op generation time (see DESIGN.md §4.2).
 * SimMemory is the byte-addressable store they operate on. It is sparse:
 * 64 KiB frames are allocated on first touch.
 */

#ifndef DX_COMMON_SIM_MEMORY_HH
#define DX_COMMON_SIM_MEMORY_HH

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace dx
{

class SimMemory
{
  public:
    static constexpr unsigned kFrameShift = 16;
    static constexpr Addr kFrameBytes = Addr{1} << kFrameShift;

    /** Read a trivially-copyable value at @p addr. */
    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T out{};
        readBytes(addr, &out, sizeof(T));
        return out;
    }

    /** Write a trivially-copyable value at @p addr. */
    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        writeBytes(addr, &value, sizeof(T));
    }

    /** Copy @p len bytes out of the simulated memory. */
    void readBytes(Addr addr, void *dst, std::size_t len) const;

    /** Copy @p len bytes into the simulated memory. */
    void writeBytes(Addr addr, const void *src, std::size_t len);

    /** Zero-fill a range (frames are zeroed on allocation anyway). */
    void zero(Addr addr, std::size_t len);

    /** Number of frames currently materialized (for tests/telemetry). */
    std::size_t framesAllocated() const { return frames_.size(); }

  private:
    using Frame = std::vector<std::uint8_t>;

    Frame &frameFor(Addr addr);
    const Frame *frameForConst(Addr addr) const;

    std::unordered_map<Addr, Frame> frames_;
};

/**
 * Bump allocator handing out ranges of the simulated address space.
 *
 * Allocations are aligned to 2 MiB "huge pages" by default, mirroring the
 * paper's assumption that DX100-visible arrays live on huge pages so a
 * small TLB covers them.
 */
class SimAllocator
{
  public:
    static constexpr Addr kHugePage = Addr{2} << 20;

    explicit SimAllocator(Addr base = kHugePage) : next_(base) {}

    /** Allocate @p bytes; returns the base address of the region. */
    Addr
    alloc(Addr bytes, Addr align = kHugePage)
    {
        dx_assert(align && (align & (align - 1)) == 0,
                  "alignment must be a power of two");
        next_ = (next_ + align - 1) & ~(align - 1);
        Addr base = next_;
        next_ += bytes;
        return base;
    }

    /** Allocate an array of @p n elements of type T. */
    template <typename T>
    Addr
    allocArray(std::size_t n)
    {
        return alloc(static_cast<Addr>(n) * sizeof(T));
    }

  private:
    Addr next_;
};

/**
 * A typed view of an array inside SimMemory; convenience for generators
 * and kernels. Holds no storage itself.
 */
template <typename T>
class ArrayRef
{
  public:
    ArrayRef() = default;

    ArrayRef(SimMemory *mem, Addr base, std::size_t size)
        : mem_(mem), base_(base), size_(size)
    {}

    /** Allocate a fresh array of @p n elements. */
    static ArrayRef
    make(SimMemory &mem, SimAllocator &alloc, std::size_t n)
    {
        return ArrayRef(&mem, alloc.allocArray<T>(n), n);
    }

    T at(std::size_t i) const { return mem_->read<T>(addrOf(i)); }
    void set(std::size_t i, T v) { mem_->write<T>(addrOf(i), v); }

    Addr addrOf(std::size_t i) const
    {
        return base_ + static_cast<Addr>(i) * sizeof(T);
    }

    Addr base() const { return base_; }
    std::size_t size() const { return size_; }
    Addr bytes() const { return static_cast<Addr>(size_) * sizeof(T); }

  private:
    SimMemory *mem_ = nullptr;
    Addr base_ = 0;
    std::size_t size_ = 0;
};

} // namespace dx

#endif // DX_COMMON_SIM_MEMORY_HH
