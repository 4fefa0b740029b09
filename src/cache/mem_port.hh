/**
 * @file
 * Memory-side ports below the LLC: the DRAM adapter and an address-range
 * router that steers scratchpad-region lines to DX100 instead of DRAM.
 * Both answer canAccept(req) for the one resource the request maps to
 * (its DRAM channel and read/write queue, or its range's port).
 */

#ifndef DX_CACHE_MEM_PORT_HH
#define DX_CACHE_MEM_PORT_HH

#include <cstdint>
#include <vector>

#include "cache/cache_if.hh"
#include "mem/dram_system.hh"

namespace dx::cache
{

/** Adapts the CachePort protocol onto the DRAM system. */
class DramPort : public CachePort, public mem::MemRespSink
{
  public:
    explicit DramPort(mem::DramSystem &dram) : dram_(dram) {}

    /** Room in the read or write queue of @p req's channel. */
    bool canAccept(const CacheReq &req) const override;
    void request(const CacheReq &req) override;
    void complete(const mem::MemRequest &req) override;

    /** Admission is gated on controller buffers; report their drains. */
    const std::uint64_t *
    popCountAddr() const override
    {
        return dram_.dequeueCountAddr();
    }

  private:
    mem::DramSystem &dram_;
    std::vector<CacheReq> slots_;
    std::vector<std::uint32_t> freeSlots_;
};

/**
 * Steers requests by address range: lines inside [base, base+size) go to
 * the `special` port (DX100's scratchpad), everything else to DRAM.
 */
class RangeRouter : public CachePort
{
  public:
    RangeRouter(CachePort &fallback) : fallback_(&fallback) {}

    void
    addRange(Addr base, Addr size, CachePort *port)
    {
        ranges_.push_back({base, base + size, port});
    }

    /** Asks the port of the range @p req falls in, else the fallback. */
    bool canAccept(const CacheReq &req) const override;
    void request(const CacheReq &req) override;

  private:
    struct Range
    {
        Addr begin;
        Addr end;
        CachePort *port;
    };

    CachePort *fallback_;
    std::vector<Range> ranges_;
};

} // namespace dx::cache

#endif // DX_CACHE_MEM_PORT_HH
