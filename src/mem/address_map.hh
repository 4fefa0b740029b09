/**
 * @file
 * Physical address to DRAM coordinate mapping.
 *
 * A line address is decomposed, LSB to MSB, into a configurable order of
 * {channel, bank group, bank, column, rank, row} fields. The default
 * order (kChBgCoBaRo) interleaves consecutive cache lines first across
 * channels, then across bank groups, so streaming accesses enjoy both
 * channel parallelism and tCCD_S column spacing, while 128 consecutive
 * per-bank-group lines share one DRAM row.
 */

#ifndef DX_MEM_ADDRESS_MAP_HH
#define DX_MEM_ADDRESS_MAP_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace dx::mem
{

/** Geometry of the DRAM system. */
struct DramGeometry
{
    unsigned channels = 2;
    unsigned ranks = 1;
    unsigned bankGroups = 4;
    unsigned banksPerGroup = 4;
    unsigned rowBytes = 8192;   //!< row-buffer size per bank
    unsigned rows = 1u << 16;

    unsigned banksPerRank() const { return bankGroups * banksPerGroup; }
    unsigned banksPerChannel() const { return ranks * banksPerRank(); }
    unsigned totalBanks() const { return channels * banksPerChannel(); }
    unsigned linesPerRow() const { return rowBytes / kLineBytes; }

    /** Total capacity in bytes. */
    std::uint64_t
    capacity() const
    {
        return std::uint64_t{channels} * ranks * banksPerRank() * rows *
               rowBytes;
    }
};

/** Field interleaving order, LSB first. */
enum class MapOrder
{
    kChBgCoBaRo, //!< ch, bg, column, bank, row (default, interleaved)
    kChCoBgBaRo, //!< ch, column, bg, bank (row-major inside a bank group)
    kCoChBgBaRo, //!< column lowest: whole rows contiguous per channel
};

std::string to_string(MapOrder order);

/** Coordinates of one cache line inside the DRAM system. */
struct DramCoord
{
    std::uint16_t channel = 0;
    std::uint16_t rank = 0;
    std::uint16_t bankGroup = 0;
    std::uint16_t bank = 0;
    std::uint32_t row = 0;
    std::uint32_t column = 0; //!< line-granularity column within the row

    bool
    operator==(const DramCoord &o) const
    {
        return channel == o.channel && rank == o.rank &&
               bankGroup == o.bankGroup && bank == o.bank &&
               row == o.row && column == o.column;
    }

    /** Flat bank id within a channel: rank x bankGroup x bank. */
    unsigned
    bankInChannel(const DramGeometry &g) const
    {
        return (rank * g.bankGroups + bankGroup) * g.banksPerGroup + bank;
    }

    /** Flat bank id across the whole system. */
    unsigned
    flatBank(const DramGeometry &g) const
    {
        return channel * g.banksPerChannel() + bankInChannel(g);
    }
};

class AddressMap
{
  public:
    AddressMap() : AddressMap(DramGeometry{}, MapOrder::kChBgCoBaRo) {}

    /**
     * Place every field at its shift for @p order. dx_fatal names the
     * first field of @p geom that is not a power of two (channels,
     * ranks, bankGroups, banksPerGroup, rowBytes / kLineBytes) or a
     * zero row count.
     */
    AddressMap(const DramGeometry &geom, MapOrder order);

    /** Decompose a byte address (its line) into DRAM coordinates. */
    DramCoord
    decompose(Addr addr) const
    {
        const std::uint64_t line = addr >> kLineShift;
        DramCoord c;
        c.channel = static_cast<std::uint16_t>(channel_.of(line));
        c.rank = static_cast<std::uint16_t>(rank_.of(line));
        c.bankGroup = static_cast<std::uint16_t>(bankGroup_.of(line));
        c.bank = static_cast<std::uint16_t>(bank_.of(line));
        c.column = static_cast<std::uint32_t>(column_.of(line));
        const std::uint64_t row = line >> rowShift_;
        c.row = static_cast<std::uint32_t>(
            rowMask_ ? row & rowMask_ : row % geom_.rows);
        return c;
    }

    /** The channel field of a byte address, alone. */
    unsigned
    channelOf(Addr addr) const
    {
        return static_cast<unsigned>(channel_.of(addr >> kLineShift));
    }

    /** Recompose coordinates into the line base address (inverse). */
    Addr compose(const DramCoord &coord) const;

    const DramGeometry &geometry() const { return geom_; }
    MapOrder order() const { return order_; }

  private:
    /** One power-of-two field of a line address. */
    struct Field
    {
        unsigned shift = 0;
        std::uint64_t mask = 0;

        std::uint64_t of(std::uint64_t line) const
        {
            return (line >> shift) & mask;
        }
    };

    DramGeometry geom_;
    MapOrder order_;
    Field channel_, rank_, bankGroup_, bank_, column_;
    unsigned rowShift_ = 0; //!< the row sits above every field
    /** rows - 1 when rows is a power of two above 1, else 0: % rows. */
    std::uint64_t rowMask_ = 0;
};

} // namespace dx::mem

#endif // DX_MEM_ADDRESS_MAP_HH
