#include "mem/address_map.hh"

#include <bit>

#include "common/logging.hh"

namespace dx::mem
{

std::string
to_string(MapOrder order)
{
    switch (order) {
      case MapOrder::kChBgCoBaRo: return "ChBgCoBaRo";
      case MapOrder::kChCoBgBaRo: return "ChCoBgBaRo";
      case MapOrder::kCoChBgBaRo: return "CoChBgBaRo";
    }
    return "unknown";
}

AddressMap::AddressMap(const DramGeometry &geom, MapOrder order)
    : geom_(geom), order_(order)
{
    if (geom_.rows == 0)
        dx_fatal("AddressMap: rows must be non-zero");
    if (geom_.rows > 1 && std::has_single_bit(geom_.rows))
        rowMask_ = geom_.rows - 1;

    // Lay the fields out LSB first; the row takes the remaining bits.
    unsigned shift = 0;
    const auto place = [&shift](Field &f, unsigned count,
                                const char *name) {
        if (!std::has_single_bit(count)) {
            dx_fatal("AddressMap: ", name, " = ", count,
                     " is not a power of two");
        }
        f.shift = shift;
        f.mask = count - 1;
        shift += static_cast<unsigned>(std::countr_zero(count));
    };
    const unsigned lines = geom_.linesPerRow();
    switch (order_) {
      case MapOrder::kChBgCoBaRo:
        place(channel_, geom_.channels, "channels");
        place(bankGroup_, geom_.bankGroups, "bankGroups");
        place(column_, lines, "rowBytes / kLineBytes");
        break;
      case MapOrder::kChCoBgBaRo:
        place(channel_, geom_.channels, "channels");
        place(column_, lines, "rowBytes / kLineBytes");
        place(bankGroup_, geom_.bankGroups, "bankGroups");
        break;
      case MapOrder::kCoChBgBaRo:
        place(column_, lines, "rowBytes / kLineBytes");
        place(channel_, geom_.channels, "channels");
        place(bankGroup_, geom_.bankGroups, "bankGroups");
        break;
    }
    place(bank_, geom_.banksPerGroup, "banksPerGroup");
    place(rank_, geom_.ranks, "ranks");
    rowShift_ = shift;
}

Addr
AddressMap::compose(const DramCoord &coord) const
{
    const auto at = [](std::uint64_t value, const Field &f) {
        return value << f.shift;
    };
    const std::uint64_t line =
        (std::uint64_t{coord.row} << rowShift_) | at(coord.rank, rank_) |
        at(coord.bank, bank_) | at(coord.bankGroup, bankGroup_) |
        at(coord.column, column_) | at(coord.channel, channel_);
    return line << kLineShift;
}

} // namespace dx::mem
