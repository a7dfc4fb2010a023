#include "net/ip_index.h"

#include <cassert>
#include <utility>

namespace ppsim::net {

void IpIndex::place(Cell cell) {
  std::size_t i = home(cell.ip);
  while (cells_[i].ip != 0) {
    assert(cells_[i].ip != cell.ip && "IP already indexed");
    i = (i + 1) & mask();
  }
  cells_[i] = cell;
}

void IpIndex::insert(IpAddress ip, std::uint32_t slot) {
  assert(!ip.is_unspecified());
  if (2 * (size_ + 1) > cells_.size()) {
    std::vector<Cell> old(cells_.size() * 2);
    std::swap(old, cells_);
    --shift_;
    for (const Cell& c : old)
      if (c.ip != 0) place(c);
  }
  place(Cell{ip.value(), slot});
  ++size_;
}

std::uint32_t IpIndex::erase(IpAddress ip) {
  if (ip.is_unspecified()) return kNone;
  std::size_t hole = home(ip.value());
  while (cells_[hole].ip != ip.value()) {
    if (cells_[hole].ip == 0) return kNone;
    hole = (hole + 1) & mask();
  }
  const std::uint32_t slot = cells_[hole].slot;
  // Backward shift: a later cell of the run moves into the hole when the
  // hole lies on its probe path, i.e. is no farther from the cell than the
  // cell's home is. The run ends at the first empty cell.
  for (std::size_t j = (hole + 1) & mask(); cells_[j].ip != 0;
       j = (j + 1) & mask()) {
    const std::size_t from_home = (j - home(cells_[j].ip)) & mask();
    if (from_home >= ((j - hole) & mask())) {
      cells_[hole] = cells_[j];
      hole = j;
    }
  }
  cells_[hole] = Cell{};
  --size_;
  return slot;
}

}  // namespace ppsim::net
