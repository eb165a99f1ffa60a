#include "src/common/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "src/common/check.h"

namespace orion {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  ORION_CHECK(!headers_.empty());
}

void Table::AddRow(std::vector<std::string> cells) {
  ORION_CHECK_MSG(cells.size() == headers_.size(),
                  "row has " << cells.size() << " cells, expected " << headers_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << " " << cells[c] << std::string(widths[c] - cells[c].size(), ' ') << " |";
    }
    os << "\n";
  };
  auto print_rule = [&]() {
    os << "|";
    for (std::size_t width : widths) {
      os << std::string(width + 2, '-') << "|";
    }
    os << "\n";
  };
  print_rule();
  print_row(headers_);
  print_rule();
  for (const auto& row : rows_) {
    print_row(row);
  }
  print_rule();
}

std::string Cell(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string Cell(int value) { return std::to_string(value); }

std::string Cell(std::size_t value) { return std::to_string(value); }

}  // namespace orion
