// Console table rendering for benchmark output.
//
// Every bench binary prints the rows/series of the paper table or figure it
// regenerates; this helper keeps the formatting consistent and also supports
// CSV emission so results can be plotted externally.
#ifndef SRC_COMMON_TABLE_H_
#define SRC_COMMON_TABLE_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace orion {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Adds one row. Values are pre-formatted strings; use Cell() helpers below.
  void AddRow(std::vector<std::string> cells);

  // Renders an aligned ASCII table.
  void Print(std::ostream& os) const;

  std::size_t num_rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with the given number of decimal places.
std::string Cell(double value, int decimals = 2);
std::string Cell(int value);
std::string Cell(std::size_t value);

}  // namespace orion

#endif  // SRC_COMMON_TABLE_H_
