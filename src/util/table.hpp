// Fixed-width console table rendering.
//
// The bench binaries print the paper's tables/figure series in the same
// row/column layout the paper uses; this helper keeps them aligned and
// readable in a terminal.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace greenvis::util {

enum class Align { kLeft, kRight };

/// Collects rows, then renders with per-column widths computed from content.
class TextTable {
 public:
  /// `headers` defines the column count for all subsequent rows.
  explicit TextTable(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Column alignment (defaults: first column left, the rest right — the shape
  /// of a metrics table).
  void set_align(std::size_t column, Align align);

  /// Render with a header underline and two-space column gutters.
  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Shorthand numeric cell formatting used by all bench binaries.
[[nodiscard]] std::string cell(double value, int decimals = 1);
[[nodiscard]] std::string cell_percent(double fraction, int decimals = 0);

}  // namespace greenvis::util
