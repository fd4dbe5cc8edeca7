// Markdown table printer shared by all benchmark binaries, so every
// experiment of the T1–T12 set (README.md, "Benchmarks") renders a uniform,
// copy-pastable table.
#pragma once

#include <cstdio>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace swsig::util {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  // Row cells as preformatted strings.
  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  static std::string num(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  }

  static std::string num(std::uint64_t v) { return std::to_string(v); }
  static std::string num(int v) { return std::to_string(v); }

  void print(std::ostream& out = std::cout) const {
    std::vector<std::size_t> widths(headers_.size(), 0);
    for (std::size_t c = 0; c < headers_.size(); ++c)
      widths[c] = headers_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
        widths[c] = std::max(widths[c], row[c].size());

    auto emit = [&](const std::vector<std::string>& cells) {
      out << "|";
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& cell = c < cells.size() ? cells[c] : empty_;
        out << ' ' << cell << std::string(widths[c] - cell.size(), ' ')
            << " |";
      }
      out << '\n';
    };

    emit(headers_);
    out << "|";
    for (std::size_t c = 0; c < headers_.size(); ++c)
      out << std::string(widths[c] + 2, '-') << "|";
    out << '\n';
    for (const auto& row : rows_) emit(row);
    out.flush();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::string empty_;
};

}  // namespace swsig::util
