// Minimal RFC-4180-ish CSV reading/writing for trace persistence.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace flare::trace {

/// Quotes a field when it contains separators, quotes or newlines.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Writes one CSV record (with trailing newline).
void write_csv_row(std::ostream& out, const std::vector<std::string>& fields);

/// One parsed CSV record: `fields` view the unescaped field text held in
/// `bytes`, valid until the next parse into the same CsvRow. A loader that
/// reuses one CsvRow across its rows keeps both buffers' capacity, so
/// steady-state parsing allocates nothing.
struct CsvRow {
  std::vector<std::string_view> fields;
  std::string bytes;
};

/// Parses one CSV record into `row` (handles quoted fields with embedded
/// commas/quotes). Throws flare::ParseError on malformed quoting.
void parse_csv_row(std::string_view line, CsvRow& row);

/// Position-aware variant: malformed quoting raises a ParseError carrying
/// `path`, the 1-based `line_number` and the offending line.
void parse_csv_row(std::string_view line, const std::string& path,
                   std::size_t line_number, CsvRow& row);

/// The same parses, returning owned fields.
[[nodiscard]] std::vector<std::string> parse_csv_row(const std::string& line);
[[nodiscard]] std::vector<std::string> parse_csv_row(const std::string& line,
                                                     const std::string& path,
                                                     std::size_t line_number);

/// Numeric-token parsing with provenance: wraps util::parse_double /
/// util::parse_int so a bad token raises a ParseError naming the file, the
/// 1-based line number and the token itself.
[[nodiscard]] double parse_csv_double(std::string_view token,
                                      const std::string& path,
                                      std::size_t line_number);
[[nodiscard]] long long parse_csv_int(std::string_view token,
                                      const std::string& path,
                                      std::size_t line_number);

/// Reads all non-empty lines of a file; throws flare::ParseError when the
/// file cannot be opened.
[[nodiscard]] std::vector<std::string> read_lines(const std::string& path);

/// A file's non-empty lines plus whether the final line was newline-
/// terminated. Every writer in trace/ terminates the last record, so an
/// unterminated final line is the signature of a torn append — loaders must
/// reject it instead of silently parsing a half-written row.
struct CsvContent {
  std::vector<std::string> lines;
  bool complete_final_line = true;
};

/// read_lines plus torn-tail detection; throws flare::ParseError when the
/// file cannot be opened.
[[nodiscard]] CsvContent read_csv_content(const std::string& path);

}  // namespace flare::trace
