#include "trace/csv.hpp"

#include <fstream>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace flare::trace {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void write_csv_row(std::ostream& out, const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) out << ',';
    out << csv_escape(fields[i]);
  }
  out << '\n';
}

void parse_csv_row(std::string_view line, CsvRow& row) {
  row.fields.clear();
  row.bytes.clear();
  // Unescaped text never outgrows the line, so `bytes` does not reallocate
  // below and the views taken into it stay valid.
  row.bytes.reserve(line.size());
  std::string& bytes = row.bytes;
  std::size_t start = 0;  ///< the current field's first byte in `bytes`
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          bytes += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        bytes += c;
      }
    } else if (c == '"') {
      if (bytes.size() != start) {
        throw ParseError("parse_csv_row: quote in the middle of a bare field");
      }
      in_quotes = true;
    } else if (c == ',') {
      row.fields.emplace_back(bytes.data() + start, bytes.size() - start);
      start = bytes.size();
    } else if (c != '\r') {
      bytes += c;
    }
  }
  if (in_quotes) throw ParseError("parse_csv_row: unterminated quoted field");
  row.fields.emplace_back(bytes.data() + start, bytes.size() - start);
}

void parse_csv_row(std::string_view line, const std::string& path,
                   std::size_t line_number, CsvRow& row) {
  try {
    parse_csv_row(line, row);
  } catch (const ParseError& e) {
    throw ParseError(path + ":" + std::to_string(line_number) + ": " +
                     e.what() + " — offending line '" + std::string(line) + "'");
  }
}

std::vector<std::string> parse_csv_row(const std::string& line) {
  CsvRow row;
  parse_csv_row(line, row);
  return {row.fields.begin(), row.fields.end()};
}

std::vector<std::string> parse_csv_row(const std::string& line,
                                       const std::string& path,
                                       std::size_t line_number) {
  CsvRow row;
  parse_csv_row(line, path, line_number, row);
  return {row.fields.begin(), row.fields.end()};
}

double parse_csv_double(std::string_view token, const std::string& path,
                        std::size_t line_number) {
  try {
    return util::parse_double(token);
  } catch (const ParseError&) {
    throw ParseError(path + ":" + std::to_string(line_number) +
                     ": not a number — offending token '" + std::string(token) +
                     "'");
  }
}

long long parse_csv_int(std::string_view token, const std::string& path,
                        std::size_t line_number) {
  try {
    return util::parse_int(token);
  } catch (const ParseError&) {
    throw ParseError(path + ":" + std::to_string(line_number) +
                     ": not an integer — offending token '" + std::string(token) +
                     "'");
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  return read_csv_content(path).lines;
}

CsvContent read_csv_content(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("read_lines: cannot open file: " + path);
  CsvContent content;
  std::string line;
  while (std::getline(in, line)) {
    // getline strips '\n' but reports eof only when the stream ran out
    // *before* finding one — i.e. the final line had no terminator.
    content.complete_final_line = !in.eof();
    if (!line.empty() && line != "\r") content.lines.push_back(line);
  }
  return content;
}

}  // namespace flare::trace
