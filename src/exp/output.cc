#include "exp/output.h"

#include <cassert>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace opera::exp {

namespace {

std::string format_double(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

[[noreturn]] void malformed_arg(char** argv, const char* key, const char* value) {
  std::fprintf(stderr, "%s: malformed value for %s: '%s'\n", argv[0], key, value);
  std::exit(2);
}

}  // namespace

CliOptions CliOptions::parse(int argc, char** argv) {
  CliOptions opts;
  opts.full = has_flag(argc, argv, "--full");
  if (has_flag(argc, argv, "--json")) {
    opts.format = OutputFormat::kJson;
  } else if (has_flag(argc, argv, "--csv")) {
    opts.format = OutputFormat::kCsv;
  }
  const long threads = arg_long(argc, argv, "--threads", 0);
  if (threads < 0 || threads > INT_MAX) {
    malformed_arg(argv, "--threads", arg_value(argc, argv, "--threads"));
  }
  opts.threads = static_cast<int>(threads);
  if (const char* engine = arg_value(argc, argv, "--engine")) {
    opts.engine = core::parse_engine_kind(engine);
    if (!opts.engine) malformed_arg(argv, "--engine", engine);
  }
  return opts;
}

const char* CliOptions::arg_value(int argc, char** argv, const char* key) {
  const std::size_t len = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, len) == 0 && argv[i][len] == '=') {
      return argv[i] + len + 1;
    }
  }
  return nullptr;
}

long CliOptions::arg_long(int argc, char** argv, const char* key, long fallback) {
  const char* v = arg_value(argc, argv, key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE) malformed_arg(argv, key, v);
  return parsed;
}

double CliOptions::arg_double(int argc, char** argv, const char* key, double fallback) {
  const char* v = arg_value(argc, argv, key);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(parsed)) {
    malformed_arg(argv, key, v);
  }
  return parsed;
}

std::string CliOptions::arg_string(int argc, char** argv, const char* key,
                                   const char* fallback) {
  const char* v = arg_value(argc, argv, key);
  return v != nullptr ? v : fallback;
}

bool CliOptions::has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::string Value::text() const {
  if (const auto* s = std::get_if<std::string>(&data_)) return *s;
  if (const auto* d = std::get_if<double>(&data_)) {
    return format_double(*d, decimals_);
  }
  return std::to_string(std::get<std::int64_t>(data_));
}

std::string Value::csv() const {
  std::string t = text();
  if (t.find_first_of(",\"\n") == std::string::npos) return t;
  std::string out = "\"";
  for (const char c : t) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string Value::json() const {
  if (is_string()) return json_escape(std::get<std::string>(data_));
  return text();
}

Table::Table(Report& report, std::string id, std::vector<std::string> columns)
    : report_(report), id_(std::move(id)), columns_(std::move(columns)) {
  for (const auto& c : columns_) {
    widths_.push_back(c.size() < 10 ? 10 : c.size());
  }
}

void Table::print_header() const {
  if (report_.format_ == OutputFormat::kCsv) {
    // Header rows lead with the literal field "table"; data rows lead with
    // the table id (docs/BENCH_OUTPUT.md).
    std::fputs("table", stdout);
    for (const auto& c : columns_) std::printf(",%s", c.c_str());
    std::fputc('\n', stdout);
  } else if (report_.format_ == OutputFormat::kHuman) {
    std::printf("\n[%s]\n", id_.c_str());
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      std::printf("%-*s  ", static_cast<int>(widths_[i]), columns_[i].c_str());
    }
    std::fputc('\n', stdout);
  }
}

void Table::row(std::vector<Value> cells) {
  // Human-readable rows sit under the last printed header, so a table
  // whose rows resume after another table's re-prints its own.
  const bool resumed = report_.format_ == OutputFormat::kHuman &&
                       report_.last_printed_ != this;
  if (!header_printed_ || resumed) {
    print_header();
    header_printed_ = true;
  }
  report_.last_printed_ = this;
  if (report_.format_ == OutputFormat::kCsv) {
    std::fputs(Value(id_).csv().c_str(), stdout);
    for (const auto& v : cells) std::printf(",%s", v.csv().c_str());
    std::fputc('\n', stdout);
    std::fflush(stdout);
  } else if (report_.format_ == OutputFormat::kHuman) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const int w = static_cast<int>(i < widths_.size() ? widths_[i] : 10);
      const std::string t = cells[i].text();
      if (cells[i].is_string()) {
        std::printf("%-*s  ", w, t.c_str());
      } else {
        std::printf("%*s  ", w, t.c_str());
      }
    }
    std::fputc('\n', stdout);
    std::fflush(stdout);
  }
  rows_.push_back(std::move(cells));
}

Report::Report(std::string bench, OutputFormat format)
    : bench_(std::move(bench)), format_(format) {
  if (format_ == OutputFormat::kHuman) {
    std::printf("==============================================================\n");
    std::printf("%s\n", bench_.c_str());
    std::printf("==============================================================\n");
  } else if (format_ == OutputFormat::kCsv) {
    std::printf("# bench: %s\n", bench_.c_str());
  }
}

Report::~Report() { finish(); }

Table& Report::table(const std::string& id, std::vector<std::string> columns) {
  for (auto& t : tables_) {
    if (t->id() == id) {
      // Re-lookup with {} is fine; a *different* column list would emit
      // headers that no longer describe the rows.
      assert(columns.empty() || columns == t->columns());
      return *t;
    }
  }
  tables_.push_back(std::unique_ptr<Table>(new Table(*this, id, std::move(columns))));
  return *tables_.back();
}

void Report::note(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  notes_.emplace_back(buf);
  if (format_ == OutputFormat::kHuman) {
    std::printf("%s\n", buf);
  } else if (format_ == OutputFormat::kCsv) {
    // Prefix every line of the note so the CSV stays machine-readable.
    std::string line;
    for (const char* p = buf;; ++p) {
      if (*p == '\n' || *p == '\0') {
        if (!line.empty()) std::printf("# %s\n", line.c_str());
        line.clear();
        if (*p == '\0') break;
      } else {
        line += *p;
      }
    }
  }
  std::fflush(stdout);
}

void Report::finish() {
  if (finished_) return;
  finished_ = true;
  if (format_ != OutputFormat::kJson) return;
  std::printf("{\"bench\":%s,\"tables\":{", Value(bench_).json().c_str());
  for (std::size_t t = 0; t < tables_.size(); ++t) {
    const auto& table = *tables_[t];
    if (t > 0) std::fputc(',', stdout);
    std::printf("%s:{\"columns\":[", Value(table.id()).json().c_str());
    for (std::size_t c = 0; c < table.columns().size(); ++c) {
      if (c > 0) std::fputc(',', stdout);
      std::fputs(Value(table.columns()[c]).json().c_str(), stdout);
    }
    std::fputs("],\"rows\":[", stdout);
    for (std::size_t r = 0; r < table.rows().size(); ++r) {
      if (r > 0) std::fputc(',', stdout);
      std::fputc('[', stdout);
      const auto& row = table.rows()[r];
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c > 0) std::fputc(',', stdout);
        std::fputs(row[c].json().c_str(), stdout);
      }
      std::fputc(']', stdout);
    }
    std::fputs("]}", stdout);
  }
  std::fputs("},\"notes\":[", stdout);
  for (std::size_t n = 0; n < notes_.size(); ++n) {
    if (n > 0) std::fputc(',', stdout);
    std::fputs(Value(notes_[n]).json().c_str(), stdout);
  }
  std::fputs("]}\n", stdout);
  std::fflush(stdout);
}

namespace {

// Shared /proc/self/status field reader for the RSS probes below.
std::size_t proc_status_kb(const char* field, std::size_t field_len) {
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::size_t kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, field_len) == 0) {
      kb = std::strtoull(line + field_len, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb * 1024;
#else
  (void)field;
  (void)field_len;
  return 0;
#endif
}

}  // namespace

std::size_t peak_rss_bytes() { return proc_status_kb("VmHWM:", 6); }

std::size_t current_rss_bytes() { return proc_status_kb("VmRSS:", 6); }

}  // namespace opera::exp
