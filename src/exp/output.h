// Structured result emission for the bench/example binaries.
//
// Every binary builds a Report and feeds it typed tables; the CLI picks
// the rendering:
//   (default) human-readable aligned tables plus commentary notes;
//   --csv     streaming CSV (schema in docs/BENCH_OUTPUT.md);
//   --json    one JSON object per bench, emitted at exit.
// Numeric values are identical across formats — CI diffs the CSV.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/fabric.h"

namespace opera::exp {

enum class OutputFormat : std::uint8_t { kHuman, kCsv, kJson };

// Flags shared by all bench binaries: --full (paper scale), --csv, --json,
// --threads=N (sharded event loop; any packet fabric), --engine=NAME
// (simulation engine; Opera fabrics). Unknown arguments are ignored so
// binaries can add their own, read with the arg_* getters below. A
// malformed shared flag (--threads=-1, --engine=warp) exits 2 at parse
// time, naming the flag.
struct CliOptions {
  bool full = false;
  OutputFormat format = OutputFormat::kHuman;
  // Shard count for fabrics that support the sharded event loop; 0 = the
  // config/env default (see core::OperaConfig::threads).
  int threads = 0;
  // Simulation engine override, applied by exp::Experiment::build to any
  // run whose config didn't pin one itself; empty = no override.
  std::optional<core::EngineKind> engine;

  static CliOptions parse(int argc, char** argv);
  static bool has_flag(int argc, char** argv, const char* flag);

  // `--key=value` getters. The raw value, or null when the flag is absent.
  static const char* arg_value(int argc, char** argv, const char* key);
  // Typed getters return `fallback` when the flag is absent. A value that
  // does not parse in full ("--racks=sixteen", "--load=abc", "--load=")
  // prints the flag name to stderr and exits 2.
  static long arg_long(int argc, char** argv, const char* key, long fallback);
  static double arg_double(int argc, char** argv, const char* key, double fallback);
  static std::string arg_string(int argc, char** argv, const char* key,
                                const char* fallback);
};

// Peak resident-set size of this process in bytes (Linux VmHWM; 0 where
// the platform doesn't expose it). The scale benches report it so memory
// regressions — the k=24 slice-table story — are visible in CI artifacts.
[[nodiscard]] std::size_t peak_rss_bytes();

// Current resident-set size in bytes (Linux VmRSS; 0 where the platform
// doesn't expose it). exp::RunGuard polls it for the memory-pressure
// degradation path.
[[nodiscard]] std::size_t current_rss_bytes();

// One typed cell. Doubles carry their print precision so human, CSV and
// JSON renderings agree on the numeric text.
class Value {
 public:
  Value(const char* s) : data_(std::string(s)) {}
  Value(std::string s) : data_(std::move(s)) {}
  Value(double v, int decimals = 3) : data_(v), decimals_(decimals) {}
  template <typename T, std::enable_if_t<std::is_integral_v<T>, int> = 0>
  Value(T v) : data_(static_cast<std::int64_t>(v)) {}

  [[nodiscard]] bool is_string() const {
    return std::holds_alternative<std::string>(data_);
  }
  [[nodiscard]] std::string text() const;  // plain numeric/string text
  [[nodiscard]] std::string csv() const;   // text, quoted when needed
  [[nodiscard]] std::string json() const;  // quoted+escaped or numeric

 private:
  std::variant<std::string, double, std::int64_t> data_;
  int decimals_ = 3;
};

class Report;

// A named table with fixed columns; rows stream to stdout in human/CSV
// mode and buffer for JSON. Obtained from Report::table().
class Table {
 public:
  void row(std::vector<Value> cells);

  [[nodiscard]] const std::string& id() const { return id_; }
  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] const std::vector<std::vector<Value>>& rows() const { return rows_; }

 private:
  friend class Report;
  Table(Report& report, std::string id, std::vector<std::string> columns);
  void print_header() const;

  Report& report_;
  std::string id_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Value>> rows_;
  std::vector<std::size_t> widths_;  // human mode column widths
  bool header_printed_ = false;
};

class Report {
 public:
  Report(std::string bench, OutputFormat format);
  ~Report();  // calls finish()

  Report(const Report&) = delete;
  Report& operator=(const Report&) = delete;

  // Returns the table `id`, creating it with `columns` on first use.
  Table& table(const std::string& id, std::vector<std::string> columns);

  // Free-form commentary: printed in human mode, '#'-prefixed in CSV,
  // collected under "notes" in JSON. printf-style.
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  // Flushes JSON output; further use is invalid. Idempotent.
  void finish();

 private:
  friend class Table;

  std::string bench_;
  OutputFormat format_;
  std::vector<std::unique_ptr<Table>> tables_;  // creation order
  std::vector<std::string> notes_;
  bool finished_ = false;
};

}  // namespace opera::exp
