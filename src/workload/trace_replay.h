// Trace replay: load recorded (or composed) flow schedules from disk and
// feed them into exp::FctSweep / core::Network::submit_remapped exactly
// like a synthetic generator would. Two interchangeable encodings, both
// specified in docs/TRACE_FORMAT.md:
//
//   * CSV  — human-readable, one flow per line:
//              start_ps,src_host,dst_host,size_bytes
//            with a mandatory header line and '#' comments. Integer
//            picosecond starts keep the round trip exact (microsecond
//            columns would quantize FlowSpec::start).
//   * binary — "OPTR1\n" magic + little-endian fixed-width records for
//            multi-million-flow day-in-the-life schedules (24 bytes/flow
//            vs ~40 for CSV, no parsing on the hot path).
//
// Loading validates hard so a malformed trace fails the run, not the
// statistics: column count, integer syntax, non-decreasing start times,
// host ids in range (when a host count is given), src != dst, and
// non-negative sizes are all rejected with a line-numbered error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "workload/synthetic.h"

namespace opera::workload {

// Result of a trace load: either a flow list or a line-numbered error
// (load_trace* errors start with "<path>: ").
struct TraceParseResult {
  std::vector<FlowSpec> flows;
  std::string error;  // empty on success
  [[nodiscard]] bool ok() const { return error.empty(); }
};

// The exact CSV header every v1 trace must carry (column names double as
// the schema version fingerprint).
[[nodiscard]] const char* trace_csv_header();

// Parses a v1 CSV trace. `num_hosts` <= 0 skips the host-range check
// (replay onto an unknown fabric; submit_remapped wraps ids later).
[[nodiscard]] TraceParseResult parse_trace_csv(std::istream& in,
                                               std::int32_t num_hosts = 0);
[[nodiscard]] TraceParseResult load_trace_csv(const std::string& path,
                                              std::int32_t num_hosts = 0);

// Serializes `flows` as a v1 CSV trace (header + one line per flow).
void write_trace_csv(std::ostream& out, const std::vector<FlowSpec>& flows);
[[nodiscard]] bool save_trace_csv(const std::string& path,
                                  const std::vector<FlowSpec>& flows);

// Binary v1: 6-byte magic "OPTR1\n", uint64 flow count, then per flow
// int64 start_ps, int32 src, int32 dst, int64 size_bytes (little-endian).
[[nodiscard]] TraceParseResult parse_trace_binary(std::istream& in,
                                                  std::int32_t num_hosts = 0);
[[nodiscard]] TraceParseResult load_trace_binary(const std::string& path,
                                                 std::int32_t num_hosts = 0);
void write_trace_binary(std::ostream& out, const std::vector<FlowSpec>& flows);
[[nodiscard]] bool save_trace_binary(const std::string& path,
                                     const std::vector<FlowSpec>& flows);

// Dispatches on extension: ".csv" -> CSV, anything else -> binary.
[[nodiscard]] TraceParseResult load_trace(const std::string& path,
                                          std::int32_t num_hosts = 0);

}  // namespace opera::workload
