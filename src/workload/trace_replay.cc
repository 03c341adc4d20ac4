#include "workload/trace_replay.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string_view>

#include "sim/parse.h"

namespace opera::workload {

namespace {

constexpr char kMagic[6] = {'O', 'P', 'T', 'R', '1', '\n'};

TraceParseResult fail(std::string message) {
  TraceParseResult r;
  r.error = std::move(message);
  return r;
}

// Every load error starts with the trace path, as checkpoint errors do, so
// a suite that names several traces says which one is bad.
TraceParseResult with_path(const std::string& path, TraceParseResult result) {
  if (!result.ok()) result.error = path + ": " + result.error;
  return result;
}

// Shared semantic validation for one record (both encodings route through
// here so CSV and binary can never drift on what a legal flow is).
std::string validate_record(std::size_t index, const FlowSpec& f,
                            sim::Time prev_start, std::int32_t num_hosts) {
  std::ostringstream err;
  if (f.start < prev_start) {
    err << "flow " << index << ": start " << f.start.picoseconds()
        << " ps precedes previous start " << prev_start.picoseconds()
        << " ps (traces must be time-sorted)";
  } else if (f.src_host < 0 || f.dst_host < 0) {
    err << "flow " << index << ": negative host id";
  } else if (num_hosts > 0 && (f.src_host >= num_hosts || f.dst_host >= num_hosts)) {
    err << "flow " << index << ": host id out of range (src " << f.src_host
        << ", dst " << f.dst_host << ", fabric has " << num_hosts << " hosts)";
  } else if (f.src_host == f.dst_host) {
    err << "flow " << index << ": src == dst (" << f.src_host << ")";
  } else if (f.size_bytes <= 0) {
    err << "flow " << index << ": non-positive size " << f.size_bytes;
  }
  return err.str();
}

// Little-endian fixed-width encode/decode (byte-exact on any host).
template <typename T>
void put_le(std::string& buf, T v) {
  auto u = static_cast<std::uint64_t>(v);
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    buf.push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
  }
}
template <typename T>
T get_le(const char* p) {
  std::uint64_t u = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    u |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return static_cast<T>(u);
}

constexpr std::size_t kRecordBytes = 8 + 4 + 4 + 8;  // start, src, dst, size

}  // namespace

const char* trace_csv_header() { return "start_ps,src_host,dst_host,size_bytes"; }

TraceParseResult parse_trace_csv(std::istream& in, std::int32_t num_hosts) {
  TraceParseResult result;
  std::string line;
  std::size_t line_no = 0;
  bool header_seen = false;
  sim::Time prev_start = sim::Time::zero();
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    if (!header_seen) {
      if (line != trace_csv_header()) {
        return fail("line " + std::to_string(line_no) +
                    ": bad header '" + line + "' (expected '" +
                    trace_csv_header() + "')");
      }
      header_seen = true;
      continue;
    }
    std::int64_t fields[4];
    std::size_t field = 0;
    std::size_t pos = 0;
    bool consumed_line = false;  // the 4th field must be the last
    while (pos <= line.size() && field < 4) {
      const std::size_t comma = line.find(',', pos);
      const std::size_t end = comma == std::string::npos ? line.size() : comma;
      if (!sim::parse_number(std::string_view(line).substr(pos, end - pos),
                             &fields[field])) {
        return fail("line " + std::to_string(line_no) + ": field " +
                    std::to_string(field + 1) + " is not an integer");
      }
      ++field;
      if (comma == std::string::npos) {
        consumed_line = true;
        break;
      }
      pos = comma + 1;
    }
    if (field != 4 || !consumed_line) {
      return fail("line " + std::to_string(line_no) +
                  ": expected 4 columns (start_ps,src_host,dst_host,size_bytes)");
    }
    FlowSpec f;
    f.start = sim::Time::ps(fields[0]);
    f.src_host = static_cast<std::int32_t>(fields[1]);
    f.dst_host = static_cast<std::int32_t>(fields[2]);
    f.size_bytes = fields[3];
    if (fields[1] != f.src_host || fields[2] != f.dst_host) {
      return fail("line " + std::to_string(line_no) + ": host id overflows int32");
    }
    if (std::string err = validate_record(result.flows.size(), f, prev_start,
                                          num_hosts);
        !err.empty()) {
      return fail("line " + std::to_string(line_no) + ": " + err);
    }
    prev_start = f.start;
    result.flows.push_back(f);
  }
  if (!header_seen) return fail("empty trace: missing header line");
  return result;
}

TraceParseResult load_trace_csv(const std::string& path, std::int32_t num_hosts) {
  std::ifstream in(path);
  return with_path(path, in ? parse_trace_csv(in, num_hosts) : fail("cannot open trace"));
}

void write_trace_csv(std::ostream& out, const std::vector<FlowSpec>& flows) {
  out << "# opera trace v1 (docs/TRACE_FORMAT.md)\n" << trace_csv_header() << "\n";
  char buf[96];
  for (const auto& f : flows) {
    std::snprintf(buf, sizeof buf, "%lld,%d,%d,%lld\n",
                  static_cast<long long>(f.start.picoseconds()), f.src_host,
                  f.dst_host, static_cast<long long>(f.size_bytes));
    out << buf;
  }
}

bool save_trace_csv(const std::string& path, const std::vector<FlowSpec>& flows) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace_csv(out, flows);
  return static_cast<bool>(out);
}

TraceParseResult parse_trace_binary(std::istream& in, std::int32_t num_hosts) {
  char magic[sizeof kMagic];
  if (!in.read(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    return fail("bad magic: not an OPTR1 binary trace");
  }
  char count_buf[8];
  if (!in.read(count_buf, sizeof count_buf)) {
    return fail("truncated trace: missing flow count");
  }
  const auto count = get_le<std::uint64_t>(count_buf);
  // The count is untrusted: reserve no more than the rest of the stream
  // can hold (nothing when it cannot tell), so a short file reports
  // truncation below instead of failing the allocation.
  std::uint64_t room = 0;
  if (const auto here = in.tellg(); here >= 0 && in.seekg(0, std::ios::end)) {
    room = static_cast<std::uint64_t>(in.tellg() - here) / kRecordBytes;
    in.seekg(here);
  }
  in.clear();
  TraceParseResult result;
  result.flows.reserve(static_cast<std::size_t>(std::min(count, room)));
  sim::Time prev_start = sim::Time::zero();
  char rec[kRecordBytes];
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!in.read(rec, sizeof rec)) {
      return fail("truncated trace: " + std::to_string(i) + " of " +
                  std::to_string(count) + " records present");
    }
    FlowSpec f;
    f.start = sim::Time::ps(get_le<std::int64_t>(rec));
    f.src_host = get_le<std::int32_t>(rec + 8);
    f.dst_host = get_le<std::int32_t>(rec + 12);
    f.size_bytes = get_le<std::int64_t>(rec + 16);
    if (std::string err = validate_record(i, f, prev_start, num_hosts);
        !err.empty()) {
      return fail(err);
    }
    prev_start = f.start;
    result.flows.push_back(f);
  }
  return result;
}

TraceParseResult load_trace_binary(const std::string& path, std::int32_t num_hosts) {
  std::ifstream in(path, std::ios::binary);
  return with_path(path, in ? parse_trace_binary(in, num_hosts) : fail("cannot open trace"));
}

void write_trace_binary(std::ostream& out, const std::vector<FlowSpec>& flows) {
  out.write(kMagic, sizeof kMagic);
  std::string buf;
  buf.reserve(8 + flows.size() * kRecordBytes);
  put_le<std::uint64_t>(buf, flows.size());
  for (const auto& f : flows) {
    put_le<std::int64_t>(buf, f.start.picoseconds());
    put_le<std::int32_t>(buf, f.src_host);
    put_le<std::int32_t>(buf, f.dst_host);
    put_le<std::int64_t>(buf, f.size_bytes);
  }
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

bool save_trace_binary(const std::string& path, const std::vector<FlowSpec>& flows) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  write_trace_binary(out, flows);
  return static_cast<bool>(out);
}

TraceParseResult load_trace(const std::string& path, std::int32_t num_hosts) {
  const bool csv = path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  return csv ? load_trace_csv(path, num_hosts) : load_trace_binary(path, num_hosts);
}

}  // namespace opera::workload
