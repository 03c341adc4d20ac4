// Trace replay (workload/trace_replay, docs/TRACE_FORMAT.md): exact
// round trips for both encodings (a composed day-in-the-life schedule is
// the golden payload), hard rejection of every malformed-input class the
// format doc promises to catch, and a replay smoke through a real Opera
// run per format.
#include "workload/trace_replay.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/opera_network.h"
#include "support/support.h"
#include "workload/day_in_the_life.h"

namespace opera::workload {
namespace {

// A composed day on the 16x4 testbed: a realistic mixed schedule
// (heavy-tailed poisson, incast bursts, storage chains, ring steps),
// already time-sorted as the trace format requires.
std::vector<FlowSpec> sample_day() {
  const auto spec = DayInTheLifeSpec::standard_day(sim::Time::us(200),
                                                   /*peak_load=*/0.3, /*seed=*/7);
  return day_in_the_life_workload(spec, /*num_hosts=*/64, /*hosts_per_rack=*/4,
                                  /*link_rate_bps=*/10e9);
}

void expect_same_flows(const std::vector<FlowSpec>& want,
                       const std::vector<FlowSpec>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].start.picoseconds(), got[i].start.picoseconds()) << "flow " << i;
    EXPECT_EQ(want[i].src_host, got[i].src_host) << "flow " << i;
    EXPECT_EQ(want[i].dst_host, got[i].dst_host) << "flow " << i;
    EXPECT_EQ(want[i].size_bytes, got[i].size_bytes) << "flow " << i;
  }
}

TEST(TraceReplay, SampleDayIsNonTrivialAndSorted) {
  const auto flows = sample_day();
  ASSERT_GT(flows.size(), 100u);
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_LE(flows[i - 1].start.picoseconds(), flows[i].start.picoseconds());
  }
}

TEST(TraceReplay, CsvRoundTripIsExact) {
  const auto flows = sample_day();
  std::ostringstream out;
  write_trace_csv(out, flows);
  std::istringstream in(out.str());
  const auto parsed = parse_trace_csv(in, /*num_hosts=*/64);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  expect_same_flows(flows, parsed.flows);
  // Serialize-parse-serialize is byte-identical: the golden fingerprint
  // that keeps the on-disk format from drifting.
  std::ostringstream again;
  write_trace_csv(again, parsed.flows);
  EXPECT_EQ(out.str(), again.str());
}

TEST(TraceReplay, BinaryRoundTripIsExact) {
  const auto flows = sample_day();
  std::ostringstream out(std::ios::binary);
  write_trace_binary(out, flows);
  // 6-byte magic + 8-byte count + 24 bytes per record, nothing else.
  EXPECT_EQ(out.str().size(), 14u + 24u * flows.size());
  std::istringstream in(out.str(), std::ios::binary);
  const auto parsed = parse_trace_binary(in, /*num_hosts=*/64);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  expect_same_flows(flows, parsed.flows);
  std::ostringstream again(std::ios::binary);
  write_trace_binary(again, parsed.flows);
  EXPECT_EQ(out.str(), again.str());
}

TEST(TraceReplay, CsvAcceptsCommentsBlankLinesAndCrlf) {
  std::istringstream in(
      "# a recorded trace\r\n"
      "\r\n"
      "start_ps,src_host,dst_host,size_bytes\r\n"
      "# mid-file comment\n"
      "0,0,1,1000\r\n"
      "5000,2,3,64000\n");
  const auto parsed = parse_trace_csv(in, 4);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  ASSERT_EQ(parsed.flows.size(), 2u);
  EXPECT_EQ(parsed.flows[1].start.picoseconds(), 5000);
  EXPECT_EQ(parsed.flows[1].size_bytes, 64000);
}

TEST(TraceReplay, EqualStartTimesAreLegal) {
  std::istringstream in(
      "start_ps,src_host,dst_host,size_bytes\n"
      "100,0,1,10\n"
      "100,1,2,10\n");
  EXPECT_TRUE(parse_trace_csv(in, 4).ok());
}

TEST(TraceReplay, CsvRejectsMalformedInputs) {
  const struct {
    const char* name;
    const char* text;
    const char* needle;  // must appear in the error
  } cases[] = {
      {"empty input", "", "missing header"},
      {"data before header", "0,0,1,100\n", "bad header"},
      {"wrong header", "start_us,src,dst,bytes\n0,0,1,100\n", "bad header"},
      {"three columns", "start_ps,src_host,dst_host,size_bytes\n0,0,1\n",
       "4 columns"},
      {"five columns", "start_ps,src_host,dst_host,size_bytes\n0,0,1,100,7\n",
       "4 columns"},
      {"non-integer field", "start_ps,src_host,dst_host,size_bytes\n0,0x,1,100\n",
       "not an integer"},
      {"float start", "start_ps,src_host,dst_host,size_bytes\n1.5,0,1,100\n",
       "not an integer"},
      {"plus sign", "start_ps,src_host,dst_host,size_bytes\n0,+0,1,100\n",
       "field 2 is not an integer"},
      {"padded field", "start_ps,src_host,dst_host,size_bytes\n0,0, 1,100\n",
       "field 3 is not an integer"},
      {"start overflows int64",
       "start_ps,src_host,dst_host,size_bytes\n9223372036854775808,0,1,100\n",
       "field 1 is not an integer"},
      {"decreasing start",
       "start_ps,src_host,dst_host,size_bytes\n500,0,1,100\n400,1,2,100\n",
       "time-sorted"},
      {"negative host", "start_ps,src_host,dst_host,size_bytes\n0,-1,1,100\n",
       "negative host"},
      {"src equals dst", "start_ps,src_host,dst_host,size_bytes\n0,3,3,100\n",
       "src == dst"},
      {"zero size", "start_ps,src_host,dst_host,size_bytes\n0,0,1,0\n",
       "non-positive size"},
      {"negative size", "start_ps,src_host,dst_host,size_bytes\n0,0,1,-5\n",
       "non-positive size"},
      {"host id overflows int32",
       "start_ps,src_host,dst_host,size_bytes\n0,4294967296,1,100\n",
       "overflows int32"},
  };
  const std::string path = ::testing::TempDir() + "malformed_trace.csv";
  for (const auto& c : cases) {
    std::istringstream in(c.text);
    const auto parsed = parse_trace_csv(in, /*num_hosts=*/16);
    EXPECT_FALSE(parsed.ok()) << c.name;
    EXPECT_NE(parsed.error.find(c.needle), std::string::npos)
        << c.name << ": got error '" << parsed.error << "'";
    // Loaded from a file, the same error starts with the file's path.
    std::ofstream(path) << c.text;
    const auto loaded = load_trace_csv(path, /*num_hosts=*/16);
    EXPECT_EQ(loaded.error, path + ": " + parsed.error) << c.name;
  }
}

TEST(TraceReplay, HostRangeCheckedOnlyAgainstAKnownFabric) {
  const std::string text =
      "start_ps,src_host,dst_host,size_bytes\n0,1000,2000,100\n";
  std::istringstream unknown(text);
  EXPECT_TRUE(parse_trace_csv(unknown, /*num_hosts=*/0).ok());
  std::istringstream known(text);
  const auto parsed = parse_trace_csv(known, /*num_hosts=*/64);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("out of range"), std::string::npos) << parsed.error;
}

TEST(TraceReplay, BinaryRejectsBadMagicAndTruncation) {
  const auto flows = sample_day();
  std::ostringstream out(std::ios::binary);
  write_trace_binary(out, flows);
  const std::string bytes = out.str();

  {
    std::istringstream in("NOPE!\n" + bytes.substr(6), std::ios::binary);
    const auto parsed = parse_trace_binary(in);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("bad magic"), std::string::npos) << parsed.error;
  }
  {
    // Count promises all flows but the last record is cut short.
    std::istringstream in(bytes.substr(0, bytes.size() - 7), std::ios::binary);
    const auto parsed = parse_trace_binary(in);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("truncated"), std::string::npos) << parsed.error;
  }
  {
    // Magic only: the flow count itself is missing.
    std::istringstream in(bytes.substr(0, 6), std::ios::binary);
    const auto parsed = parse_trace_binary(in);
    EXPECT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("flow count"), std::string::npos) << parsed.error;
  }
}

// The flow count is untrusted: a 14-byte file claiming 2^64 - 1 records
// must report truncation, not fail the up-front allocation.
TEST(TraceReplay, BinaryHugeCountReportsTruncation) {
  std::string bytes = "OPTR1\n";
  bytes.append(8, '\xff');
  std::istringstream in(bytes, std::ios::binary);
  const auto parsed = parse_trace_binary(in);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("truncated trace: 0 of 18446744073709551615"),
            std::string::npos)
      << parsed.error;

  const std::string path = ::testing::TempDir() + "huge_count_trace.bin";
  std::ofstream(path, std::ios::binary) << bytes;
  const auto loaded = load_trace_binary(path);
  EXPECT_EQ(loaded.error, path + ": " + parsed.error);
}

TEST(TraceReplay, BinaryRunsTheSameSemanticValidationAsCsv) {
  // Encode a semantically-broken record (src == dst); the shared
  // validator must reject it on the binary path too.
  std::vector<FlowSpec> bad(1);
  bad[0].src_host = 2;
  bad[0].dst_host = 2;
  bad[0].size_bytes = 100;
  bad[0].start = sim::Time::zero();
  std::ostringstream out(std::ios::binary);
  write_trace_binary(out, bad);
  std::istringstream in(out.str(), std::ios::binary);
  const auto parsed = parse_trace_binary(in, 16);
  EXPECT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("src == dst"), std::string::npos) << parsed.error;
}

TEST(TraceReplay, LoadTraceDispatchesOnExtension) {
  const auto flows = sample_day();
  const std::string csv_path = ::testing::TempDir() + "trace_replay_test.csv";
  const std::string bin_path = ::testing::TempDir() + "trace_replay_test.bin";
  ASSERT_TRUE(save_trace_csv(csv_path, flows));
  ASSERT_TRUE(save_trace_binary(bin_path, flows));
  const auto from_csv = load_trace(csv_path, 64);
  const auto from_bin = load_trace(bin_path, 64);
  ASSERT_TRUE(from_csv.ok()) << from_csv.error;
  ASSERT_TRUE(from_bin.ok()) << from_bin.error;
  expect_same_flows(flows, from_csv.flows);
  expect_same_flows(flows, from_bin.flows);
}

TEST(TraceReplay, LoadTraceReportsMissingFile) {
  const std::string path = ::testing::TempDir() + "no_such_trace.csv";
  const auto parsed = load_trace(path);
  EXPECT_EQ(parsed.error, path + ": cannot open trace");
}

// Replay smoke per format: a saved trace, loaded back, must drive a real
// Opera run to full completion — the same path bench_custom's
// `--scenario=trace:path=...` takes.
class TraceReplaySmoke : public ::testing::TestWithParam<bool> {};

TEST_P(TraceReplaySmoke, LoadedTraceDrivesAnOperaRun) {
  const bool csv = GetParam();
  // A small deterministic schedule: every rack 0/1 host sends one
  // low-latency flow and one modest bulk flow to a distant rack.
  std::vector<FlowSpec> flows;
  for (int i = 0; i < 8; ++i) {
    FlowSpec f;
    f.src_host = i;
    f.dst_host = 32 + i;
    f.size_bytes = (i % 2 == 0) ? 20'000 : 200'000;
    f.start = sim::Time::us(10 * i);
    flows.push_back(f);
  }
  const std::string path =
      ::testing::TempDir() + (csv ? "smoke_trace.csv" : "smoke_trace.bin");
  ASSERT_TRUE(csv ? save_trace_csv(path, flows) : save_trace_binary(path, flows));
  const auto loaded = load_trace(path, 64);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.flows.size(), flows.size());

  core::OperaNetwork net(support::opera_testbed(support::kMixedK8));
  for (const auto& f : loaded.flows) {
    net.submit_flow(f.src_host, f.dst_host, f.size_bytes, f.start);
  }
  net.run_until(sim::Time::ms(20));
  EXPECT_EQ(net.tracker().completed(), flows.size());
}

INSTANTIATE_TEST_SUITE_P(BothFormats, TraceReplaySmoke, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "csv" : "binary";
                         });

}  // namespace
}  // namespace opera::workload
