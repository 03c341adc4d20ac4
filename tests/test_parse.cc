// sim::parse_number, the one number reader behind every text input, and
// sim::env_number, the environment-variable rule built on it.
#include "sim/parse.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace opera::sim {
namespace {

// One row: the text, and the value it must parse to (nullopt = rejected).
template <class T>
struct Case {
  const char* text;
  std::optional<T> want;
};

template <class T>
void check(const std::vector<Case<T>>& cases, int base = 10) {
  for (const auto& c : cases) {
    const T sentinel = static_cast<T>(7);
    T got = sentinel;
    const bool ok = parse_number(c.text, &got, base);
    EXPECT_EQ(ok, c.want.has_value()) << "'" << c.text << "' base " << base;
    // A rejected value leaves the destination untouched.
    EXPECT_EQ(got, c.want.value_or(sentinel)) << "'" << c.text << "' base " << base;
  }
}

// The malformed shapes every integer type rejects.
template <class T>
std::vector<Case<T>> common_integer_rejects() {
  return {{"", std::nullopt},    {" 1", std::nullopt},  {"1 ", std::nullopt},
          {"+1", std::nullopt},  {"1x", std::nullopt},  {"0x10", std::nullopt},
          {"1.5", std::nullopt}, {"1e3", std::nullopt}, {"nan", std::nullopt},
          {"inf", std::nullopt}, {"-", std::nullopt}};
}

template <class T>
std::vector<Case<T>> with(std::vector<Case<T>> cases) {
  auto all = common_integer_rejects<T>();
  all.insert(all.end(), cases.begin(), cases.end());
  return all;
}

TEST(ParseNumber, Int) {
  check<int>(with<int>({{"0", 0},
                        {"42", 42},
                        {"-42", -42},
                        {"2147483647", 2147483647},
                        {"-2147483648", -2147483647 - 1},
                        {"2147483648", std::nullopt},
                        {"-2147483649", std::nullopt},
                        {"4294967298", std::nullopt}}));  // not 2 (mod 2^32)
}

TEST(ParseNumber, Int32) {
  check<std::int32_t>(with<std::int32_t>({{"15", 15},
                                          {"-1", -1},
                                          {"2147483647", INT32_MAX},
                                          {"2147483648", std::nullopt},
                                          {"-2147483649", std::nullopt}}));
}

TEST(ParseNumber, Int64) {
  check<std::int64_t>(with<std::int64_t>({{"5000000000", 5000000000},
                                          {"-5", -5},
                                          {"9223372036854775807", INT64_MAX},
                                          {"-9223372036854775808", INT64_MIN},
                                          {"9223372036854775808", std::nullopt},
                                          {"-9223372036854775809", std::nullopt},
                                          {"99999999999999999999", std::nullopt}}));
}

TEST(ParseNumber, Uint64Decimal) {
  check<std::uint64_t>(with<std::uint64_t>({{"0", 0},
                                            {"18446744073709551615", UINT64_MAX},
                                            {"18446744073709551616", std::nullopt},
                                            {"-1", std::nullopt},
                                            {"-0", std::nullopt},
                                            {"ff", std::nullopt}}));
}

TEST(ParseNumber, Uint64Hex) {
  // Not with<>: "1e3" is a hex number.
  check<std::uint64_t>({{"ff", 0xff},
                        {"1e3", 0x1e3},
                        {"00DEADBEEF00F00D", 0x00DEADBEEF00F00DULL},
                        {"ffffffffffffffff", UINT64_MAX},
                        {"10000000000000000", std::nullopt},  // 17 digits
                        {"", std::nullopt},
                        {" 1", std::nullopt},
                        {"+1", std::nullopt},
                        {"-1", std::nullopt},
                        {"1x", std::nullopt},
                        {"0x10", std::nullopt},
                        {"fg", std::nullopt},
                        {"nan", std::nullopt}},
                       16);
}

TEST(ParseNumber, Double) {
  check<double>({{"0.25", 0.25},
                 {"-1.5", -1.5},
                 {"2", 2.0},
                 {".5", 0.5},
                 {"1e3", 1000.0},
                 {"1e+20", 1e20},
                 {"0.10000000000000001", 0.1},  // %.17g round trip
                 {"", std::nullopt},
                 {" 1", std::nullopt},
                 {"+1", std::nullopt},
                 {"1x", std::nullopt},
                 {"0x1p3", std::nullopt},
                 {"nan", std::nullopt},
                 {"-nan", std::nullopt},
                 {"inf", std::nullopt},
                 {"-inf", std::nullopt},
                 {"infinity", std::nullopt},
                 {"1e400", std::nullopt},
                 {"-1e400", std::nullopt}});
}

TEST(ParseNumber, ReadsAViewWithoutATerminator) {
  const std::string text = "12345";
  int got = 0;
  ASSERT_TRUE(parse_number(std::string_view(text).substr(1, 2), &got));
  EXPECT_EQ(got, 23);
}

TEST(EnvNumber, UnsetOrEmptyKeepsTheFallback) {
  EXPECT_EQ(env_number("OPERA_TEST_THREADS", nullptr, 0), 0);
  EXPECT_EQ(env_number("OPERA_TEST_THREADS", "", 0), 0);
  EXPECT_EQ(env_number("OPERA_TEST_THREADS", "4", 0), 4);
  EXPECT_EQ(env_number("OPERA_POOL_THREADS", "-1", 0), -1);  // the caller's range rule
}

TEST(EnvNumberDeathTest, MalformedValueNamesTheVariableAndExits2) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT((void)env_number("OPERA_TEST_THREADS", "abc", 0),
              ::testing::ExitedWithCode(2), "OPERA_TEST_THREADS: 'abc'");
  EXPECT_EXIT((void)env_number("OPERA_POOL_THREADS", "4x", 0),
              ::testing::ExitedWithCode(2), "OPERA_POOL_THREADS: '4x'");
  EXPECT_EXIT((void)env_number("OPERA_POOL_THREADS", " 4", 0),
              ::testing::ExitedWithCode(2), "OPERA_POOL_THREADS");
}

}  // namespace
}  // namespace opera::sim
