// Checkpoint/restore round trips (docs/CHECKPOINT.md).
//
// The format tests pin the text schema: write/parse round trips, loud
// line-numbered rejection of truncated / corrupted / version-skewed files.
// The replay tests pin the contract that matters: a checkpoint taken
// mid-run — mid-failure-storm, mid-gray, on every fabric and on the fluid
// engine — restores on a freshly built fabric at any --threads=N, verifies
// the multi-layer fingerprint at the snapshot time, and finishes the run
// bit-identical to one that was never interrupted (completions, TorStats,
// event counts, final digest).
#include "sim/checkpoint.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/fabric.h"
#include "core/network.h"
#include "exp/run_guard.h"
#include "fluid/fluid_network.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "support/support.h"
#include "workload/synthetic.h"

namespace opera {
namespace {

// ---------------------------------------------------------------------------
// Fingerprint
// ---------------------------------------------------------------------------

TEST(Fingerprint, OrderSensitive) {
  sim::Fingerprint ab;
  ab.mix_u64(1);
  ab.mix_u64(2);
  sim::Fingerprint ba;
  ba.mix_u64(2);
  ba.mix_u64(1);
  EXPECT_NE(ab.digest(), ba.digest());
}

TEST(Fingerprint, CountGuardsAgainstExtension) {
  // Mixing an extra zero must change the digest: the finalizer folds the
  // mix count in, so "same xor, different lengths" cannot collide.
  sim::Fingerprint a;
  a.mix_u64(7);
  sim::Fingerprint b;
  b.mix_u64(7);
  b.mix_u64(0);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Fingerprint, DoubleUsesBitPattern) {
  sim::Fingerprint pos;
  pos.mix_double(0.0);
  sim::Fingerprint neg;
  neg.mix_double(-0.0);
  EXPECT_NE(pos.digest(), neg.digest());
}

TEST(Fingerprint, Deterministic) {
  const auto digest_of = [] {
    sim::Fingerprint fp;
    fp.mix_time(sim::Time::us(3));
    fp.mix_bool(true);
    fp.mix_bytes("opera");
    return fp.digest();
  };
  EXPECT_EQ(digest_of(), digest_of());
}

// ---------------------------------------------------------------------------
// Text format
// ---------------------------------------------------------------------------

sim::CheckpointData sample_data() {
  sim::CheckpointData data;
  data.run.push_back({"run_label", "permutation"});
  data.run.push_back({"scenario", "gray:links=6,loss=0.05;skew:switch=3"});
  data.run.push_back({"empty_value", ""});
  data.config.push_back({"kind", "opera"});
  data.config.push_back({"seed", "42"});
  data.flows.push_back(sim::CheckpointFlow{1000, 0, 5, 1500});
  data.flows.push_back(sim::CheckpointFlow{2000, 5, 0, 64000});
  data.state.push_back({"time_ps", "5000000000"});
  data.state.push_back({"fingerprint", "00DEADBEEF00F00D"});
  return data;
}

TEST(CheckpointFormat, WriteParseRoundTrip) {
  const auto data = sample_data();
  const auto parsed = sim::parse_checkpoint(sim::write_checkpoint_text(data),
                                            "roundtrip");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.data.version, sim::kCheckpointSchemaVersion);
  ASSERT_EQ(parsed.data.run.size(), data.run.size());
  for (std::size_t i = 0; i < data.run.size(); ++i) {
    EXPECT_EQ(parsed.data.run[i].key, data.run[i].key);
    EXPECT_EQ(parsed.data.run[i].value, data.run[i].value);
  }
  ASSERT_EQ(parsed.data.flows.size(), 2u);
  EXPECT_EQ(parsed.data.flows[1].start_ps, 2000);
  EXPECT_EQ(parsed.data.flows[1].src_host, 5);
  EXPECT_EQ(parsed.data.flows[1].dst_host, 0);
  EXPECT_EQ(parsed.data.flows[1].size_bytes, 64000);
  ASSERT_NE(sim::find_entry(parsed.data.state, "fingerprint"), nullptr);
  EXPECT_EQ(*sim::find_entry(parsed.data.state, "fingerprint"),
            "00DEADBEEF00F00D");
  EXPECT_EQ(sim::find_entry(parsed.data.state, "no_such_key"), nullptr);
}

TEST(CheckpointFormat, ValuesMayContainSpaces) {
  sim::CheckpointData data;
  data.run.push_back({"run_label", "day in the life"});
  const auto parsed =
      sim::parse_checkpoint(sim::write_checkpoint_text(data), "spaces");
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(*sim::find_entry(parsed.data.run, "run_label"), "day in the life");
}

TEST(CheckpointFormat, TruncatedFileRejectedWithLineNumber) {
  const auto text = sim::write_checkpoint_text(sample_data());
  const auto cut = text.substr(0, text.size() / 2);
  const auto parsed = sim::parse_checkpoint(cut, "cut.ckpt");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("cut.ckpt:"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("truncated"), std::string::npos) << parsed.error;
}

TEST(CheckpointFormat, CorruptedContentRejectedWithLineNumber) {
  auto text = sim::write_checkpoint_text(sample_data());
  const auto pos = text.find("permutation");
  ASSERT_NE(pos, std::string::npos);
  text[pos] = 'X';  // flip one byte; the trailing checksum must catch it
  const auto parsed = sim::parse_checkpoint(text, "bad.ckpt");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("bad.ckpt:"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("checksum"), std::string::npos) << parsed.error;
}

TEST(CheckpointFormat, VersionMismatchRejected) {
  auto text = sim::write_checkpoint_text(sample_data());
  const std::string header = "OPERA-CHECKPOINT v";
  const auto pos = text.find(header);
  ASSERT_EQ(pos, 0u);
  text.replace(pos + header.size(), 1, "9");
  const auto parsed = sim::parse_checkpoint(text, "skew.ckpt");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("skew.ckpt:1:"), std::string::npos)
      << parsed.error;
  EXPECT_NE(parsed.error.find("schema v9 is not supported"), std::string::npos)
      << parsed.error;
}

// Replaces `from` with `to` in checkpoint text and re-signs the result, so
// the edit reaches the section grammar instead of the checksum gate.
std::string edit_and_resign(std::string text, const std::string& from,
                            const std::string& to) {
  const auto pos = text.find(from);
  EXPECT_NE(pos, std::string::npos) << from;
  if (pos == std::string::npos) return text;
  text.replace(pos, from.size(), to);
  text.erase(text.rfind("checksum "));
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, as the writer signs
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "checksum %016" PRIx64 "\n", h);
  return text + buf;
}

// The [flows] count is untrusted: a count no file could hold must report
// the list cut short, not fail the up-front allocation.
TEST(CheckpointFormat, HugeFlowCountReportsTheListCutShort) {
  auto data = sample_data();
  data.state.clear();
  // The flows run to the checksum line, so the list ends there.
  auto text = edit_and_resign(sim::write_checkpoint_text(data), "[state]\n[end]\n", "");
  text = edit_and_resign(text, "[flows] 2", "[flows] 18446744073709551615");
  const auto parsed = sim::parse_checkpoint(text, "huge.ckpt");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("huge.ckpt:"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("flow list cut short"), std::string::npos) << parsed.error;
}

TEST(CheckpointFormat, MalformedFlowFieldsRejectedWithLineNumber) {
  const auto good = sim::write_checkpoint_text(sample_data());
  // Hosts are int32: 2^32 must not wrap to 0. Signs and padding are
  // malformed in every field.
  for (const char* bad : {"1000 4294967296 5 1500", "1000 0 -2147483649 1500",
                          "1000 +0 5 1500", "1000 0 5 1500x", "1000 0 5 1e3"}) {
    const auto parsed =
        sim::parse_checkpoint(edit_and_resign(good, "1000 0 5 1500", bad), "flows.ckpt");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.error.find("flows.ckpt:"), std::string::npos) << parsed.error;
    EXPECT_NE(parsed.error.find("malformed flow line"), std::string::npos)
        << parsed.error;
  }
  for (const char* bad : {"[flows] -1", "[flows] +2", "[flows] 2x"}) {
    const auto parsed =
        sim::parse_checkpoint(edit_and_resign(good, "[flows] 2", bad), "flows.ckpt");
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.error.find("malformed [flows] header"), std::string::npos)
        << parsed.error;
  }
}

TEST(CheckpointFormat, GarbageRejected) {
  const auto parsed = sim::parse_checkpoint("not a checkpoint\n", "junk");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.error.find("junk:1:"), std::string::npos) << parsed.error;
}

// ---------------------------------------------------------------------------
// FabricConfig serialization
// ---------------------------------------------------------------------------

core::FabricConfig sample_config() {
  auto config = core::FabricConfig::make(core::FabricKind::kOpera).scale(16, 4);
  config.seed = 42;
  config.threads = 2;
  config.slice_table_window = 8;
  config.enable_vlb = true;
  return config;
}

TEST(FabricConfigSerialization, RoundTripIsExact) {
  const auto config = sample_config();
  const auto entries = core::serialize_fabric_config(config);
  core::FabricConfig restored;
  ASSERT_EQ(core::parse_fabric_config(entries, &restored), "");
  // FabricConfig has no operator==; the serialized form is the equality
  // we actually care about (it is what the replay rebuilds from).
  const auto re_entries = core::serialize_fabric_config(restored);
  ASSERT_EQ(entries.size(), re_entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].key, re_entries[i].key);
    EXPECT_EQ(entries[i].value, re_entries[i].value) << entries[i].key;
  }
}

TEST(FabricConfigSerialization, MissingKeyFallsBackToDefault) {
  auto entries = core::serialize_fabric_config(sample_config());
  std::erase_if(entries, [](const sim::CheckpointEntry& e) {
    return e.key == "slice_table_window";
  });
  core::FabricConfig restored;
  ASSERT_EQ(core::parse_fabric_config(entries, &restored), "");
  EXPECT_EQ(restored.slice_table_window, core::FabricConfig{}.slice_table_window);
  EXPECT_EQ(restored.seed, 42u);  // the rest still parsed
}

TEST(FabricConfigSerialization, UnknownKeyRejected) {
  auto entries = core::serialize_fabric_config(sample_config());
  entries.push_back({"from_the_future", "1"});
  core::FabricConfig restored;
  const auto err = core::parse_fabric_config(entries, &restored);
  EXPECT_NE(err.find("from_the_future"), std::string::npos) << err;
}

TEST(FabricConfigSerialization, MalformedValueRejected) {
  // A double must be finite; no value may carry '+' or padding.
  const std::pair<const char*, const char*> cases[] = {
      {"seed", "not-a-number"},        {"link.rate_bps", "nan"},
      {"link.rate_bps", "inf"},        {"link.rate_bps", "1e400"},
      {"link.rate_bps", "+1e10"},      {"opera.num_racks", " 16"},
      {"slice.duration_ps", "99000000x"}, {"enable_vlb", "2"},
  };
  for (const auto& [key, value] : cases) {
    auto entries = core::serialize_fabric_config(sample_config());
    for (auto& e : entries) {
      if (e.key == key) e.value = value;
    }
    core::FabricConfig restored;
    const auto err = core::parse_fabric_config(entries, &restored);
    EXPECT_NE(err.find(std::string("malformed value for [config] key '") + key + "'"),
              std::string::npos)
        << key << "=" << value << ": " << err;
  }
}

TEST(FabricConfigSerialization, OutOfRangeIntegerRejected) {
  // Each value parses as some integer but does not fit its field: the
  // 32-bit rack count (4294967312 = 2^32 + 16 must not wrap to 16), an
  // int, and an unsigned seed given a sign.
  const std::pair<const char*, const char*> cases[] = {
      {"opera.num_racks", "4294967312"},
      {"threads", "2147483648"},
      {"clos.radix", "-2147483649"},
      {"seed", "-1"},
  };
  for (const auto& [key, value] : cases) {
    auto entries = core::serialize_fabric_config(sample_config());
    for (auto& e : entries) {
      if (e.key == key) e.value = value;
    }
    core::FabricConfig restored;
    const auto err = core::parse_fabric_config(entries, &restored);
    EXPECT_NE(err.find(std::string("malformed value for [config] key '") + key + "'"),
              std::string::npos)
        << key << "=" << value << ": " << err;
  }
}

TEST(FabricConfigSerialization, EveryKeyWiresToItsOwnField) {
  // Sets each key, in turn, to a legal value other than its default and
  // checks that re-serializing moves that key and no other: a table entry
  // bound to the wrong field fails here even where a round trip of a
  // mostly-default config would not.
  const auto defaults = core::serialize_fabric_config(core::FabricConfig{});
  ASSERT_FALSE(defaults.empty());
  for (std::size_t k = 0; k < defaults.size(); ++k) {
    const std::string& key = defaults[k].key;
    const std::string& value = defaults[k].value;
    std::string changed;
    if (key == "kind") {
      changed = value == "clos" ? "opera" : "clos";
    } else if (key == "engine") {
      changed = value == "fluid" ? "packet" : "fluid";
    } else {
      // Every other key is an integer, bool, time or integral double.
      ASSERT_EQ(value.find_first_not_of("-0123456789"), std::string::npos)
          << key << "=" << value;
      changed = value == "1" ? "0" : std::to_string(std::stoll(value) + 1);
    }
    auto entries = defaults;
    entries[k].value = changed;
    core::FabricConfig parsed;
    ASSERT_EQ(core::parse_fabric_config(entries, &parsed), "") << key;
    const auto reserialized = core::serialize_fabric_config(parsed);
    ASSERT_EQ(reserialized.size(), defaults.size());
    for (std::size_t i = 0; i < defaults.size(); ++i) {
      EXPECT_EQ(reserialized[i].key, defaults[i].key);
      EXPECT_EQ(reserialized[i].value, i == k ? changed : defaults[i].value)
          << "setting '" << key << "' moved '" << defaults[i].key << "'";
    }
  }
}

// ---------------------------------------------------------------------------
// Run recipe round trip + deterministic replay across thread counts
// ---------------------------------------------------------------------------

// A 64-host permutation of 500 KB flows on the 16x4 testbed of `kind`,
// run by `engine`.
exp::RunRecipe make_recipe(const std::string& scenario,
                           core::FabricKind kind = core::FabricKind::kOpera,
                           core::EngineKind engine = core::EngineKind::kPacket) {
  exp::RunRecipe recipe;
  recipe.run_label = "permutation";
  recipe.fabric_label = core::fabric_kind_name(kind);
  recipe.load_pct = 12.5;
  recipe.scenario = scenario;
  recipe.config = core::FabricConfig::make(kind).scale(16, 4);
  recipe.config.engine = engine;
  recipe.config.seed = 9;
  sim::Rng rng(10);
  recipe.flows = workload::permutation_workload(recipe.config.num_hosts(), 4,
                                                500 * 1000, rng);
  recipe.horizon = sim::Time::ms(25);
  return recipe;
}

// The resume rebuild (exp::rebuild_run) at `threads` shards, run to
// `until`.
std::unique_ptr<core::Network> replay(exp::RunRecipe recipe, int threads,
                                      sim::Time until) {
  recipe.config.threads = threads;
  auto net = exp::rebuild_run(recipe);
  net->run_until(until);
  return net;
}

TEST(RunRecipe, CheckpointRoundTripPreservesRecipe) {
  const auto recipe = make_recipe("gray:links=4,loss=0.05,start-ms=1");
  const auto net = replay(recipe, 1, sim::Time::ms(3));
  const auto data = exp::make_run_checkpoint(recipe, *net);
  const auto parsed =
      sim::parse_checkpoint(sim::write_checkpoint_text(data), "recipe");
  ASSERT_TRUE(parsed.ok()) << parsed.error;

  exp::RunRecipe restored;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  ASSERT_EQ(exp::recipe_from_checkpoint(parsed.data, &restored, &resume_time,
                                        &resume_digest),
            "");
  EXPECT_EQ(restored.run_label, recipe.run_label);
  EXPECT_EQ(restored.fabric_label, recipe.fabric_label);
  EXPECT_EQ(restored.load_pct, recipe.load_pct);
  EXPECT_EQ(restored.scenario, recipe.scenario);
  EXPECT_EQ(restored.horizon, recipe.horizon);
  ASSERT_EQ(restored.flows.size(), recipe.flows.size());
  for (std::size_t i = 0; i < recipe.flows.size(); ++i) {
    EXPECT_EQ(restored.flows[i].src_host, recipe.flows[i].src_host);
    EXPECT_EQ(restored.flows[i].dst_host, recipe.flows[i].dst_host);
    EXPECT_EQ(restored.flows[i].size_bytes, recipe.flows[i].size_bytes);
    EXPECT_EQ(restored.flows[i].start, recipe.flows[i].start);
  }
  EXPECT_EQ(resume_time, sim::Time::ms(3));
  EXPECT_EQ(resume_digest, exp::state_digest(*net));
}

TEST(RunRecipe, MissingStateKeysRejected) {
  const auto recipe = make_recipe("");
  const auto net = replay(recipe, 1, sim::Time::ms(1));
  auto data = exp::make_run_checkpoint(recipe, *net);
  std::erase_if(data.state, [](const sim::CheckpointEntry& e) {
    return e.key == "fingerprint";
  });
  exp::RunRecipe restored;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  const auto err = exp::recipe_from_checkpoint(data, &restored, &resume_time,
                                               &resume_digest);
  EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
}

// A time that does not parse in full must not fall back to 0: a [state]
// time_ps of 0 means "fresh run", which would skip digest verification.
TEST(RunRecipe, MalformedTimesRejected) {
  const auto recipe = make_recipe("");
  const auto net = replay(recipe, 1, sim::Time::ms(1));
  const auto good = exp::make_run_checkpoint(recipe, *net);
  for (const char* key : {"horizon_ps", "time_ps"}) {
    for (const char* bad : {"", "abc", "1000x", "-5", "99999999999999999999"}) {
      auto data = good;
      for (auto* section : {&data.run, &data.state}) {
        for (auto& e : *section) {
          if (e.key == key) e.value = bad;
        }
      }
      exp::RunRecipe restored;
      sim::Time resume_time;
      std::uint64_t resume_digest = 0;
      const auto err = exp::recipe_from_checkpoint(data, &restored, &resume_time,
                                                   &resume_digest);
      EXPECT_NE(err.find(key), std::string::npos) << key << "='" << bad << "': " << err;
    }
  }
}

TEST(RunRecipe, MalformedLoadAndFingerprintRejected) {
  const auto recipe = make_recipe("");
  const auto net = replay(recipe, 1, sim::Time::ms(1));
  const auto good = exp::make_run_checkpoint(recipe, *net);
  const struct {
    const char* key;
    const char* bad;
    const char* error;
  } cases[] = {
      {"load_pct", "nan", "malformed [run] load_pct"},
      {"load_pct", "inf", "malformed [run] load_pct"},
      {"load_pct", "25x", "malformed [run] load_pct"},
      {"fingerprint", "-1", "malformed [state] fingerprint"},
      {"fingerprint", "10000000000000000", "malformed [state] fingerprint"},  // 17 digits
      {"fingerprint", "0x1234", "malformed [state] fingerprint"},
      {"fingerprint", "", "malformed [state] fingerprint"},
  };
  for (const auto& c : cases) {
    auto data = good;
    for (auto* section : {&data.run, &data.state}) {
      for (auto& e : *section) {
        if (e.key == c.key) e.value = c.bad;
      }
    }
    exp::RunRecipe restored;
    sim::Time resume_time;
    std::uint64_t resume_digest = 0;
    const auto err = exp::recipe_from_checkpoint(data, &restored, &resume_time,
                                                 &resume_digest);
    EXPECT_NE(err.find(c.error), std::string::npos)
        << c.key << "='" << c.bad << "': " << err;
  }
}

struct ReplayCase {
  const char* name;
  const char* scenario;
  // Snapshot times, chosen to land mid-flight (at 2 ms the plain
  // permutation has 22 of its 64 flows done) and mid-scenario (storm
  // waves roll 1 ms, 3 ms, ...; gray injection spans 0-15 ms; skew from
  // 2 ms).
  sim::Time mid;
  core::FabricKind kind = core::FabricKind::kOpera;
  core::EngineKind engine = core::EngineKind::kPacket;
};

// gtest's fallback printer dumps the struct's raw bytes, pointers included,
// which would tie the discovered ctest names to ASLR and binary layout.
void PrintTo(const ReplayCase& c, std::ostream* os) {
  *os << "snapshot at " << c.mid.to_string();
}

class CheckpointReplay : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(CheckpointReplay, BitIdenticalAcrossThreadCounts) {
  fluid::register_fluid_engines();
  const auto& p = GetParam();
  const auto recipe = make_recipe(p.scenario, p.kind, p.engine);

  // Reference: uninterrupted single-shard run. Snapshot state at p.mid,
  // then continue the same network to the horizon.
  const auto ref = replay(recipe, 1, p.mid);
  const std::uint64_t mid_digest = exp::state_digest(*ref);
  const auto data = exp::make_run_checkpoint(recipe, *ref);
  ref->run_until(recipe.horizon);
  const auto uninterrupted = support::snapshot(*ref);
  // Only the OperaNetwork fabrics (Opera, RotorNet) count ToR drops.
  EXPECT_EQ(uninterrupted.tor.has_value(),
            p.engine == core::EngineKind::kPacket &&
                (p.kind == core::FabricKind::kOpera ||
                 p.kind == core::FabricKind::kRotorNet));

  // Restore from the serialized checkpoint at several shard counts.
  const auto parsed =
      sim::parse_checkpoint(sim::write_checkpoint_text(data), p.name);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  exp::RunRecipe restored;
  sim::Time resume_time;
  std::uint64_t resume_digest = 0;
  ASSERT_EQ(exp::recipe_from_checkpoint(parsed.data, &restored, &resume_time,
                                        &resume_digest),
            "");
  EXPECT_EQ(resume_digest, mid_digest);
  EXPECT_EQ(resume_time, p.mid);
  // The fabric and engine knobs must survive the [config] round trip: a
  // resume that silently fell back to another fabric or to the packet
  // engine would replay a completely different simulation.
  EXPECT_EQ(restored.config.kind, p.kind);
  EXPECT_EQ(restored.config.engine, p.engine);

  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    auto net = replay(restored, threads, resume_time);
    // A restore with nothing left in flight would only replay an idle
    // fabric: every snapshot must land with flows still running.
    EXPECT_LT(net->tracker().completed(), net->tracker().registered());
    // The restore contract: the replayed fabric's multi-layer fingerprint
    // matches the checkpoint exactly at the snapshot time...
    EXPECT_EQ(exp::state_digest(*net), resume_digest);
    // ...and continuing to the horizon is bit-identical to the
    // uninterrupted run: completions, event count, TorStats, digest.
    net->run_until(restored.horizon);
    support::expect_same_run(uninterrupted, support::snapshot(*net),
                             "threads=" + std::to_string(threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Epochs, CheckpointReplay,
    ::testing::Values(
        ReplayCase{"plain", "", sim::Time::ms(2)},
        ReplayCase{"mid_storm",
                   "storm-rolling:switches=2,start-ms=1,period-ms=2,recover-ms=5",
                   sim::Time::ms(2)},
        ReplayCase{"mid_gray",
                   "gray:links=6,loss=0.05,extra-us=20,start-ms=0,recover-ms=15",
                   sim::Time::ms(3)},
        ReplayCase{"storm_and_gray_and_skew",
                   "storm-rolling:switches=2,start-ms=1,period-ms=2,recover-ms=5;"
                   "gray:links=6,loss=0.05,extra-us=20,start-ms=0,recover-ms=15;"
                   "skew:switch=3,extra-us=40,slices=30,start-ms=2",
                   sim::Time::ms(6)},
        // The plain case on every other fabric, and on the fluid engine,
        // snapshotted at 1 ms: the permutation is in flight on all four.
        ReplayCase{"clos_plain", "", sim::Time::ms(1), core::FabricKind::kFoldedClos},
        ReplayCase{"expander_plain", "", sim::Time::ms(1), core::FabricKind::kExpander},
        ReplayCase{"rotornet_plain", "", sim::Time::ms(1), core::FabricKind::kRotorNet},
        ReplayCase{"fluid_plain", "", sim::Time::ms(1), core::FabricKind::kOpera,
                   core::EngineKind::kFluid}),
    [](const ::testing::TestParamInfo<ReplayCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace opera
