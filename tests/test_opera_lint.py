"""Unit tests for the determinism linter (scripts/opera_lint.py).

One fixture set per rule: a positive case (the violation fires, named
with the right rule and line), a negative case (idiomatic clean code
passes), and an allowlist case (the justified exception is suppressed,
and the entry is marked used). Plus the allowlist parser, the
comment/string stripper (the classic false-positive sources), and the
CLI surface (exit codes, file args, --strict).

Run directly (python3 tests/test_opera_lint.py) or through ctest, which
registers it as `opera_lint_py` when a Python interpreter is found at
configure time. The tree-wide run itself is a separate ctest
(`opera_lint_tree`), so a violation anywhere in src/ or bench/ fails
the tier-1 suite.
"""
import pathlib
import subprocess
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))
from opera_lint import (  # noqa: E402
    lint_source, parse_allowlist, strip_comments_and_strings, RULES)

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def rules_of(violations):
    return [(v.rule, v.line) for v in violations]


def lint(relpath, text, allowlist_text=None):
    entries = []
    if allowlist_text is not None:
        entries, errors = parse_allowlist(allowlist_text)
        assert not errors, errors
    return lint_source(relpath, text, entries), entries


class StripperTest(unittest.TestCase):
    def test_comments_and_strings_are_blanked_lines_preserved(self):
        src = 'int a; // Rng in a comment\n/* mt19937\n spans */ int b;\nauto s = "rand()";\n'
        out = strip_comments_and_strings(src)
        self.assertEqual(out.count("\n"), src.count("\n"))
        self.assertNotIn("Rng", out)
        self.assertNotIn("mt19937", out)
        self.assertNotIn("rand", out)
        self.assertIn("int a;", out)
        self.assertIn("int b;", out)

    def test_digit_separators_are_not_char_literals(self):
        # A lone separator (odd apostrophe count) must not open a "char
        # literal" that swallows the rest of the file — the bug that hid
        # `sim::Rng rng_;` behind `12'000;` in a real header.
        src = "int x = 12'000;\nint cap = 1'000'000;\nsim::Rng rng_;\n"
        out = strip_comments_and_strings(src)
        self.assertIn("sim::Rng rng_;", out)

    def test_char_literals_still_stripped(self):
        src = "char c = 'R'; use(Rng{});\n"
        out = strip_comments_and_strings(src)
        self.assertNotIn("'R'", out)
        self.assertIn("Rng{}", out)


class RngShardPathTest(unittest.TestCase):
    def test_rng_in_shard_layer_fires(self):
        vs, _ = lint("src/net/foo.cc", "void f() { sim::Rng r(1); }\n")
        self.assertEqual(rules_of(vs), [("rng-shard-path", 1)])
        self.assertIn("shard", vs[0].message)

    def test_mt19937_in_transport_fires(self):
        vs, _ = lint("src/transport/foo.cc", "std::mt19937 gen{42};\n")
        self.assertEqual(rules_of(vs), [("rng-shard-path", 1)])

    def test_generation_layers_are_exempt(self):
        for relpath in ("src/workload/foo.cc", "src/topo/foo.cc",
                        "src/exp/foo.cc", "src/fluid/foo.cc"):
            vs, _ = lint(relpath, "sim::Rng rng(7); rng.uniform();\n")
            self.assertEqual(vs, [], relpath)

    def test_rng_implementation_is_exempt(self):
        vs, _ = lint("src/sim/rng.cc", "Rng::Rng(std::uint64_t seed) {}\n")
        self.assertEqual(vs, [])

    def test_include_of_rng_header_not_flagged(self):
        vs, _ = lint("src/core/foo.h", '#include "sim/rng.h"\n')
        self.assertEqual(vs, [])

    def test_allowlisted_coordinator_site_is_suppressed(self):
        allow = ("rng-shard-path | src/core/foo.cc | rng_\\.shuffle"
                 " | coordinator grant shuffle, barrier-aligned\n")
        vs, entries = lint("src/core/foo.cc",
                           "void grants() { rng_.shuffle(order); }\n", allow)
        self.assertEqual(vs, [])
        self.assertTrue(entries[0].used)

    def test_allowlist_is_per_site_not_per_file(self):
        allow = ("rng-shard-path | src/core/foo.cc | rng_\\.shuffle"
                 " | coordinator grant shuffle\n")
        src = "void grants() { rng_.shuffle(order); }\nint pick() { return rng_.index(4); }\n"
        vs, _ = lint("src/core/foo.cc", src, allow)
        self.assertEqual(rules_of(vs), [("rng-shard-path", 2)])


class UnorderedIterationTest(unittest.TestCase):
    decl = "std::unordered_map<std::uint64_t, Flow> flows_;\n"

    def test_range_for_over_unordered_member_fires(self):
        src = self.decl + "void f() { for (auto& [id, fl] : flows_) emit(fl); }\n"
        vs, _ = lint("src/transport/foo.h", src)
        self.assertEqual(rules_of(vs), [("unordered-iteration", 2)])
        self.assertIn("flows_", vs[0].message)

    def test_iterator_walk_fires(self):
        src = self.decl + "auto it = flows_.begin();\n"
        vs, _ = lint("src/transport/foo.h", src)
        self.assertEqual(rules_of(vs), [("unordered-iteration", 2)])

    def test_keyed_lookup_is_clean(self):
        src = (self.decl +
               "const Flow* find(std::uint64_t id) {\n"
               "  auto it = flows_.find(id);\n"
               "  return it == flows_.end() ? nullptr : &it->second;\n"
               "}\n")
        vs, _ = lint("src/transport/foo.h", src)
        self.assertEqual(vs, [])

    def test_range_for_over_ordered_container_is_clean(self):
        src = ("std::vector<FlowRecord> completions_;\n"
               "void f() { for (const auto& rec : completions_) emit(rec); }\n")
        vs, _ = lint("src/transport/foo.cc", src)
        self.assertEqual(vs, [])

    def test_allowlisted_order_insensitive_walk_is_suppressed(self):
        allow = ("unordered-iteration | src/net/foo.cc | total \\+= "
                 " | order-insensitive sum over values\n")
        src = ("std::unordered_map<int, long> bytes_;\n"
               "long total() { long total = 0; for (auto& [k, v] : bytes_) total += v; return total; }\n")
        vs, entries = lint("src/net/foo.cc", src, allow)
        self.assertEqual(vs, [])
        self.assertTrue(entries[0].used)


class PointerOrderTest(unittest.TestCase):
    def test_hash_of_pointer_fires(self):
        vs, _ = lint("src/sim/foo.h",
                     "std::unordered_set<Node*, std::hash<Node*>> seen;\n")
        self.assertIn("pointer-order", [v.rule for v in vs])

    def test_less_of_pointer_fires(self):
        vs, _ = lint("src/sim/foo.h", "std::set<Event*, std::less<Event*>> q;\n")
        self.assertEqual([v.rule for v in vs], ["pointer-order"])

    def test_uintptr_cast_fires(self):
        vs, _ = lint("src/net/foo.cc",
                     "auto key = reinterpret_cast<std::uintptr_t>(node);\n")
        self.assertEqual(rules_of(vs), [("pointer-order", 1)])

    def test_hash_of_value_type_is_clean(self):
        vs, _ = lint("src/net/foo.cc", "std::hash<std::uint64_t> h;\n")
        self.assertEqual(vs, [])


class WallClockTest(unittest.TestCase):
    def test_system_clock_fires(self):
        vs, _ = lint("src/exp/foo.cc",
                     "auto now = std::chrono::system_clock::now();\n")
        self.assertEqual(rules_of(vs), [("wall-clock", 1)])

    def test_libc_time_and_rand_fire(self):
        vs, _ = lint("src/workload/foo.cc",
                     "srand(time(nullptr));\nint r = rand();\n")
        self.assertEqual([v.rule for v in vs], ["wall-clock", "wall-clock"])

    def test_steady_clock_is_allowed(self):
        # Wall-clock *reporting* (the wall_s column) is legitimate.
        vs, _ = lint("src/exp/foo.cc",
                     "const auto t0 = std::chrono::steady_clock::now();\n")
        self.assertEqual(vs, [])

    def test_sim_time_accessors_are_clean(self):
        src = ("sim::Time t = sim.time();\n"
               "auto nt = queue.next_time();\n"
               "double s = warmup_time(cfg);\n")
        vs, _ = lint("src/sim/foo.cc", src)
        self.assertEqual(vs, [])


class RawPacketAllocTest(unittest.TestCase):
    def test_new_packet_fires(self):
        vs, _ = lint("src/transport/foo.cc", "auto* p = new net::Packet;\n")
        self.assertEqual(rules_of(vs), [("raw-packet-alloc", 1)])

    def test_delete_of_packet_fires(self):
        vs, _ = lint("src/net/foo.cc", "delete pkt;\n")
        self.assertEqual(rules_of(vs), [("raw-packet-alloc", 1)])

    def test_pool_implementation_is_exempt(self):
        vs, _ = lint("src/net/packet.cc",
                     "if (pool.empty()) return PacketPtr{new Packet};\n")
        self.assertEqual(vs, [])

    def test_deleted_special_member_is_clean(self):
        vs, _ = lint("src/net/foo.h",
                     "Packet(const Packet&) = delete;\n"
                     "Packet& operator=(const Packet&) = delete;\n")
        self.assertEqual(vs, [])

    def test_unrelated_delete_is_clean(self):
        vs, _ = lint("src/sim/foo.cc", "delete impl_;\n")
        self.assertEqual(vs, [])


class IncludeLayeringTest(unittest.TestCase):
    def test_core_may_not_include_exp(self):
        vs, _ = lint("src/core/foo.h", '#include "exp/output.h"\n')
        self.assertEqual(rules_of(vs), [("include-layering", 1)])
        self.assertIn("CMake", vs[0].message)

    def test_sim_may_not_include_net(self):
        vs, _ = lint("src/sim/foo.cc", '#include "net/packet.h"\n')
        self.assertEqual(rules_of(vs), [("include-layering", 1)])

    def test_edges_matching_cmake_graph_are_clean(self):
        cases = [
            ("src/topo/foo.h", "sim/time.h"),
            ("src/transport/foo.h", "net/packet.h"),
            ("src/core/foo.cc", "transport/rotorlb.h"),
            ("src/exp/foo.cc", "core/network.h"),
            ("src/exp/foo.cc", "topo/graph.h"),
            # PR 9: the fluid engines implement core::Network, so fluid
            # sits above core (and pulls in core's closure).
            ("src/fluid/foo.h", "core/network.h"),
            ("src/fluid/foo.cc", "transport/flow.h"),
        ]
        for relpath, inc in cases:
            vs, _ = lint(relpath, f'#include "{inc}"\n')
            self.assertEqual(vs, [], f"{relpath} -> {inc}")

    def test_core_may_not_include_fluid(self):
        # The engine registry exists precisely so this edge never appears:
        # core reaches the fluid engines through registered builders only.
        vs, _ = lint("src/core/fabric.cc", '#include "fluid/fluid_network.h"\n')
        self.assertEqual(rules_of(vs), [("include-layering", 1)])

    def test_system_and_nonlayer_includes_ignored(self):
        vs, _ = lint("src/core/foo.cc",
                     "#include <vector>\n#include \"core/config.h\"\n")
        self.assertEqual(vs, [])


class SyncPrimitiveTest(unittest.TestCase):
    def test_each_primitive_fires(self):
        for line in ("std::atomic<int> n{0};",
                     "std::atomic_ref<int> r(x);",
                     "std::mutex m;",
                     "std::shared_mutex m;",
                     "std::condition_variable cv;",
                     "const std::lock_guard<Mutex> lock(m);",
                     "std::unique_lock lk(m);",
                     "#include <atomic>",
                     "#include <mutex>",
                     "#include <condition_variable>"):
            vs, _ = lint("src/core/foo.cc", line + "\n")
            self.assertEqual(rules_of(vs), [("sync-primitive", 1)], line)

    def test_windowed_cache_mirror_and_demand_lock_fire(self):
        # The shape of a lock-guarded demand build behind an atomic
        # publication mirror, as a slice-table cache once had it.
        src = ("#include <atomic>\n"
               "#include <mutex>\n"
               "class SliceTableCache {\n"
               "  std::unique_ptr<std::mutex> demand_mutex_;\n"
               "  std::vector<std::atomic<const EcmpTable*>> published_;\n"
               "};\n"
               "void f() { const std::lock_guard<std::mutex> lock(*demand_mutex_); }\n")
        vs, _ = lint("src/topo/slice_table_cache.h", src)
        self.assertEqual(rules_of(vs), [("sync-primitive", n) for n in (1, 2, 4, 5, 7)])

    def test_sig_atomic_t_is_clean(self):
        vs, _ = lint("src/exp/run_guard.cc",
                     "#include <csignal>\nvolatile std::sig_atomic_t g_signal = 0;\n")
        self.assertEqual(vs, [])

    def test_worker_pool_is_exempt(self):
        for relpath in ("src/sim/worker_pool.h", "src/sim/worker_pool.cc"):
            vs, _ = lint(relpath, "#include <atomic>\nstd::atomic<bool> busy_{false};\n"
                                  "std::mutex error_mutex;\n")
            self.assertEqual(vs, [], relpath)

    def test_prose_and_lookalike_names_are_clean(self):
        src = ("// WorkerPool claims work through a std::atomic counter.\n"
               "int error_mutex_count = 0; bool atomic = true;\n")
        vs, _ = lint("src/sim/parallel.h", src)
        self.assertEqual(vs, [])


class CircuitRuleTest(unittest.TestCase):
    # OperaNetwork's uplink lookup and settle loop as they once read the
    # raw circuit map and failure bits in src/core/opera_network.cc.
    PARENT_OPERA_NETWORK = (
        "int OperaNetwork::uplink_to(int slice, std::int32_t rack, std::int32_t peer) const {\n"
        "  for (int sw = 0; sw < u; ++sw) {\n"
        "    if (sw == down || topo_.circuit_peer(sw, rack, slice) != peer) continue;\n"
        "    if (failures_.switch_failed[ssw] ||\n"
        "        failures_.uplink_failed[rack][ssw]) continue;\n"
        "    return sw;\n"
        "  }\n"
        "}\n"
        "void OperaNetwork::inject_switch_failure(int rotor_switch) {\n"
        "  failures_.switch_failed[static_cast<std::size_t>(rotor_switch)] = true;\n"
        "}\n")

    def test_parent_opera_network_fires(self):
        vs, _ = lint("src/core/opera_network.cc", self.PARENT_OPERA_NETWORK)
        self.assertEqual(rules_of(vs), [("circuit-rule", n) for n in (3, 4, 5, 10)])

    def test_every_failure_bit_fires(self):
        for line in ("if (f->rack_failed[r]) return;",
                     "if (f->switch_failed[sw]) return;",
                     "if (f->uplink_failed[r][sw]) return;",
                     "const auto peer = topo.circuit_peer (sw, r, s);"):
            vs, _ = lint("src/fluid/rotor_rate_lb.cc", line + "\n")
            self.assertEqual(rules_of(vs), [("circuit-rule", 1)], line)

    def test_topo_and_non_src_are_exempt(self):
        for relpath in ("src/topo/opera_topology.h", "src/topo/failures.cc",
                        "tests/test_fault_recovery.cc", "bench/micro_core.cc"):
            vs, _ = lint(relpath, self.PARENT_OPERA_NETWORK)
            self.assertEqual([v for v in vs if v.rule == "circuit-rule"], [], relpath)

    def test_rule_api_setters_and_prose_are_clean(self):
        src = ("// Unlike circuit_peer(), live_peer checks switch_failed too.\n"
               "const auto peer = topo_.live_peer(sw, r, slice, &failures_);\n"
               "const int sw = topo_.live_uplink(slice, r, next, &failures_);\n"
               "failures_.set_uplink_failed(rack, rotor_switch, true);\n"
               "failures_.set_switch_failed(rotor_switch, false);\n"
               "const bool ok = failures_.circuit_up(sw, a, b);\n")
        vs, _ = lint("src/core/opera_network.cc", src)
        self.assertEqual(vs, [])


class PerHopDispatchTest(unittest.TestCase):
    # Switch and Host as they once held their per-packet callbacks.
    PARENT_SWITCH = (
        "#include <functional>\n"
        "class Switch : public Node {\n"
        " public:\n"
        "  using ForwardFn = std::function<int(Switch&, const Packet&, int in_port)>;\n"
        "  void set_forward(ForwardFn fn) { forward_ = std::move(fn); }\n"
        " private:\n"
        "  ForwardFn forward_;\n"
        "};\n")
    PARENT_HOST = (
        "class Host : public Node {\n"
        "  using FlowHandler = std::function<void(PacketPtr)>;\n"
        "  std::unordered_map<std::uint64_t, FlowHandler> handlers_;\n"
        "};\n")

    def test_parent_switch_and_host_fire(self):
        vs, _ = lint("src/net/switch.h", self.PARENT_SWITCH)
        self.assertEqual(rules_of(vs), [("per-hop-dispatch", 1), ("per-hop-dispatch", 4)])
        vs, _ = lint("src/net/host.h", self.PARENT_HOST)
        self.assertEqual(rules_of(vs), [("per-hop-dispatch", 2)])
        vs, _ = lint("src/net/node.h", "void arm(std :: function<void()> fn);\n")
        self.assertEqual(rules_of(vs), [("per-hop-dispatch", 1)])

    def test_other_files_are_out_of_scope(self):
        # The bulk-drop handler (queue.h) and the fabrics are not on the
        # list; the rule names the three files a hop always runs through.
        for relpath in ("src/net/queue.h", "src/core/opera_network.cc",
                        "tests/test_node.cc"):
            vs, _ = lint(relpath, self.PARENT_SWITCH)
            self.assertEqual([v for v in vs if v.rule == "per-hop-dispatch"], [], relpath)

    def test_interfaces_and_prose_are_clean(self):
        src = ("// Unlike a std::function<int()>, a Router is one virtual call.\n"
               "class Router {\n"
               "  virtual int route(Switch& sw, PacketPtr& pkt) = 0;\n"
               "};\n"
               "void set_router(Router* router) { router_ = router; }\n"
               "const char* kWhat = \"std::function<void()>\";\n")
        vs, _ = lint("src/net/switch.h", src)
        self.assertEqual(vs, [])

    def test_allowlist_entry_suppresses(self):
        vs, entries = lint("src/net/host.h", self.PARENT_HOST,
                           "per-hop-dispatch | src/net/host.h | FlowHandler = | test fixture\n")
        self.assertEqual(vs, [])
        self.assertTrue(entries[0].used)


class NumberParseTest(unittest.TestCase):
    # Number reads as they once stood in src/exp/output.cc,
    # src/core/packet_fabric.cc and src/sim/checkpoint.cc.
    PARENT_PARSERS = (
        "const long parsed = std::strtol(v, &end, 10);\n"
        "const double d = std::strtod(v, &end);\n"
        "threads = std::atoi(env);\n"
        "const long w = atol(env);\n"
        "const unsigned long long h = strtoull(s.c_str(), &end, 16);\n"
        "int x = 0;\n"
        "const auto k = std::stoll(text);\n"
        "std::sscanf(line, \"%d\", &x);\n"
        "std::from_chars(first, last, x);\n")

    def test_every_parser_fires_in_src_and_bench(self):
        for relpath in ("src/exp/output.cc", "src/core/fabric.h", "bench/custom.cc"):
            vs, _ = lint(relpath, self.PARENT_PARSERS)
            self.assertEqual(rules_of(vs),
                             [("number-parse", n) for n in (1, 2, 3, 4, 5, 7, 8, 9)],
                             relpath)

    def test_parse_header_and_other_trees_are_exempt(self):
        for relpath in ("src/sim/parse.h", "tests/test_parse.cc",
                        "benchmark/opera_perf.cc", "examples/quickstart.cc"):
            vs, _ = lint(relpath, self.PARENT_PARSERS)
            self.assertEqual([v for v in vs if v.rule == "number-parse"], [], relpath)

    def test_parse_number_prose_and_lookalikes_are_clean(self):
        src = ("// strtoll once read this field; sim::parse_number does now.\n"
               "if (!sim::parse_number(text, &field)) return false;\n"
               "const auto r = CliOptions::arg<double>(argc, argv, \"--load\", 0.1);\n"
               "std::atomic<int> atoms; bool stop(); int storage = 0;\n"
               "const char* msg = \"strtod failed\";\n")
        vs, _ = lint("src/exp/output.cc", src)
        self.assertEqual([v for v in vs if v.rule == "number-parse"], [])


class CheckpointCoverageTest(unittest.TestCase):
    TAGGED = (
        "// checkpoint:v1 fields=2\n"
        "struct Foo {\n"
        "  int a = 0;\n"
        "  sim::Time b;\n"
        "};\n")

    def test_matching_count_is_clean(self):
        vs, _ = lint("src/core/foo.h", self.TAGGED)
        self.assertEqual(vs, [])

    def test_added_member_without_marker_update_fires(self):
        src = self.TAGGED.replace("  sim::Time b;\n",
                                  "  sim::Time b;\n  double extra = 0.0;\n")
        vs, _ = lint("src/core/foo.h", src)
        self.assertEqual(rules_of(vs), [("checkpoint-coverage", 1)])
        self.assertIn("fields=2", vs[0].message)
        self.assertIn("3 data member(s)", vs[0].message)
        self.assertIn("v1 -> v2", vs[0].message)

    def test_methods_statics_aliases_not_counted(self):
        src = (
            "// checkpoint:v3 fields=3\n"
            "struct Foo {\n"
            "  using Clock = sim::Time;\n"
            "  static constexpr int kMax = 4;\n"
            "  enum class Mode { kA, kB };\n"
            "  int a;\n"
            "  std::function<void(const char*)> hook;  // parens in template args\n"
            "  std::vector<int> brace_init{1, 2};\n"
            "  void method(int x = 3);\n"
            "  int inline_body() const { return a; }\n"
            "  Foo& operator=(const Foo&) = default;\n"
            "};\n")
        vs, _ = lint("src/core/foo.h", src)
        self.assertEqual(vs, [], vs)

    def test_commented_out_member_not_counted(self):
        src = self.TAGGED.replace("  sim::Time b;\n",
                                  "  sim::Time b;\n  // int disabled;\n")
        vs, _ = lint("src/core/foo.h", src)
        self.assertEqual(vs, [])

    def test_dangling_marker_fires(self):
        vs, _ = lint("src/core/foo.h",
                     "// checkpoint:v1 fields=2\nint not_a_struct;\n")
        self.assertEqual(rules_of(vs), [("checkpoint-coverage", 1)])
        self.assertIn("dangling", vs[0].message)

    def test_untagged_structs_ignored(self):
        vs, _ = lint("src/core/foo.h", "struct Foo { int a; int b; };\n")
        self.assertEqual(vs, [])


class AllowlistParserTest(unittest.TestCase):
    def test_missing_justification_is_an_error(self):
        _, errors = parse_allowlist("rng-shard-path | src/a.cc | pat |\n")
        self.assertEqual(len(errors), 1)

    def test_unknown_rule_is_an_error(self):
        _, errors = parse_allowlist("no-such-rule | src/a.cc | pat | why\n")
        self.assertEqual(len(errors), 1)
        self.assertIn("no-such-rule", errors[0])

    def test_bad_regex_is_an_error(self):
        _, errors = parse_allowlist("wall-clock | src/a.cc | [bad | why\n")
        self.assertEqual(len(errors), 1)

    def test_comments_and_blanks_skipped(self):
        entries, errors = parse_allowlist("# comment\n\nwall-clock | src/a.cc | x | y\n")
        self.assertEqual(errors, [])
        self.assertEqual(len(entries), 1)


class CliTest(unittest.TestCase):
    LINT = str(REPO_ROOT / "scripts" / "opera_lint.py")

    def run_lint(self, *args):
        return subprocess.run([sys.executable, self.LINT, *args],
                              capture_output=True, text=True)

    def test_tree_is_clean(self):
        r = self.run_lint("--strict")
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)

    def test_violation_names_rule_and_location(self):
        import tempfile
        with tempfile.TemporaryDirectory(dir=REPO_ROOT) as td:
            bad = pathlib.Path(td) / "src" / "net" / "bad.cc"
            bad.parent.mkdir(parents=True)
            bad.write_text("std::mt19937 gen;\n")
            r = self.run_lint("--root", td, str(bad))
            self.assertEqual(r.returncode, 1)
            self.assertIn("[rng-shard-path]", r.stdout)
            self.assertIn("bad.cc:1", r.stdout)

    def test_list_rules_covers_all(self):
        r = self.run_lint("--list-rules")
        self.assertEqual(r.returncode, 0)
        self.assertEqual(set(r.stdout.split()), set(RULES))


if __name__ == "__main__":
    unittest.main()
