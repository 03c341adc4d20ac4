#!/usr/bin/env python3
"""opera-lint: statically enforce the repo's determinism contract.

`--threads=N` must produce bit-identical output to `--threads=1` (pinned
at runtime by ShardParityTest). That contract survives only if certain
constructs never reach shard-executed code, and runtime parity tests only
cover the configurations they run. This linter rejects the known footguns
at review time, tree-wide:

  rng-shard-path      No net::Rng / std::mt19937 / <random> machinery in
                      shard-reachable layers (src/sim, src/net,
                      src/transport, src/core). Shards interleave
                      nondeterministically, so any shared rng stream's
                      draw order depends on the partition. Legitimate
                      coordinator-phase sites (grant shuffles that only
                      draw at barrier-aligned global events) are
                      enumerated in the allowlist, one entry per site.
                      Generation-/construction-time layers (topo,
                      workload, fluid, exp) run before or between
                      epochs on one thread and are exempt by scope.
  unordered-iteration No iteration over std::unordered_map/set.
                      Iteration order is libstdc++-version- and
                      pointer-dependent; if it feeds FlowTracker merges,
                      Report/CSV output, or event scheduling, output
                      changes silently. Keyed lookup is fine. Sites
                      proven order-insensitive go in the allowlist with
                      a justification.
  pointer-order       No pointer-valued ordering or hashing
                      (std::hash/less/greater over T*,
                      reinterpret_cast<uintptr_t>). Allocation addresses
                      differ run to run; any order derived from them is
                      nondeterministic.
  wall-clock          No wall-clock or libc randomness anywhere in src/:
                      time(), std::chrono::system_clock, rand()/srand(),
                      gettimeofday, clock(). Simulated time is sim::Time;
                      randomness is the seeded sim::Rng.
                      std::chrono::steady_clock is allowed: it feeds
                      only wall-clock *reporting* (the wall_s column),
                      never simulation state.
  raw-packet-alloc    No raw new/delete of net::Packet outside the pool
                      (src/net/packet.cc). Pooled packets keep the hot
                      path allocation-free and give every packet a
                      deterministic lifecycle; a stray `new Packet`
                      bypasses both.
  include-layering    #include edges between src/<layer>/ directories
                      must match the CMake link graph (e.g. core may not
                      include exp). The static libraries enforce this at
                      link time only for symbols; headers leak silently.
  sync-primitive      std::atomic, std::mutex, std::condition_variable,
                      lock_guard and unique_lock (and their headers)
                      only in src/sim/worker_pool.{h,cc}. The shard
                      hand-off is the one concurrency mechanism: every
                      other write to shared state happens at a barrier,
                      with the workers parked, or inside one shard. A
                      lock or atomic elsewhere is a second concurrency
                      model that the parity tests cannot see through.
  circuit-rule        circuit_peer( and FailureSet's rack_failed,
                      switch_failed and uplink_failed only under
                      src/topo/. Which rotor circuits are live is one
                      rule, OperaTopology::live_peer / live_uplink;
                      a fabric or model that reads the raw circuit map or
                      failure bits writes out a second copy of it, and
                      copies drift (one once enabled an uplink whose far
                      end had failed). Failures are set through
                      FailureSet's setters.
  number-parse        No strto*, ato*, std::sto*, sscanf or from_chars in
                      src/ or bench/ outside src/sim/parse.h. Every
                      number read from text goes through
                      sim::parse_number, so every input follows one
                      rule (whole string, sign only for signed types,
                      in range of the field, finite); each hand-rolled
                      wrapper once checked a different subset of it.
  per-hop-dispatch    No std::function (nor <functional>) in
                      src/net/switch.h, src/net/node.h or src/net/host.h,
                      the files every packet hop runs through. Each
                      decision on a hop is one direct call (net::Router,
                      net::Endpoint, net::DefaultHandler); a
                      std::function there adds an empty check and a
                      type-erased thunk per packet.
  checkpoint-coverage Structs serialized into checkpoints are tagged
                      `// checkpoint:v<N> fields=<M>` (docs/CHECKPOINT.md).
                      The rule counts the struct's data members and fails
                      when the count drifts from fields=<M>: adding a
                      member without updating the marker — and therefore
                      without thinking about the schema version and the
                      reader — is exactly how checkpoints rot into silent
                      misparses.

Usage:
    scripts/opera_lint.py                      # lint src/ and bench/ under the repo root
    scripts/opera_lint.py --list-rules
    scripts/opera_lint.py file.cc ...          # lint specific files
    scripts/opera_lint.py --strict             # unused allowlist entries fail

Exit status: 0 clean, 1 violations (each reported as
`path:line: [rule] message`), 2 usage/config errors.

The checking logic is pure functions over (relpath, source text,
allowlist) — unit-tested by tests/test_opera_lint.py, same pattern as
check_bench_baseline.py. The allowlist lives in
scripts/opera_lint_allowlist.txt; see that file for the entry format.
"""
import argparse
import pathlib
import re
import sys

# Layers whose code can execute on shard worker threads during the epoch
# loop. topo/workload/fluid/exp run at construction/generation time or on
# the coordinator between epochs, so rng use there cannot depend on the
# shard interleaving.
SHARD_LAYERS = {"sim", "net", "transport", "core"}

# The seeded deterministic generator's own implementation.
RNG_IMPL_FILES = {"src/sim/rng.h", "src/sim/rng.cc"}

# The packet pool — the one place allowed to `new Packet`.
PACKET_POOL_FILES = {"src/net/packet.cc"}

# The worker pool — the one place allowed atomics, mutexes and condvars.
SYNC_FILES = {"src/sim/worker_pool.h", "src/sim/worker_pool.cc"}

# sim::parse_number — the one place allowed a C/C++ number parser.
PARSE_FILES = {"src/sim/parse.h"}

# The per-hop path: switch forwarding, port transmission, host dispatch.
PER_HOP_FILES = {"src/net/switch.h", "src/net/node.h", "src/net/host.h"}

# Allowed #include edges between src/<layer>/ directories. Must mirror the
# target_link_libraries graph in CMakeLists.txt (PUBLIC edges are
# transitive there, so the closure is spelled out here).
LAYER_DEPS = {
    "sim": {"sim"},
    "topo": {"topo", "sim"},
    "net": {"net", "sim"},
    "transport": {"transport", "net", "sim"},
    "core": {"core", "topo", "net", "transport", "sim"},
    # fluid sits above core: the fluid/hybrid engines implement
    # core::Network and register themselves in core::NetworkFactory
    # (PR 9); the closure pulls in core's own deps.
    "fluid": {"fluid", "core", "topo", "net", "transport", "sim"},
    "workload": {"workload", "sim"},
    "exp": {"exp", "core", "fluid", "workload", "topo", "net", "transport", "sim"},
}


class Violation:
    __slots__ = ("rule", "path", "line", "message", "text")

    def __init__(self, rule, path, line, message, text):
        self.rule = rule
        self.path = path
        self.line = line          # 1-based
        self.message = message
        self.text = text          # the offending source line, for allowlist matching

    def __repr__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class AllowEntry:
    __slots__ = ("rule", "path", "pattern", "justification", "lineno", "used")

    def __init__(self, rule, path, pattern, justification, lineno):
        self.rule = rule
        self.path = path
        self.pattern = pattern    # compiled regex, matched against the source line
        self.justification = justification
        self.lineno = lineno
        self.used = False


def parse_allowlist(text, filename="allowlist"):
    """Parses `rule | path | line-regex | justification` entries.

    Returns (entries, errors). Blank lines and '#' comments are skipped.
    Every field is required — an allowlist entry without a justification
    is exactly the kind of rot this tool exists to prevent.
    """
    entries, errors = [], []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split("|")]
        if len(parts) != 4 or not all(parts):
            errors.append(f"{filename}:{lineno}: expected "
                          "'rule | path | line-regex | justification'")
            continue
        rule, path, pattern, justification = parts
        if rule not in RULES:
            errors.append(f"{filename}:{lineno}: unknown rule '{rule}'")
            continue
        try:
            compiled = re.compile(pattern)
        except re.error as e:
            errors.append(f"{filename}:{lineno}: bad regex '{pattern}': {e}")
            continue
        entries.append(AllowEntry(rule, path, compiled, justification, lineno))
    return entries, errors


def strip_comments_and_strings(text):
    """Blanks out //, /* */ comments and string/char literal contents,
    preserving line structure, so rules never fire on prose or data."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            i += 2
            out.append("  ")
            while i < n and not (text[i] == "*" and i + 1 < n and text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == "'" and i > 0 and text[i - 1] in "0123456789abcdefABCDEFxX" \
                and i + 1 < n and text[i + 1] in "0123456789abcdefABCDEF":
            out.append(c)  # C++ digit separator (1'000'000), not a char literal
            i += 1
        elif c == '"' or c == "'":
            quote = c
            out.append(c)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                    continue
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append(quote)
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _layer_of(relpath):
    parts = pathlib.PurePosixPath(relpath).parts
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


# --------------------------------------------------------------------------
# Rules. Each takes (relpath, code_lines) where code_lines is the
# comment/string-stripped source split into lines, and yields
# (lineno, message) pairs. Scope filtering happens inside the rule.
# --------------------------------------------------------------------------

_RNG_PATTERNS = [
    (re.compile(r"\bRng\b"), "sim::Rng"),
    (re.compile(r"\brng_\b"), "rng_ member"),
    (re.compile(r"\bmt19937(?:_64)?\b"), "std::mt19937"),
    (re.compile(r"\bdefault_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"\buniform_(?:int|real)_distribution\b"), "std:: distribution"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"\bd?rand48\b"), "rand48"),
]


def rule_rng_shard_path(relpath, code_lines):
    if _layer_of(relpath) not in SHARD_LAYERS or relpath in RNG_IMPL_FILES:
        return
    for lineno, line in enumerate(code_lines, 1):
        if line.lstrip().startswith("#include"):
            continue
        for pat, what in _RNG_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} in shard-reachable layer "
                       f"'{_layer_of(relpath)}': shard interleaving makes any "
                       "shared rng stream's draw order partition-dependent. "
                       "Use order-independent header hashing on the per-packet "
                       "path, or allowlist a coordinator-phase site.")
                break


_UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set)\s*<[^;{()]*>\s*(\w+)\s*[;{=(]")
_RANGE_FOR = re.compile(r"\bfor\s*\(([^;]*?):([^;)]*)\)")


def rule_unordered_iteration(relpath, code_lines):
    if _layer_of(relpath) is None:
        return
    text = "\n".join(code_lines)
    names = set(_UNORDERED_DECL.findall(text))
    if not names:
        return
    name_word = re.compile(r"\b(" + "|".join(map(re.escape, sorted(names))) + r")\b")
    for lineno, line in enumerate(code_lines, 1):
        m = _RANGE_FOR.search(line)
        if m:
            hit = name_word.search(m.group(2))
            if hit:
                yield (lineno,
                       f"range-for over unordered container '{hit.group(1)}': "
                       "iteration order is hash/pointer-dependent and will "
                       "diverge across runs and standard libraries. Iterate a "
                       "sorted key vector, or allowlist with a proof of "
                       "order-insensitivity.")
                continue
        for n in names:
            if re.search(re.escape(n) + r"\s*\.\s*c?begin\s*\(", line):
                yield (lineno,
                       f"iterator walk of unordered container '{n}': "
                       "iteration order is hash/pointer-dependent. Iterate a "
                       "sorted key vector, or allowlist with a proof of "
                       "order-insensitivity.")
                break


_POINTER_ORDER_PATTERNS = [
    (re.compile(r"\b(?:hash|less|greater)\s*<[^<>]*\*\s*>"),
     "ordering/hashing by pointer value"),
    (re.compile(r"reinterpret_cast\s*<\s*(?:std::)?u?intptr_t\s*>"),
     "pointer-to-integer cast (address-derived value)"),
]


def rule_pointer_order(relpath, code_lines):
    if _layer_of(relpath) is None:
        return
    for lineno, line in enumerate(code_lines, 1):
        for pat, what in _POINTER_ORDER_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what}: allocation addresses differ run to run, so "
                       "any order or hash derived from them is "
                       "nondeterministic. Key on a stable id instead.")
                break


_WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "high_resolution_clock (alias of system_clock on some platforms)"),
    (re.compile(r"(?<![\w.>])time\s*\("), "time()"),
    (re.compile(r"std::\s*time\b"), "std::time"),
    (re.compile(r"(?<![\w.>:])rand\s*\("), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"\bgettimeofday\b"), "gettimeofday"),
    (re.compile(r"\b(?:localtime|gmtime)\b"), "calendar time"),
    (re.compile(r"(?<![\w.>:])clock\s*\("), "clock()"),
]


def rule_wall_clock(relpath, code_lines):
    if _layer_of(relpath) is None:
        return
    for lineno, line in enumerate(code_lines, 1):
        for pat, what in _WALL_CLOCK_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} in src/: simulation state must derive only "
                       "from sim::Time and the seeded sim::Rng. "
                       "(steady_clock is allowed, for wall-clock reporting.)")
                break


_NEW_PACKET = re.compile(r"\bnew\s+(?:net\s*::\s*)?Packet\b")
_DELETE = re.compile(r"\bdelete\b")


def rule_raw_packet_alloc(relpath, code_lines):
    if _layer_of(relpath) is None or relpath in PACKET_POOL_FILES:
        return
    for lineno, line in enumerate(code_lines, 1):
        if _NEW_PACKET.search(line):
            yield (lineno,
                   "raw `new Packet` outside the pool (src/net/packet.cc): "
                   "use net::make_packet() so the hot path stays "
                   "allocation-free and lifecycle-deterministic.")
            continue
        for m in _DELETE.finditer(line):
            before = line[:m.start()].rstrip()
            if before.endswith("="):  # `= delete;` declarations
                continue
            rest = line[m.end():]
            if re.search(r"\b(?:pkt|packet|Packet)\b", rest):
                yield (lineno,
                       "raw `delete` of a packet: packets are pool-owned "
                       "(net::PacketPtr); deleting one corrupts the pool.")
                break


_SYNC_PATTERNS = [
    # \bstd::atomic... never matches std::sig_atomic_t, the signal-flag type.
    (re.compile(r"\bstd\s*::\s*atomic\w*"), "std::atomic"),
    (re.compile(r"\bstd\s*::\s*\w*mutex\b"), "std::mutex"),
    (re.compile(r"\bstd\s*::\s*condition_variable\w*"), "std::condition_variable"),
    (re.compile(r"\b(?:lock_guard|unique_lock|scoped_lock|shared_lock)\b"), "a lock guard"),
    (re.compile(r"#\s*include\s*<(?:atomic|\w*mutex|condition_variable)>"),
     "a synchronization header"),
]


def rule_sync_primitive(relpath, code_lines):
    if _layer_of(relpath) is None or relpath in SYNC_FILES:
        return
    for lineno, line in enumerate(code_lines, 1):
        for pat, what in _SYNC_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} outside src/sim/worker_pool.{{h,cc}}: shared "
                       "state is written at barriers (workers parked) or "
                       "inside one shard, never under a lock. Move the "
                       "hand-off into WorkerPool or make the write a "
                       "barrier step.")
                break


_CIRCUIT_PATTERNS = [
    (re.compile(r"\bcircuit_peer\s*\("), "circuit_peer()"),
    (re.compile(r"\b(?:rack|switch|uplink)_failed\b"), "a FailureSet bit"),
]


def rule_circuit_rule(relpath, code_lines):
    if _layer_of(relpath) in (None, "topo"):
        return
    for lineno, line in enumerate(code_lines, 1):
        for pat, what in _CIRCUIT_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} outside src/topo/: ask "
                       "OperaTopology::live_peer / live_uplink which circuits "
                       "are live, and set failures through FailureSet's "
                       "setters.")
                break


_NUMBER_PARSE_PATTERNS = [
    (re.compile(r"\bstrto(?:[dfl]|ld|ll|ul|ull|imax|umax)\b"), "strto*"),
    (re.compile(r"\bato(?:[fil]|ll)\b"), "ato*"),
    (re.compile(r"\bsto(?:[dfil]|ld|ll|ul|ull)\s*\("), "std::sto*"),
    (re.compile(r"\b[fv]?sscanf\b"), "sscanf"),
    (re.compile(r"\bfrom_chars\b"), "from_chars"),
]


def rule_number_parse(relpath, code_lines):
    if not relpath.startswith(("src/", "bench/")) or relpath in PARSE_FILES:
        return
    for lineno, line in enumerate(code_lines, 1):
        for pat, what in _NUMBER_PARSE_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} outside src/sim/parse.h: read numbers with "
                       "sim::parse_number (whole string, sign only for signed "
                       "types, in range of the field, finite), or the CLI/env "
                       "wrappers built on it.")
                break


_PER_HOP_PATTERNS = [
    (re.compile(r"\bfunction\s*<"), "std::function"),
    (re.compile(r"#\s*include\s*<functional>"), "#include <functional>"),
]


def rule_per_hop_dispatch(relpath, code_lines):
    if relpath not in PER_HOP_FILES:
        return
    for lineno, line in enumerate(code_lines, 1):
        for pat, what in _PER_HOP_PATTERNS:
            if pat.search(line):
                yield (lineno,
                       f"{what} in the per-hop path: a packet hop makes one "
                       "direct call per decision. Implement net::Router, "
                       "net::Endpoint or net::DefaultHandler instead.")
                break


_QUOTED_INCLUDE = re.compile(r'#\s*include\s+"([^"]+)"')


def rule_include_layering(relpath, code_lines):
    layer = _layer_of(relpath)
    if layer is None or layer not in LAYER_DEPS:
        return
    allowed = LAYER_DEPS[layer]
    for lineno, line in enumerate(code_lines, 1):
        m = _QUOTED_INCLUDE.search(line)
        if not m:
            continue
        target = m.group(1).split("/")[0]
        if target in LAYER_DEPS and target not in allowed:
            yield (lineno,
                   f"layer '{layer}' may not include '{target}/...' — the "
                   "CMake link graph has no such edge (allowed: "
                   f"{', '.join(sorted(allowed))}). Add the dependency in "
                   "CMakeLists.txt AND here only with a layering argument.")


# Markers live in comments, which the stripper blanks, so this rule reads
# the raw lines (see the needs_raw dispatch in lint_source). The struct
# body itself is scanned in the stripped text so commented-out members and
# string contents can't skew the count.
_CHECKPOINT_MARKER = re.compile(r"//\s*checkpoint:v(\d+)\s+fields=(\d+)\s*$")
_STRUCT_OPEN = re.compile(
    r"^\s*(?:template\s*<[^>]*>\s*)?(?:struct|class)\s+(\w+)")
_ACCESS_SPEC = re.compile(r"^(?:public|private|protected)\s*:\s*")
_ATTRIBUTE = re.compile(r"^\[\[[^\]]*\]\]\s*")
_NON_MEMBER_KEYWORDS = re.compile(
    r"^(?:using|typedef|static|friend|template|struct|class|enum)\b")


def _is_member_statement(stmt):
    """True if a depth-1 struct-body statement (terminated by ';') declares
    a data member rather than a method/alias/nested type."""
    s = stmt.strip()
    while True:
        trimmed = _ACCESS_SPEC.sub("", _ATTRIBUTE.sub("", s))
        if trimmed == s:
            break
        s = trimmed
    if not s or _NON_MEMBER_KEYWORDS.match(s):
        return False
    # Blank template argument lists so `std::function<void(int)> f;` isn't
    # mistaken for a function declaration by the paren test below.
    while True:
        collapsed = re.sub(r"<[^<>]*>", "", s)
        if collapsed == s:
            break
        s = collapsed
    if "operator" in s:
        return False
    eq, par = s.find("="), s.find("(")
    return par == -1 or (eq != -1 and eq < par)


def _count_data_members(text, open_brace):
    """Counts data-member declarations in the struct body whose opening
    brace is at text[open_brace]. Nested blocks (method bodies, nested
    types, brace initializers) are skipped wholesale; a skipped block
    followed by ';' belongs to the statement (init or nested definition),
    one without ';' was a method body and voids the pending statement."""
    i, n = open_brace + 1, len(text)
    count = 0
    stmt = []
    while i < n:
        c = text[i]
        if c == "}":
            break
        if c == "{":
            inner = 1
            i += 1
            while i < n and inner > 0:
                if text[i] == "{":
                    inner += 1
                elif text[i] == "}":
                    inner -= 1
                i += 1
            j = i
            while j < n and text[j].isspace():
                j += 1
            if j >= n or text[j] != ";":
                stmt = []  # method body — not a declaration statement
            continue
        if c == ";":
            if _is_member_statement("".join(stmt)):
                count += 1
            stmt = []
        else:
            stmt.append(c)
        i += 1
    return count


def rule_checkpoint_coverage(relpath, code_lines, raw_lines):
    if _layer_of(relpath) is None:
        return
    for lineno, raw in enumerate(raw_lines, 1):
        m = _CHECKPOINT_MARKER.search(raw)
        if not m:
            continue
        version, declared = int(m.group(1)), int(m.group(2))
        j = lineno  # 0-based index of the line after the marker
        while j < len(code_lines) and not code_lines[j].strip():
            j += 1
        struct_match = _STRUCT_OPEN.match(code_lines[j]) \
            if j < len(code_lines) else None
        if struct_match is None:
            yield (lineno,
                   "dangling checkpoint marker: `// checkpoint:vN fields=M` "
                   "must immediately precede the struct/class it covers.")
            continue
        body = "\n".join(code_lines[j:])
        open_brace = body.find("{")
        if open_brace < 0:
            yield (lineno,
                   "dangling checkpoint marker: tagged declaration "
                   f"'{struct_match.group(1)}' has no body here (markers "
                   "go on the definition, not a forward declaration).")
            continue
        actual = _count_data_members(body, open_brace)
        if actual != declared:
            yield (lineno,
                   f"checkpoint-tagged struct '{struct_match.group(1)}' has "
                   f"{actual} data member(s) but the marker says "
                   f"fields={declared}: a serialized struct changed shape. "
                   f"Update the marker (fields={actual}, and bump v{version} "
                   f"-> v{version + 1} if the wire layout changed) in the "
                   "same change as the serializer/reader — see "
                   "docs/CHECKPOINT.md versioning rules.")


rule_checkpoint_coverage.needs_raw = True


RULES = {
    "rng-shard-path": rule_rng_shard_path,
    "unordered-iteration": rule_unordered_iteration,
    "pointer-order": rule_pointer_order,
    "wall-clock": rule_wall_clock,
    "raw-packet-alloc": rule_raw_packet_alloc,
    "include-layering": rule_include_layering,
    "sync-primitive": rule_sync_primitive,
    "circuit-rule": rule_circuit_rule,
    "number-parse": rule_number_parse,
    "per-hop-dispatch": rule_per_hop_dispatch,
    "checkpoint-coverage": rule_checkpoint_coverage,
}


def lint_source(relpath, text, allowlist=()):
    """Lints one file's contents. Returns the violations that survive the
    allowlist; marks matched entries used. Pure except for that marking."""
    code_lines = strip_comments_and_strings(text).split("\n")
    raw_lines = text.split("\n")
    # The stripper blanks string-literal contents, which would erase the
    # paths the layering rule needs — keep #include lines verbatim.
    for i, raw in enumerate(raw_lines):
        if i < len(code_lines) and raw.lstrip().startswith("#include"):
            code_lines[i] = raw
    violations = []
    for rule_name, rule_fn in RULES.items():
        if getattr(rule_fn, "needs_raw", False):
            findings = rule_fn(relpath, code_lines, raw_lines)
        else:
            findings = rule_fn(relpath, code_lines)
        for lineno, message in findings:
            line_text = raw_lines[lineno - 1] if lineno - 1 < len(raw_lines) else ""
            v = Violation(rule_name, relpath, lineno, message, line_text)
            allowed = False
            for entry in allowlist:
                if (entry.rule == rule_name and entry.path == relpath
                        and entry.pattern.search(line_text)):
                    entry.used = True
                    allowed = True
                    break
            if not allowed:
                violations.append(v)
    violations.sort(key=lambda v: (v.path, v.line))
    return violations


def lint_tree(root, relpaths, allowlist=()):
    """Lints `relpaths` (posix-relative to `root`). Returns violations."""
    violations = []
    for relpath in sorted(relpaths):
        text = (root / relpath).read_text(encoding="utf-8", errors="replace")
        violations.extend(lint_source(relpath, text, allowlist))
    return violations


def discover_sources(root):
    return sorted(
        p.relative_to(root).as_posix()
        for top in ("src", "bench")
        for ext in ("*.h", "*.cc")
        for p in (root / top).rglob(ext))


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Statically enforce the bit-identical-threads contract.")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: all of src/ and bench/)")
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="repo root (default: the checkout containing this script)")
    parser.add_argument("--allowlist", type=pathlib.Path, default=None,
                        help="allowlist file (default: scripts/opera_lint_allowlist.txt)")
    parser.add_argument("--strict", action="store_true",
                        help="unused allowlist entries are errors, not warnings")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in RULES:
            print(name)
        return 0

    root = args.root.resolve()
    allowlist_path = args.allowlist or root / "scripts" / "opera_lint_allowlist.txt"
    entries = []
    if allowlist_path.exists():
        entries, errors = parse_allowlist(allowlist_path.read_text(),
                                          str(allowlist_path))
        if errors:
            for e in errors:
                print(f"error: {e}", file=sys.stderr)
            return 2

    if args.paths:
        relpaths = []
        for p in args.paths:
            resolved = pathlib.Path(p).resolve()
            try:
                relpaths.append(resolved.relative_to(root).as_posix())
            except ValueError:
                print(f"error: {p} is outside the repo root {root}", file=sys.stderr)
                return 2
    else:
        relpaths = discover_sources(root)

    violations = lint_tree(root, relpaths, entries)
    for v in violations:
        print(f"{v.path}:{v.line}: [{v.rule}] {v.message}")

    unused = [e for e in entries if not e.used]
    for e in unused:
        print(f"{'error' if args.strict else 'warning'}: allowlist entry at "
              f"{allowlist_path.name}:{e.lineno} never matched "
              f"({e.rule} | {e.path}) — remove it or fix the pattern",
              file=sys.stderr)

    if violations:
        print(f"opera-lint: {len(violations)} violation(s) in "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    if args.strict and unused:
        return 1
    print(f"opera-lint: {len(relpaths)} file(s) clean "
          f"({len(entries)} allowlist entr{'y' if len(entries) == 1 else 'ies'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
