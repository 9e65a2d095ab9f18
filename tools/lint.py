#!/usr/bin/env python3
"""Repo-invariant lint for aadedupe — the rules clang-tidy cannot express.

Registered as the `repo_lint` ctest (label: lint) and run by the CI "lint"
job, so a violation fails the build everywhere, not just on machines with
LLVM installed.

Rules (see DESIGN.md §5 for rationale):
  pragma-once     every header uses `#pragma once` (no include guards).
  using-namespace no `using namespace` at namespace scope in headers; it
                  leaks into every includer.
  no-stdout       no std::cout/std::cerr/printf-family output in src/ —
                  metrics and tables go through metrics/table_writer,
                  library code never writes to the terminal.
  throw-taxonomy  every `throw` in src/ uses the check.hpp taxonomy
                  (PreconditionError / InvariantError / FormatError) or the
                  typed cloud error (CloudTransportError); bare rethrow
                  (`throw;`) is allowed. Callers can then catch by category
                  instead of pattern-matching what() strings.
  no-raw-random   no rand()/std::random_device outside src/util/rng —
                  reproducible sessions need every random byte to flow from
                  a seedable Rng (cert-msc32/51 stay disabled in .clang-tidy
                  for exactly this reason: determinism is the point).
  no-raw-stderr   no std::cerr / fprintf(stderr, ...) in src/, bench/, or
                  examples/ — diagnostics route through the structured
                  logging API (telemetry::Logger / AAD_LOG), which feeds
                  the flight recorder and honors AAD_LOG_LEVEL. Exempt:
                  src/telemetry/ (the sinks themselves) and tests/
                  (allowlisted — test harness output is not diagnostics).
  stats-structs   no new `struct *Stats` in src/ outside src/telemetry —
                  new observability goes through telemetry::MetricsRegistry
                  counters/histograms and RunReport sections instead of yet
                  another ad-hoc struct. The existing five are grandfathered
                  (and are themselves folded into RunReport).
  no-raw-getenv   no raw std::getenv outside src/telemetry/ and
                  bench/bench_common.* — environment knobs flow through
                  telemetry::env_u64/env_double/env_str/env_flag (and
                  env_secret for values that must never be logged) so a
                  knob can't silently fork semantics per call site. The
                  grandfather list is empty: every pre-rule hit has been
                  migrated.
  no-raw-socket   no raw socket(2)/accept/bind/listen/connect outside
                  src/telemetry/ops_server.cpp — the ops plane is the one
                  network surface in the tree; everything else (tests,
                  tools, benches) talks to it via ops_http_get(), which
                  keeps bind policy, timeouts, and request bounding in a
                  single reviewed file.
  param-test-names
                  every INSTANTIATE_TEST_SUITE_P in tests/ whose fixture
                  parameter is not an integer or string type has a
                  PrintTo (or operator<<) for that type in the same file.
                  gtest otherwise prints the value as "N-byte object <hex>",
                  which gtest_discover_tests puts into the ctest name: the
                  names are unreadable, and change from run to run when the
                  bytes hold pointers. A name generator alone does not help:
                  CMake substitutes the printed value only for index-named
                  tests and appends "# GetParam() = <value>" to any other.

`lint.py --selftest` runs each rule that has fixtures against a tripping
and a clean example; a normal run does the same before scanning the tree.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Directories holding first-party C++ sources.
CPP_DIRS = ("src", "tests", "bench", "examples")

HEADER_GLOB = "*.hpp"
SOURCE_GLOBS = ("*.hpp", "*.cpp")


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line breaks.

    Keeps the lint regexes from tripping on documentation ("... std::cout
    ...") or message strings. Not a full lexer, but handles // and /* */
    comments plus simple quoted literals, which is all this tree uses.
    """
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated (raw string etc.) — bail to code
                state = "code"
                out.append(c)
            i += 1
            continue
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO)
        return f"{rel}:{self.line}: [{self.rule}] {self.message}"


def iter_files(dirs, globs):
    for d in dirs:
        root = REPO / d
        if not root.is_dir():
            continue
        for glob in globs:
            yield from sorted(root.rglob(glob))


def line_of(text: str, match_start: int) -> int:
    return text.count("\n", 0, match_start) + 1


def check_pragma_once(findings):
    for path in iter_files(CPP_DIRS, (HEADER_GLOB,)):
        text = path.read_text(encoding="utf-8")
        if "#pragma once" not in text:
            findings.append(
                Finding("pragma-once", path, 1,
                        "header missing `#pragma once`"))


USING_NS = re.compile(r"^\s*using\s+namespace\b", re.MULTILINE)


def check_using_namespace(findings):
    # Headers only: at namespace/global scope a `using namespace` leaks into
    # every includer. We flag any occurrence in a header — this tree has no
    # legitimate function-local use in headers either.
    for path in iter_files(CPP_DIRS, (HEADER_GLOB,)):
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in USING_NS.finditer(text):
            findings.append(
                Finding("using-namespace", path, line_of(text, m.start()),
                        "`using namespace` in a header"))


STDOUT_USE = re.compile(
    r"std::cout|std::cerr|std::clog|(?<![\w:])(?:printf|fprintf|puts|putchar)\s*\(")


def check_no_stdout(findings):
    # Library code (src/) must not write to the terminal; snprintf-to-buffer
    # is fine (and used by table_writer/units for formatting).
    for path in iter_files(("src",), SOURCE_GLOBS):
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in STDOUT_USE.finditer(text):
            findings.append(
                Finding("no-stdout", path, line_of(text, m.start()),
                        f"terminal output `{m.group(0).rstrip('(').strip()}` in "
                        "library code (metrics go through table_writer)"))


STDERR_USE = re.compile(r"std::cerr|(?<![\w:])fprintf\s*\(\s*stderr\b")

# tests/ is deliberately absent: assertions and harness chatter there are
# not product diagnostics. src/telemetry/ is where the sinks live.
STDERR_DIRS = ("src", "bench", "examples")


def check_no_raw_stderr(findings):
    telemetry_dir = REPO / "src" / "telemetry"
    for path in iter_files(STDERR_DIRS, SOURCE_GLOBS):
        if telemetry_dir in path.parents:
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in STDERR_USE.finditer(text):
            findings.append(
                Finding("no-raw-stderr", path, line_of(text, m.start()),
                        f"raw stderr write `{m.group(0).strip()}` — route "
                        "diagnostics through AAD_LOG / telemetry::Logger so "
                        "they reach the flight recorder and honor "
                        "AAD_LOG_LEVEL"))


THROW = re.compile(r"(?<![\w])throw\b\s*([^;]*)")
ALLOWED_THROW = re.compile(
    r"^(?:::)?(?:aadedupe::)?(?:cloud::)?"
    r"(?:PreconditionError|InvariantError|FormatError|CloudTransportError)\b"
    r"|^$")  # empty expression = bare rethrow `throw;`


def check_throw_taxonomy(findings):
    taxonomy_root = REPO / "src" / "util" / "check.hpp"
    for path in iter_files(("src",), SOURCE_GLOBS):
        if path == taxonomy_root:
            continue  # the taxonomy itself constructs the exceptions
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in THROW.finditer(text):
            expr = m.group(1).strip()
            if ALLOWED_THROW.match(expr):
                continue
            findings.append(
                Finding("throw-taxonomy", path, line_of(text, m.start()),
                        f"naked `throw {expr[:40]}...` — use the check.hpp "
                        "taxonomy (Precondition/Invariant/FormatError) or "
                        "cloud::CloudTransportError"))


RAW_RANDOM = re.compile(r"(?<![\w:])rand\s*\(|std::random_device")


def check_no_raw_random(findings):
    rng_dir = REPO / "src" / "util"
    for path in iter_files(CPP_DIRS, SOURCE_GLOBS):
        if path.parent == rng_dir and path.stem == "rng":
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in RAW_RANDOM.finditer(text):
            findings.append(
                Finding("no-raw-random", path, line_of(text, m.start()),
                        f"`{m.group(0).strip()}` outside src/util/rng — all "
                        "randomness flows from the seedable Rng"))


STATS_STRUCT = re.compile(r"(?<![\w:])struct\s+(\w*Stats)\b")

# Grandfathered stats structs (file-relative path, struct name). New
# observability belongs in telemetry::MetricsRegistry / RunReport; the
# decorator-level snapshot structs (RetryStats, FaultStats, pipeline
# Stats) have been folded into per-counter accessors + RunReport sections.
# The three survivors stay because each is a *value type* in a public
# API, not just a counter bag:
#   StoreStats — returned atomically under the store lock; splitting it
#     into accessors would tear concurrent readers' snapshots.
#   IndexStats — part of the ChunkIndex virtual interface; every backend
#     implements it, and bench tables diff before/after snapshots.
#   ApplicationStats — the per-partition row of the paper's Table-style
#     report; consumers iterate a vector of them.
ALLOWED_STATS = {
    ("src/cloud/object_store.hpp", "StoreStats"),
    ("src/index/chunk_index.hpp", "IndexStats"),
    ("src/core/aa_dedupe.hpp", "ApplicationStats"),
}


def check_stats_structs(findings):
    telemetry_dir = REPO / "src" / "telemetry"
    for path in iter_files(("src",), SOURCE_GLOBS):
        if telemetry_dir in path.parents:
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        rel = path.relative_to(REPO).as_posix()
        for m in STATS_STRUCT.finditer(text):
            if (rel, m.group(1)) in ALLOWED_STATS:
                continue
            findings.append(
                Finding("stats-structs", path, line_of(text, m.start()),
                        f"new stats struct `{m.group(1)}` outside "
                        "src/telemetry — use telemetry::MetricsRegistry "
                        "counters/histograms or a RunReport section"))


RAW_GETENV = re.compile(r"(?<![\w:])(?:std::)?getenv\s*\(")


def check_no_raw_getenv(findings):
    # The sanctioned homes: src/telemetry/ (env.cpp is the parser; the
    # logger/observability bootstrap reads its own knobs before a bench
    # context exists) and bench_common (legacy aliases of the telemetry
    # helpers). The one-time grandfather list (cpu_features, backup_tool)
    # is gone — both sites now route through telemetry::env_*.
    telemetry_dir = REPO / "src" / "telemetry"
    for path in iter_files(CPP_DIRS, SOURCE_GLOBS):
        if telemetry_dir in path.parents:
            continue
        if path.parent == REPO / "bench" and path.stem == "bench_common":
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in RAW_GETENV.finditer(text):
            findings.append(
                Finding("no-raw-getenv", path, line_of(text, m.start()),
                        "raw `std::getenv` — read environment knobs via "
                        "telemetry::env_u64/env_double/env_str/env_flag "
                        "(env_secret for sensitive values) so every knob "
                        "has one parse and one doc home"))


RAW_SOCKET = re.compile(
    r"(?<![\w:.])::(?:socket|bind|listen|accept|connect|recv|send)\s*\(|"
    r"(?<![\w:.])(?:socket|accept)\s*\(\s*AF_")


def check_no_raw_socket(findings):
    # One network surface: the ops server. Its bind policy (loopback),
    # socket timeouts, and request bounding are security-relevant and
    # reviewed in one file; test/tool clients go through ops_http_get().
    allowed = REPO / "src" / "telemetry" / "ops_server.cpp"
    for path in iter_files(CPP_DIRS, SOURCE_GLOBS):
        if path == allowed:
            continue
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for m in RAW_SOCKET.finditer(text):
            findings.append(
                Finding("no-raw-socket", path, line_of(text, m.start()),
                        f"raw socket call `{m.group(0).rstrip('(').strip()}` "
                        "outside src/telemetry/ops_server.cpp — serve via "
                        "OpsServer, query via ops_http_get()"))


PARAM_FIXTURE = re.compile(
    r"class\s+(\w+)\s*:\s*public\s+(?:::)?testing::TestWithParam<\s*"
    r"([\w:]+)\s*>")
INSTANTIATE = re.compile(r"\bINSTANTIATE_TEST_SUITE_P\s*\(")
# Parameter types gtest prints as their own (stable, legible) value.
PRINTABLE_PARAM = re.compile(
    r"(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|string|string_view)|"
    r"(?:unsigned\s+)?(?:int|long|short|char)|bool|const\s+char\s*\*")


def param_test_name_findings(text: str) -> list[tuple[int, str]]:
    """(line, message) for each instantiation of `text` whose parameter
    gtest would print as raw bytes. `text` is comment/string-stripped."""
    fixtures = dict(PARAM_FIXTURE.findall(text))
    out = []
    for m in INSTANTIATE.finditer(text):
        # Second macro argument: the fixture name.
        args = text[m.end():].split(",", 2)
        fixture = args[1].strip() if len(args) > 1 else ""
        ptype = fixtures.get(fixture)
        if ptype is None:
            out.append((line_of(text, m.start()),
                        f"parameterized suite `{fixture}`: its "
                        "TestWithParam<T> fixture is not in this file, so "
                        "its test names cannot be checked"))
            continue
        if PRINTABLE_PARAM.fullmatch(ptype):
            continue
        bare = re.escape(ptype.split("::")[-1])
        printer = re.compile(
            r"PrintTo\s*\(\s*const\s+(?:[\w:]*::)?" + bare + r"\s*&|"
            r"operator<<\s*\([^,]*,\s*const\s+(?:[\w:]*::)?" + bare +
            r"\s*&")
        if not printer.search(text):
            out.append((line_of(text, m.start()),
                        f"parameterized suite `{fixture}` over `{ptype}` "
                        f"has no PrintTo for `{ptype}`: gtest names its "
                        "tests by raw object bytes"))
    return out


def check_param_test_names(findings):
    for path in iter_files(("tests",), ("*.cpp",)):
        text = strip_comments_and_strings(path.read_text(encoding="utf-8"))
        for line, message in param_test_name_findings(text):
            findings.append(Finding("param-test-names", path, line, message))


PARAM_TRIP = """
struct Case { const char* engine; int size; };
class Cover : public ::testing::TestWithParam<Case> {};
INSTANTIATE_TEST_SUITE_P(All, Cover, ::testing::Values(Case{"sc", 1}));
"""
PARAM_CLEAN = """
struct Case { const char* engine; int size; };
void PrintTo(const Case& c, std::ostream* os) { *os << c.engine; }
class Cover : public ::testing::TestWithParam<Case> {};
INSTANTIATE_TEST_SUITE_P(All, Cover, ::testing::Values(Case{"sc", 1}));
class Sizes : public ::testing::TestWithParam<std::size_t> {};
INSTANTIATE_TEST_SUITE_P(Small, Sizes, ::testing::Values(0, 1, 4096));
"""


def selftest() -> int:
    trip = param_test_name_findings(strip_comments_and_strings(PARAM_TRIP))
    clean = param_test_name_findings(strip_comments_and_strings(PARAM_CLEAN))
    if len(trip) != 1 or "`Cover` over `Case`" not in trip[0][1] or clean:
        print(f"lint selftest: FAIL — param-test-names trip={trip} "
              f"clean={clean}")
        return 1
    return 0


CHECKS = (
    check_pragma_once,
    check_using_namespace,
    check_no_stdout,
    check_no_raw_stderr,
    check_throw_taxonomy,
    check_no_raw_random,
    check_stats_structs,
    check_no_raw_getenv,
    check_no_raw_socket,
    check_param_test_names,
)


def main() -> int:
    if selftest() != 0:
        return 1
    if sys.argv[1:] == ["--selftest"]:
        print("lint selftest: OK")
        return 0
    findings: list[Finding] = []
    for check in CHECKS:
        check(findings)
    if findings:
        for f in findings:
            print(f)
        print(f"lint: FAIL — {len(findings)} finding(s) across "
              f"{len({f.path for f in findings})} file(s)")
        return 1
    n_files = len(list(iter_files(CPP_DIRS, SOURCE_GLOBS)))
    print(f"lint: OK — {len(CHECKS)} rules over {n_files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
