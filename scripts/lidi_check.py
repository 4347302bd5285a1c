#!/usr/bin/env python3
"""lidi-check: the repo's lint gate -- static analysis for the lidi codebase.

Run as `cmake --build build --target lidi-check`, from scripts/check.sh, or
directly:

    python3 scripts/lidi_check.py [--root DIR] [--checks a,b,...]

Every pattern runs on comment- and string-stripped text, so a mention in a
comment or a string literal never trips a check; waiver and justification
lookups read the original lines. Repo scans read C++ sources (.h, .cc, .cpp)
and skip tests/lint_fixtures/, which holds each check's golden trees.

  must-check        Every discarded lidi::Status / lidi::Result must be a
                    deliberate decision. The compiler enforces the baseline
                    (LIDI_NODISCARD on both types -> -Wunused-result under
                    GCC/Clang); this check enforces the waiver discipline on
                    top: a `(void)` / `static_cast<void>` discard of a call
                    result in src/ must carry a `discard-ok:` justification
                    comment within the three preceding lines, and the total
                    number of waivers in src/ is capped. Also verifies
                    status.h still carries LIDI_NODISCARD on both types, so
                    the compiler gate cannot silently rot.

  sim-determinism   Everything under src/sim (and the sim test drivers) must
                    be a pure function of (SimOptions, Schedule): wall-clock
                    reads and unseeded randomness break the same-seed =>
                    byte-identical-trace replay contract (DESIGN.md,
                    "Simulation testing"). Banned outright -- no waivers.

  tsa-coverage      A class that owns a lidi::Mutex / SharedMutex must say,
                    member by member, what that lock protects: every mutable
                    data member is either LIDI_GUARDED_BY / LIDI_PT_GUARDED_BY
                    annotated or waived with a `tsa-ok:` comment within the
                    three preceding lines. const members, atomics, and the
                    sync primitives themselves are exempt. Waivers are capped.

  raw-locks         No raw std lock primitive (std::mutex, lock_guard,
                    condition_variable, ...) in src/, tests/, bench/ or
                    examples/ outside src/common/sync.{h,cc}: a raw lock is
                    invisible to Thread Safety Analysis and to the lock-order
                    registry.

  stream-io         No std::fstream / ofstream / ifstream in src/ outside
                    src/io: durable I/O goes through io::Fs so short writes,
                    sync policy and fault injection stay honest.

  tsa-escape        Every LIDI_NO_THREAD_SAFETY_ANALYSIS in src/, tests/ or
                    bench/ (outside src/common/sync.h) carries a `//` comment
                    on its line or the line above saying why; the total is
                    capped.

  sync-choke-point  Every `->Sync()` / `.Sync()` in src/ outside src/io is a
                    counted fdatasync choke point: it carries a
                    `sync-choke-point` justification within the three lines
                    above it, and the total is capped. Databus may ship only
                    commits the source has made durable, so a stray sync off
                    the group-commit path is a design decision, not drift.

  raw-sockets       No socket(2) / epoll / eventfd call in src/ outside
                    src/net: every RPC flows through net::Transport so it runs
                    on both backends and stays fault-injectable.

Caps are constants below: a new waiver or site past its cap fails the build
even when justified, so raising one is a reviewed change.

Exit codes: 0 clean, 1 violations reported, 2 usage/internal error.
Diagnostics are `path:line: [check] message`, paths relative to --root.
"""

import argparse
import os
import re
import sys

# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

# Caps: growth past a cap fails the build even when every site is justified.
MAX_DISCARD_WAIVERS = 40
MAX_TSA_WAIVERS = 60
MAX_TSA_ESCAPES = 5
MAX_SYNC_CHOKE_POINTS = 2

# How many lines above a flagged site a waiver comment may sit (inclusive of
# the flagged line itself).
WAIVER_WINDOW = 3

SOURCE_EXTS = (".h", ".cc", ".cpp")
FIXTURES_DIR = "tests/lint_fixtures"

NONDET_PATTERNS = [
    (re.compile(r"std::chrono\b"), "std::chrono"),
    (re.compile(r"SystemClock::Default\b"), "SystemClock::Default"),
    (re.compile(r"std::random_device\b"), "std::random_device"),
    (re.compile(r"std::mt19937\b"), "std::mt19937"),
    (re.compile(r"std::default_random_engine\b"), "std::default_random_engine"),
    (re.compile(r"(?<![A-Za-z_:])(rand|srand|time|gettimeofday|clock_gettime)\s*\("),
     "wall clock / unseeded randomness"),
]


class Diagnostics:
    def __init__(self, root):
        self.root = root
        self.items = []
        self.usage = []  # (what, used, cap) per capped population

    def add(self, path, line, check, message):
        rel = os.path.relpath(path, self.root)
        self.items.append((rel, line, check, message))

    def cap(self, scope, check, what, used, cap, advice):
        """Records a capped population and fails when it exceeds its cap."""
        self.usage.append((what, used, cap))
        if used > cap:
            self.add(os.path.join(self.root, scope), 1, check,
                     f"{used} {what} (max {cap}) -- {advice}")

    def emit(self, out=sys.stdout):
        for rel, line, check, message in sorted(self.items):
            print(f"{rel}:{line}: [{check}] {message}", file=out)

    def __len__(self):
        return len(self.items)


# ---------------------------------------------------------------------------
# Lexing: comment/string stripping
# ---------------------------------------------------------------------------

def _is_digit_separator(text, i):
    """True when the `'` at text[i] separates two digits of a numeric literal
    (C++14 `10'000`, `0xFF'FF`) rather than opening a character literal."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "_'."):
        j -= 1
    token = text[j:i]
    if not token or not token[0].isdigit():
        return False
    digits = "0123456789"
    if token[:2].lower() == "0x":
        digits += "abcdefABCDEF"
    return (text[i - 1] in digits and i + 1 < len(text) and
            text[i + 1] in digits)


def strip_comments_and_strings(text):
    """Replaces comment bodies and string/char literal contents with spaces.

    Output has identical length and line structure, so offsets and line
    numbers computed on the stripped text are valid in the original.
    """
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and nxt == "*":
            out[i] = out[i + 1] = " "
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == "'" and _is_digit_separator(text, i):
            i += 1
        elif c == '"' or c == "'":
            quote = c
            # Raw strings: R"delim(...)delim" -- handled as a plain scan for
            # the closing sequence.
            if quote == '"' and i > 0 and text[i - 1] == "R":
                m = re.match(r'"([^\s()\\]*)\(', text[i:])
                if m:
                    closer = ")" + m.group(1) + '"'
                    end = text.find(closer, i + m.end())
                    end = (end + len(closer)) if end != -1 else n
                    for j in range(i, min(end, n)):
                        if text[j] != "\n":
                            out[j] = " "
                    i = end
                    continue
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                    if i < n and text[i] != "\n":
                        out[i] = " "
                    i += 1
                    continue
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            i += 1
        else:
            i += 1
    return "".join(out)


def line_of(text, offset, _cache={}):
    key = id(text)
    starts = _cache.get(key)
    if starts is None or _cache.get("text_" + str(key)) is not text:
        starts = [0]
        for m in re.finditer(r"\n", text):
            starts.append(m.end())
        _cache[key] = starts
        _cache["text_" + str(key)] = text
    lo, hi = 0, len(starts) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if starts[mid] <= offset:
            lo = mid
        else:
            hi = mid - 1
    return lo + 1


def has_waiver(orig_lines, line, token, window=WAIVER_WINDOW):
    """True when `token` appears on `line` or the `window` lines above it
    (1-indexed), in the ORIGINAL text (comments included)."""
    lo = max(1, line - window)
    for ln in range(lo, line + 1):
        if token in orig_lines[ln - 1]:
            return True
    return False


# ---------------------------------------------------------------------------
# File discovery
# ---------------------------------------------------------------------------

def collect_files(root, subdirs, exclude=()):
    """C++ sources under `subdirs` (root-relative files or directories),
    minus tests/lint_fixtures/ and every root-relative path in `exclude`
    (a file, or a directory and everything below it)."""
    skip = (FIXTURES_DIR,) + tuple(exclude)
    files = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if os.path.isfile(base):
            files.append(base)
            continue
        for dirpath, _, names in os.walk(base):
            for name in names:
                if name.endswith(SOURCE_EXTS):
                    files.append(os.path.join(dirpath, name))

    def skipped(path):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        return any(rel == s or rel.startswith(s + "/") for s in skip)

    return sorted(p for p in set(files) if not skipped(p))


class SourceFile:
    def __init__(self, path):
        self.path = path
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            self.text = f.read()
        self.lines = self.text.split("\n")
        self.stripped = strip_comments_and_strings(self.text)


_SOURCES = {}


def load(files):
    """SourceFiles for `files`; each file is read and stripped once per
    run, however many checks scan it."""
    for p in files:
        if p not in _SOURCES:
            _SOURCES[p] = SourceFile(p)
    return [_SOURCES[p] for p in files]


def scan(root, subdirs, pattern, exclude=()):
    """Yields (SourceFile, line, match) for every hit of `pattern` in the
    stripped text of the files in scope."""
    for sf in load(collect_files(root, subdirs, exclude)):
        for m in pattern.finditer(sf.stripped):
            yield sf, line_of(sf.stripped, m.start()), m


# ---------------------------------------------------------------------------
# Check: must-check (discard waiver discipline + nodiscard presence)
# ---------------------------------------------------------------------------

DISCARD_RE = re.compile(
    r"(?:\(\s*void\s*\)|static_cast\s*<\s*void\s*>\s*\()\s*"
    r"[A-Za-z_][\w:]*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*|\s*\(\s*\))*\s*\(")
DISCARD_MESSAGE = ("discarded call result cast to void without a "
                   f"`discard-ok:` justification within the {WAIVER_WINDOW} "
                   "preceding lines")


def check_must_check(root, diags):
    status_h = os.path.join(root, "src", "common", "status.h")
    if os.path.isfile(status_h):
        sf = SourceFile(status_h)
        for cls in ("Status", "Result"):
            pat = re.compile(r"class\s+LIDI_NODISCARD\s+" + cls + r"\b")
            if not pat.search(sf.stripped):
                m = re.search(r"class\s+(?:\w+\s+)?" + cls + r"\b", sf.stripped)
                line = line_of(sf.stripped, m.start()) if m else 1
                diags.add(status_h, line, "must-check",
                          f"lidi::{cls} has lost its LIDI_NODISCARD "
                          "attribute -- the compiler-side discard gate is "
                          "off; restore `class LIDI_NODISCARD " + cls + "`")

    waivers = 0
    for sf, line, _ in scan(root, ["src"], DISCARD_RE):
        if has_waiver(sf.lines, line, "discard-ok:"):
            waivers += 1
        else:
            diags.add(sf.path, line, "must-check", DISCARD_MESSAGE)
    diags.cap("src", "must-check", "discard-ok waivers in src/", waivers,
              MAX_DISCARD_WAIVERS, "fix discards instead of waiving, or "
              "raise the cap in a reviewed change")


# ---------------------------------------------------------------------------
# Check: sim-determinism
# ---------------------------------------------------------------------------

SIM_SCOPE = ["src/sim", "tests/sim_test.cc", "tests/property_sim_test.cc"]


def check_sim_determinism(root, diags):
    for pat, what in NONDET_PATTERNS:
        for sf, line, _ in scan(root, SIM_SCOPE, pat):
            diags.add(sf.path, line, "sim-determinism",
                      f"{what} in simulation-reachable code -- breaks "
                      "same-seed replay; use the virtual ManualClock "
                      "and seeded lidi::Random (no waivers)")


# ---------------------------------------------------------------------------
# Check: tsa-coverage
# ---------------------------------------------------------------------------

MUTEX_DECL_RE = re.compile(
    r"(?:^|\s)(?:lidi::)?(?:Mutex|SharedMutex)\s+\w+_?\s*(?:\{|;|=)")
MEMBER_DECL_RE = re.compile(
    r"^\s*(?:[\w:]+(?:\s*<[^;{}]*>)?[\s*&]+)+(\w+_)\s*(?:\{[^;]*\})?\s*"
    r"(?:=[^;]*)?;")
# Exempt member shapes:
#  - const / static / std::atomic members and the sync primitives
#    themselves (Mutex / SharedMutex / CondVar);
#  - already-annotated members (LIDI_GUARDED_BY / LIDI_PT_GUARDED_BY);
#  - registry instruments (obs::Counter / Gauge / *Histogram /
#    MetricsRegistry): the registry owns them, their hot paths are relaxed
#    atomics, and the pointers are set during construction;
#  - the overload-control primitives (PerClientQuota / TokenBucket /
#    InflightLimiter, common/overload.h): documented thread-safe with their
#    own leaf locks.
MEMBER_EXEMPT_RE = re.compile(
    r"\bconst\b|\bstatic\b|std::atomic|"
    r"\b(?:lidi::)?(?:Mutex|SharedMutex|CondVar)\b|"
    r"\b(?:obs::)?(?:Counter|Gauge|Histogram|LatencyHistogram|"
    r"MetricsRegistry)\b|"
    r"\b(?:lidi::)?(?:PerClientQuota|TokenBucket|InflightLimiter)\b|"
    r"LIDI_GUARDED_BY|LIDI_PT_GUARDED_BY")


def _class_regions(stripped):
    """Yields (body_start, body_end) offsets of class/struct bodies."""
    for m in re.finditer(r"\b(?:class|struct)\s+(?:LIDI_\w+\s+)?\w+"
                         r"(?:\s+final)?(?:\s*:\s*[^;{]+)?\s*\{", stripped):
        start = m.end() - 1
        depth = 0
        i = start
        n = len(stripped)
        while i < n:
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        if i < n:
            yield start, i


def _depth1_statements(stripped, start, end):
    """Yields (stmt_text, stmt_start_offset) for depth-1 statements of the
    class body at [start, end]. Nested brace regions (inline method bodies,
    nested classes, brace initializers) are blanked to spaces — the braces
    themselves survive — so a brace-initialized member like
    `Mutex mu_{"name"};` still reads as one declaration statement while a
    nested class's members never leak into the enclosing scope. A `}` that
    is NOT followed by `;` (an inline method body) also terminates the
    statement, so the declaration after a method is never glued to it."""
    depth = 0
    buf = []
    stmt_start = start + 1
    i = start
    while i <= end:
        c = stripped[i]
        if c == "{":
            depth += 1
            if depth >= 2:
                buf.append("{")
            i += 1
            continue
        if c == "}":
            depth -= 1
            if depth >= 1:
                buf.append("}")
                if depth == 1:
                    # Peek: `};` continues the statement (brace init /
                    # nested type); anything else ends it (method body).
                    j = i + 1
                    while j <= end and stripped[j].isspace():
                        j += 1
                    if j > end or stripped[j] != ";":
                        yield "".join(buf), stmt_start
                        buf = []
                        stmt_start = i + 1
            i += 1
            continue
        if depth >= 2:
            buf.append(" " if c != "\n" else "\n")
            i += 1
            continue
        buf.append(c)
        if c == ";" and depth == 1:
            yield "".join(buf), stmt_start
            buf = []
            stmt_start = i + 1
        i += 1


def check_tsa_coverage(root, diags):
    waivers = 0
    for sf in load(collect_files(root, ["src"])):
        for start, end in _class_regions(sf.stripped):
            statements = list(_depth1_statements(sf.stripped, start, end))
            owns_mutex = any(MUTEX_DECL_RE.search(stmt)
                             for stmt, _ in statements)
            if not owns_mutex:
                continue
            for stmt, offset in statements:
                flat = " ".join(stmt.split())
                m = MEMBER_DECL_RE.match(flat)
                if not m:
                    continue
                if MEMBER_EXEMPT_RE.search(flat):
                    continue
                # Function pointers / using decls / friend lines never match
                # MEMBER_DECL_RE's shape; what's left is a mutable member.
                line = line_of(sf.stripped, offset + len(stmt) -
                               len(stmt.lstrip()))
                if has_waiver(sf.lines, line, "tsa-ok:"):
                    waivers += 1
                    continue
                diags.add(sf.path, line, "tsa-coverage",
                          f"mutable member `{m.group(1)}` of a class that "
                          "owns a lidi::Mutex has no LIDI_GUARDED_BY "
                          "annotation -- say what the lock protects, or "
                          "waive with a `tsa-ok:` comment stating why it "
                          "needs no lock")
    diags.cap("src", "tsa-coverage", "tsa-ok waivers in src/", waivers,
              MAX_TSA_WAIVERS, "annotate instead of waiving, or raise the "
              "cap in a reviewed change")


# ---------------------------------------------------------------------------
# Checks: banned primitives (raw-locks, stream-io, raw-sockets)
# ---------------------------------------------------------------------------

RAW_LOCK_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable|lock_guard|unique_lock|shared_lock|scoped_lock)"
    r"(?![A-Za-z_])")
STREAM_IO_RE = re.compile(r"std::(?:o|i)?fstream")
RAW_SOCKET_RE = re.compile(
    r"(?<![A-Za-z_])(?:socket|connect|accept4?|listen|bind|epoll_create1?|"
    r"epoll_ctl|epoll_wait|eventfd)\s*\(")


def check_raw_locks(root, diags):
    for sf, line, m in scan(root, ["src", "tests", "bench", "examples"],
                            RAW_LOCK_RE,
                            ["src/common/sync.h", "src/common/sync.cc"]):
        diags.add(sf.path, line, "raw-locks",
                  f"raw `{m.group(0)}` outside src/common/sync.{{h,cc}} -- "
                  "use lidi::Mutex / MutexLock / CondVar, which Thread "
                  "Safety Analysis and the lock-order registry can see")


def check_stream_io(root, diags):
    for sf, line, m in scan(root, ["src"], STREAM_IO_RE, ["src/io"]):
        diags.add(sf.path, line, "stream-io",
                  f"`{m.group(0)}` outside src/io -- durable I/O goes "
                  "through the io::Fs layer")


def check_raw_sockets(root, diags):
    for sf, line, m in scan(root, ["src"], RAW_SOCKET_RE, ["src/net"]):
        call = m.group(0).rstrip("( \t\n")
        diags.add(sf.path, line, "raw-sockets",
                  f"raw `{call}()` outside src/net -- go through "
                  "net::Transport so the call runs on both backends and "
                  "stays fault-injectable")


# ---------------------------------------------------------------------------
# Checks: justified, capped sites (tsa-escape, sync-choke-point)
# ---------------------------------------------------------------------------

TSA_ESCAPE_RE = re.compile(r"LIDI_NO_THREAD_SAFETY_ANALYSIS")
SYNC_CALL_RE = re.compile(r"(?:->|\.)Sync\(\)")


def check_tsa_escape(root, diags):
    sites = 0
    for sf, line, _ in scan(root, ["src", "tests", "bench"], TSA_ESCAPE_RE,
                            ["src/common/sync.h"]):
        sites += 1
        if not has_waiver(sf.lines, line, "//", window=1):
            diags.add(sf.path, line, "tsa-escape",
                      "unjustified LIDI_NO_THREAD_SAFETY_ANALYSIS -- add a "
                      "`//` comment on this line or the line above saying "
                      "why")
    diags.cap(".", "tsa-escape", "LIDI_NO_THREAD_SAFETY_ANALYSIS escapes",
              sites, MAX_TSA_ESCAPES, "annotate instead of suppressing")


def check_sync_choke_point(root, diags):
    sites = 0
    for sf, line, _ in scan(root, ["src"], SYNC_CALL_RE, ["src/io"]):
        sites += 1
        if not has_waiver(sf.lines, line, "sync-choke-point"):
            diags.add(sf.path, line, "sync-choke-point",
                      "direct Sync() without a `sync-choke-point` "
                      f"justification within the {WAIVER_WINDOW} preceding "
                      "lines -- route durability through the group "
                      "committer or the policy path in src/io")
    diags.cap("src", "sync-choke-point",
              "direct Sync() sites outside src/io", sites,
              MAX_SYNC_CHOKE_POINTS, "a new fsync choke point needs a "
              "deliberate design decision")


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CHECKS = {
    "must-check": check_must_check,
    "sim-determinism": check_sim_determinism,
    "tsa-coverage": check_tsa_coverage,
    "raw-locks": check_raw_locks,
    "stream-io": check_stream_io,
    "tsa-escape": check_tsa_escape,
    "sync-choke-point": check_sync_choke_point,
    "raw-sockets": check_raw_sockets,
}


def main(argv):
    parser = argparse.ArgumentParser(
        prog="lidi_check.py",
        description="Static analysis and lint gate for the lidi codebase.")
    parser.add_argument("--root", default=None,
                        help="tree to analyze (default: the repo root)")
    parser.add_argument("--checks", default=None,
                        help="comma-separated subset of: " +
                             ", ".join(CHECKS) + " (default: all)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for c in CHECKS:
            print(c)
        return 0

    root = os.path.abspath(args.root) if args.root else \
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(root):
        print(f"lidi-check: no such root: {root}", file=sys.stderr)
        return 2

    checks = list(CHECKS) if args.checks is None else \
        [c.strip() for c in args.checks.split(",") if c.strip()]
    for c in checks:
        if c not in CHECKS:
            print(f"lidi-check: unknown check: {c}", file=sys.stderr)
            return 2

    diags = Diagnostics(root)
    for name in checks:
        CHECKS[name](root, diags)

    if diags.usage and not args.quiet:
        print("lidi-check: caps used: " + ", ".join(
            f"{what} {used}/{cap}" for what, used, cap in diags.usage))
    if len(diags):
        diags.emit()
        if not args.quiet:
            print(f"lidi-check: FAILED ({len(diags)} finding"
                  f"{'s' if len(diags) != 1 else ''})")
        return 1
    if not args.quiet:
        print(f"lidi-check: OK ({', '.join(checks)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
