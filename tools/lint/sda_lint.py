#!/usr/bin/env python3
"""sda-lint: project-specific static checks for the SDA simulator.

Dependency-free (stdlib only) so it runs anywhere the repo builds.  The
rules encode contracts the compiler cannot see:

  RNG_SOURCE          Nondeterministic sources (rand(), std::random_device,
                      system_clock, time(NULL)) anywhere outside
                      src/util/rng.* — every simulated number must flow
                      from the seeded util::Rng or results stop being
                      reproducible.  The other wall clocks are
                      sda_analyze's WALL_CLOCK, confined to src/sim and
                      src/sched.
  STD_FUNCTION        std::function in simulator code.  Stored callbacks
                      use util::UniqueFn (SBO, move-only), synchronous
                      call parameters use util::FunctionRef, and event
                      closures use sim::InlineFn; std::function's
                      copy-allocate semantics belong to none of them.
  NAKED_NEW           new/delete expressions outside the pool/slab files.
                      Ownership lives in containers and smart pointers;
                      the event queue's slab and UniqueFn's heap fallback
                      are the sanctioned exceptions.
  FLOAT_EQ            Exact ==/!= against a floating-point literal.  Use
                      util::feq/util::fne (src/util/feq.hpp), the one
                      sanctioned home for float equality.
  ENDL                std::endl inside a loop — flushes per iteration;
                      use '\n' and flush once.
  PRAGMA_ONCE         Header missing #pragma once.
  UNORDERED_ITER      Range-for over a std::unordered_{map,set} member
                      feeding report/result folding: iteration order is
                      unspecified, so fold through a sorted copy instead.
  ASSERT_SIDE_EFFECT  assert(...) whose argument mutates state (++/--/
                      assignment/reset/erase...); NDEBUG builds skip the
                      argument entirely.
  UNBOUNDED_QUEUE     push/push_back/emplace into an identifier whose name
                      contains "queue" with no capacity check in sight
                      (same line or the few lines above).  Admission and
                      retry queues are load-bearing backpressure points:
                      an unchecked push turns overload into unbounded
                      memory growth.  Check .size() against a capacity
                      first, or carry an allow() naming the bound.
  UNCHECKED_IO        A ::read/::write/::fsync call in statement position,
                      its return value discarded.  Short writes and EINTR
                      are normal on sockets and files, and the journal's
                      durability promise is only as good as its checked
                      fsync.  Consume the result (assign, compare, or
                      wrap in a helper); a deliberate discard must be
                      spelled (void)::write(...) or carry an allow().

Suppression: `// sda-lint: allow(RULE) reason` on the offending line or
the line directly above it.  The same spelling suppresses sda_analyze's
rules, which read it through strip_lines() and suppressed() below.
Findings print as `file:line: RULE message` and the exit status is 1
when anything fired, 0 when clean, 2 on usage errors.
"""

import argparse
import os
import re
import sys

HEADER_EXT = (".hpp", ".h", ".hh")
SOURCE_EXT = (".cpp", ".cc", ".cxx") + HEADER_EXT

# Files allowed to use raw entropy / time sources.
RNG_ALLOWED = ("src/util/rng.hpp", "src/util/rng.cpp")
# Files allowed to contain new/delete expressions (slab/pool internals and
# the small-buffer callable's heap fallback).
NAKED_NEW_ALLOWED = (
    "src/sim/event_queue.hpp",
    "src/sim/event_queue.cpp",
    "src/util/unique_fn.hpp",
    "src/sim/inline_fn.hpp",
    "src/util/arena.hpp",
    "src/util/arena.cpp",
)
# The sanctioned home of exact float comparison.
FLOAT_EQ_ALLOWED = ("src/util/feq.hpp",)

ALLOW_RE = re.compile(r"sda-lint:\s*allow\(([A-Z_,\s]+)\)")

# Every suppression pragma in the tree with whatever text follows the
# closing paren.  `--audit-suppressions` requires that text to be a
# non-empty justification: a suppression without a reason is unreviewable
# and fails the audit.
SUPPRESSION_RE = re.compile(r"sda-lint:\s*allow\(([A-Z_,\s]+)\)\s*(.*)")


class Line:
    """One physical line with comments and string/char literals blanked."""

    __slots__ = ("raw", "code", "allows")

    def __init__(self, raw, code, allows):
        self.raw = raw
        self.code = code
        self.allows = allows


def strip_lines(text):
    """Returns a list of Line: comments and literal contents replaced by
    spaces (same length, so columns survive), plus per-line allow() sets."""
    out = []
    raw_lines = text.split("\n")
    # Collect allow() pragmas per line first (they live inside comments).
    allows = []
    for raw in raw_lines:
        found = set()
        for m in ALLOW_RE.finditer(raw):
            for rule in m.group(1).split(","):
                rule = rule.strip()
                if rule:
                    found.add(rule)
        allows.append(found)

    state = "code"  # code | block_comment
    for idx, raw in enumerate(raw_lines):
        buf = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if state == "block_comment":
                if c == "*" and i + 1 < n and raw[i + 1] == "/":
                    state = "code"
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
                continue
            if c == "/" and i + 1 < n and raw[i + 1] == "/":
                buf.append(" " * (n - i))
                break
            if c == "/" and i + 1 < n and raw[i + 1] == "*":
                state = "block_comment"
                buf.append("  ")
                i += 2
                continue
            if c == '"' or c == "'":
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                        continue
                    if raw[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    buf.append(" ")
                    i += 1
                continue
            buf.append(c)
            i += 1
        out.append(Line(raw, "".join(buf), allows[idx]))
    return out


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def suppressed(lines, idx, rule):
    """allow(RULE) on the same line or the line directly above."""
    if rule in lines[idx].allows:
        return True
    if idx > 0 and rule in lines[idx - 1].allows:
        return True
    return False


def relpath(path, root):
    return os.path.relpath(path, root).replace(os.sep, "/")


# --- individual rules ------------------------------------------------------

RNG_PATTERNS = [
    (re.compile(r"\b(?:std::)?random_device\b"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"(?:\bstd::|(?<![:\w.]))rand\s*\("), "rand()"),
    (re.compile(r"(?:\bstd::|(?<![:\w.]))srand\s*\("), "srand()"),
    (re.compile(r"(?:\bstd::|(?<![:\w.>]))time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
]


def rule_rng_source(rel, lines, findings):
    if rel in RNG_ALLOWED:
        return
    for idx, ln in enumerate(lines):
        for pat, what in RNG_PATTERNS:
            if pat.search(ln.code) and not suppressed(lines, idx, "RNG_SOURCE"):
                findings.append(Finding(
                    rel, idx + 1, "RNG_SOURCE",
                    f"nondeterministic source {what}; draw from the seeded "
                    "util::Rng instead (src/util/rng.hpp)"))


STD_FUNCTION_RE = re.compile(r"\bstd::function\s*<")


def rule_std_function(rel, lines, findings):
    for idx, ln in enumerate(lines):
        if STD_FUNCTION_RE.search(ln.code) and \
                not suppressed(lines, idx, "STD_FUNCTION"):
            findings.append(Finding(
                rel, idx + 1, "STD_FUNCTION",
                "std::function in simulator code; use util::UniqueFn for "
                "stored callbacks, util::FunctionRef for call-and-return "
                "parameters, or sim::InlineFn for event closures"))


NEW_RE = re.compile(r"(?<![:\w.])new\b(?!\s*\()")
PLACEMENT_NEW_RE = re.compile(r"(?<![:\w.])new\s*\(")
DELETE_RE = re.compile(r"(?<![:\w.])delete\b(?!\s*\[?\]?\s*\()")


def rule_naked_new(rel, lines, findings):
    if rel in NAKED_NEW_ALLOWED:
        return
    for idx, ln in enumerate(lines):
        code = ln.code
        # `= delete;` (deleted special members) is not a delete-expression.
        scrubbed = re.sub(r"=\s*delete\s*(;|,)", "", code)
        hit = None
        if NEW_RE.search(code) or PLACEMENT_NEW_RE.search(code):
            hit = "new"
        elif DELETE_RE.search(scrubbed):
            hit = "delete"
        if hit and not suppressed(lines, idx, "NAKED_NEW"):
            findings.append(Finding(
                rel, idx + 1, "NAKED_NEW",
                f"naked {hit} expression; use std::make_unique/containers "
                "(pool internals carry an explicit allow)"))


FLOAT_LITERAL = r"(?:\d+\.\d*(?:[eE][+-]?\d+)?[fF]?|\.\d+(?:[eE][+-]?\d+)?[fF]?|\d+[eE][+-]?\d+[fF]?|\d+\.?\d*[fF])"
FLOAT_EQ_RE = re.compile(
    r"(?:[!=]=\s*[-+]?" + FLOAT_LITERAL + r")|(?:" + FLOAT_LITERAL +
    r"\s*[!=]=)")


def rule_float_eq(rel, lines, findings):
    if rel in FLOAT_EQ_ALLOWED:
        return
    for idx, ln in enumerate(lines):
        m = FLOAT_EQ_RE.search(ln.code)
        if not m:
            continue
        # Skip `==` that is part of `<=`/`>=` captured oddly, and skip
        # integral-looking contexts like `x == 0` (no dot/exponent) — the
        # pattern already requires a float literal, so just report.
        if not suppressed(lines, idx, "FLOAT_EQ"):
            findings.append(Finding(
                rel, idx + 1, "FLOAT_EQ",
                "exact ==/!= against a float literal; use util::feq / "
                "util::fne (src/util/feq.hpp)"))


LOOP_KEYWORD_RE = re.compile(r"\b(for|while|do)\b")
ENDL_RE = re.compile(r"\bstd::endl\b")


def rule_endl(rel, lines, findings):
    """Flags std::endl lexically inside a loop body.

    Brace-depth tracker: when a loop keyword appears, the next `{` opens a
    loop scope; std::endl at any depth inside one is flagged.  One-line
    `for (...) os << std::endl;` (no brace) is caught by flagging a line
    that has both a loop keyword and std::endl.
    """
    depth = 0
    loop_depths = []  # brace depths at which a loop body opened
    pending_loop = False
    for idx, ln in enumerate(lines):
        code = ln.code
        has_loop_kw = bool(LOOP_KEYWORD_RE.search(code))
        has_endl = bool(ENDL_RE.search(code))
        inside_loop = bool(loop_depths)
        if has_endl and (inside_loop or has_loop_kw) and \
                not suppressed(lines, idx, "ENDL"):
            findings.append(Finding(
                rel, idx + 1, "ENDL",
                "std::endl inside a loop flushes every iteration; stream "
                "'\\n' and flush once after the loop"))
        if has_loop_kw:
            pending_loop = True
        for c in code:
            if c == "{":
                depth += 1
                if pending_loop:
                    loop_depths.append(depth)
                    pending_loop = False
            elif c == "}":
                if loop_depths and loop_depths[-1] == depth:
                    loop_depths.pop()
                depth = max(0, depth - 1)
        # A statement terminator at depth with no brace consumed the
        # pending loop header (single-statement body).
        if pending_loop and ";" in code and "{" not in code:
            pending_loop = False


def rule_pragma_once(rel, lines, findings):
    if not rel.endswith(HEADER_EXT):
        return
    for ln in lines:
        if ln.code.strip().startswith("#pragma once"):
            return
    if lines and suppressed(lines, 0, "PRAGMA_ONCE"):
        return
    findings.append(Finding(
        rel, 1, "PRAGMA_ONCE", "header is missing #pragma once"))


UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s*"
    r"(\w+)\s*[;{=]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(\s*[^;)]*?[:&\]\s]\s*:\s*(\w[\w.\->]*)\s*\)")


def collect_unordered_names(all_lines_by_file):
    """Global set of identifiers declared as unordered containers, plus a
    per-file map for disambiguating bare local names."""
    global_names = set()
    per_file = {}
    for path, lines in all_lines_by_file.items():
        local = set()
        for ln in lines:
            for m in UNORDERED_DECL_RE.finditer(ln.code):
                local.add(m.group(1))
        per_file[path] = local
        global_names |= local
    return global_names, per_file


def rule_unordered_iter(rel, lines, findings, unordered_names, local_names):
    for idx, ln in enumerate(lines):
        m = RANGE_FOR_RE.search(ln.code)
        if not m:
            continue
        target = m.group(1)
        # `run.live`, `this->state`, `abort_timers_` → last component.
        base = re.split(r"\.|->", target)[-1]
        # A bare plain identifier (no member access, no trailing
        # underscore) is a local; trust only declarations from this file —
        # a common name like `state` would otherwise collide with members
        # declared elsewhere.  Member-style names (`foo_`) and dotted
        # paths resolve against every scanned declaration, since class
        # members routinely live in a header while the loop is in the .cpp.
        if base == target and not base.endswith("_"):
            candidates = local_names
        else:
            candidates = unordered_names
        if base in candidates and \
                not suppressed(lines, idx, "UNORDERED_ITER"):
            findings.append(Finding(
                rel, idx + 1, "UNORDERED_ITER",
                f"range-for over unordered container '{target}': iteration "
                "order is unspecified; fold through a sorted copy (or "
                "carry an allow() with the sorting justification)"))


ASSERT_RE = re.compile(r"\bassert\s*\(")
SIDE_EFFECT_RE = re.compile(
    r"(\+\+|--|(?<![=!<>+\-*/%&|^])=(?![=])|\.erase\s*\(|\.reset\s*\(|"
    r"\.push_back\s*\(|\.pop\s*\(|\.insert\s*\(|\.clear\s*\()")


def rule_assert_side_effect(rel, lines, findings):
    for idx, ln in enumerate(lines):
        code = ln.code
        m = ASSERT_RE.search(code)
        if not m:
            continue
        # Extract the argument up to the matching ')' (single line only —
        # multi-line asserts are rare and caught by eye in review).
        start = m.end()
        depth = 1
        j = start
        while j < len(code) and depth > 0:
            if code[j] == "(":
                depth += 1
            elif code[j] == ")":
                depth -= 1
            j += 1
        arg = code[start:j - 1] if depth == 0 else code[start:]
        if SIDE_EFFECT_RE.search(arg) and \
                not suppressed(lines, idx, "ASSERT_SIDE_EFFECT"):
            findings.append(Finding(
                rel, idx + 1, "ASSERT_SIDE_EFFECT",
                "assert() argument has a side effect; NDEBUG builds drop "
                "the whole expression"))


QUEUE_PUSH_RE = re.compile(
    r"\b((?:\w+(?:\.|->))*\w*queue\w*)\s*(?:\.|->)\s*"
    r"(?:push_back|push_front|push|emplace_back|emplace_front|emplace)"
    r"\s*\(", re.IGNORECASE)
# Evidence that the push is guarded: a size/capacity comparison close by.
QUEUE_GUARD_RE = re.compile(
    r"\.size\s*\(\)|\.length\s*\(\)|capacity|high_water|_cap\b|cap_\b|"
    r"\bmax_\w+|\bfull\b|\bbounded\b", re.IGNORECASE)
QUEUE_GUARD_WINDOW = 6  # lines above the push searched for a guard


def rule_unbounded_queue(rel, lines, findings):
    for idx, ln in enumerate(lines):
        m = QUEUE_PUSH_RE.search(ln.code)
        if not m:
            continue
        lo = max(0, idx - QUEUE_GUARD_WINDOW)
        guarded = any(QUEUE_GUARD_RE.search(lines[j].code)
                      for j in range(lo, idx + 1))
        if guarded or suppressed(lines, idx, "UNBOUNDED_QUEUE"):
            continue
        findings.append(Finding(
            rel, idx + 1, "UNBOUNDED_QUEUE",
            f"push into '{m.group(1)}' without a visible capacity check; "
            "bound the queue (compare .size() against a capacity before "
            "pushing) or carry an allow() naming the bound"))


UNCHECKED_IO_RE = re.compile(r"(?:^|;)\s*::(read|write|fsync)\s*\(")


def rule_unchecked_io(rel, lines, findings):
    """Flags ::read/::write/::fsync whose result is thrown away.

    Statement position (start of line or right after ';') means nothing
    consumes the return value.  Checked forms — `const ssize_t n =
    ::write(...)`, `if (::fsync(fd) != 0)`, `return ::read(...)`,
    `(void)::write(...)` — all put tokens before the call and never
    match.
    """
    for idx, ln in enumerate(lines):
        m = UNCHECKED_IO_RE.search(ln.code)
        if not m:
            continue
        if suppressed(lines, idx, "UNCHECKED_IO"):
            continue
        findings.append(Finding(
            rel, idx + 1, "UNCHECKED_IO",
            f"::{m.group(1)}() return value discarded; short writes/EINTR "
            "are normal — check the result, or spell a deliberate discard "
            "as (void)::" + m.group(1) + "(...)"))


# --- driver ---------------------------------------------------------------

RULES_HELP = [
    "RNG_SOURCE", "STD_FUNCTION", "NAKED_NEW", "FLOAT_EQ", "ENDL",
    "PRAGMA_ONCE", "UNORDERED_ITER", "ASSERT_SIDE_EFFECT",
    "UNBOUNDED_QUEUE", "UNCHECKED_IO",
]


def scan_file(root, path, lines, unordered_names, local_names, only_rules):
    rel = relpath(path, root)
    findings = []
    dispatch = {
        "RNG_SOURCE": lambda: rule_rng_source(rel, lines, findings),
        "STD_FUNCTION": lambda: rule_std_function(rel, lines, findings),
        "NAKED_NEW": lambda: rule_naked_new(rel, lines, findings),
        "FLOAT_EQ": lambda: rule_float_eq(rel, lines, findings),
        "ENDL": lambda: rule_endl(rel, lines, findings),
        "PRAGMA_ONCE": lambda: rule_pragma_once(rel, lines, findings),
        "UNORDERED_ITER": lambda: rule_unordered_iter(
            rel, lines, findings, unordered_names, local_names),
        "ASSERT_SIDE_EFFECT": lambda: rule_assert_side_effect(
            rel, lines, findings),
        "UNBOUNDED_QUEUE": lambda: rule_unbounded_queue(rel, lines, findings),
        "UNCHECKED_IO": lambda: rule_unchecked_io(rel, lines, findings),
    }
    for rule in RULES_HELP:
        if only_rules and rule not in only_rules:
            continue
        dispatch[rule]()
    return findings


def gather(root, subdirs):
    files = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if os.path.isfile(base):
            files.append(base)
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXT):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def audit_suppressions(root, files):
    """Inventory every allow() pragma.  Returns the inventory lines plus a
    Finding for each suppression with no reason."""
    entries, findings = [], []
    for path in files:
        rel = relpath(path, root)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                raw_lines = f.read().split("\n")
        except OSError as e:
            print(f"{rel}:0: ERROR cannot read: {e}", file=sys.stderr)
            continue
        for idx, raw in enumerate(raw_lines):
            for m in SUPPRESSION_RE.finditer(raw):
                rules, reason = m.group(1), m.group(2).strip()
                for rule in rules.split(","):
                    rule = rule.strip()
                    if not rule:
                        continue
                    entries.append(
                        f"{rel}:{idx + 1}: {rule}: "
                        f"{reason or '<no reason>'}")
                    if not reason:
                        findings.append(Finding(
                            rel, idx + 1, rule,
                            "suppression has no reason — add a "
                            "justification after the closing paren"))
    return entries, findings


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Project linter for the SDA simulator "
                    "(rules: " + ", ".join(RULES_HELP) + ")")
    ap.add_argument("paths", nargs="*", default=[],
                    help="files or directories to scan (default: src "
                         "bench examples tools, minus tools/lint)")
    ap.add_argument("--root", default=None,
                    help="repo root for path display (default: cwd or the "
                         "directory containing this script's repo)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--audit-suppressions", action="store_true",
                    help="list every sda-lint allow() pragma "
                         "with its reason; fail if any has no reason")
    args = ap.parse_args(argv)

    root = args.root
    if root is None:
        here = os.path.dirname(os.path.abspath(__file__))
        candidate = os.path.dirname(os.path.dirname(here))
        root = candidate if os.path.isdir(os.path.join(candidate, "src")) \
            else os.getcwd()
    root = os.path.abspath(root)

    only_rules = None
    if args.rules:
        only_rules = {r.strip() for r in args.rules.split(",") if r.strip()}
        unknown = only_rules - set(RULES_HELP)
        if unknown:
            print(f"unknown rules: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    files = gather(root, args.paths or ["src", "bench", "examples", "tools"])
    if not args.paths:
        # Lint fixtures violate (and suppress) rules by design; the
        # selftests scan them.
        files = [f for f in files
                 if not relpath(f, root).startswith("tools/lint/")]
    if not files:
        print("sda-lint: no source files found", file=sys.stderr)
        return 2

    if args.audit_suppressions:
        entries, findings = audit_suppressions(root, files)
        for line in entries:
            print(line)
        for f in findings:
            print(f, file=sys.stderr)
        if findings:
            print(f"sda-lint: {len(findings)} reasonless suppression(s)",
                  file=sys.stderr)
            return 1
        print(f"sda-lint: {len(entries)} suppression(s), all with reasons",
              file=sys.stderr)
        return 0

    # UNORDERED_ITER needs declarations from every scanned file first.
    all_lines = {}
    for path in files:
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                all_lines[path] = strip_lines(f.read())
        except OSError as e:
            print(f"{relpath(path, root)}:0: ERROR cannot read: {e}",
                  file=sys.stderr)
    unordered_names, per_file_names = collect_unordered_names(all_lines)

    findings = []
    for path in files:
        if path not in all_lines:
            continue
        findings.extend(scan_file(root, path, all_lines[path],
                                  unordered_names, per_file_names[path],
                                  only_rules))

    for f in findings:
        print(f)
    if findings:
        print(f"sda-lint: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"sda-lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
