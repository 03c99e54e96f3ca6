#!/usr/bin/env python3
"""Selftest for sda_analyze: every rule gets a fixture mini-tree.

Unlike the line-oriented sda_lint fixtures (one file per rule), the
semantic analyzer's rules see program structure — layer placement in the
path, the include graph, cross-file member declarations — so each case
is a miniature repo under fixtures/analyze/<case>/src/... scanned with
--root pointed at the case directory.  Every tree mixes the violation
with clean and suppressed counterparts, so the expected counts also
prove the rule does NOT overfire.  Run from anywhere:

    python3 tools/lint/test_sda_analyze.py
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import sda_analyze  # noqa: E402
import sda_lint  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures", "analyze")

# (case directory, rule, expected finding count, substring every finding
#  must contain — anchors the finding to the intended site)
CASES = [
    ("layering", "LAYERING", 1, "src/sim/bad_include.cpp:5"),
    ("cycle", "CYCLE", 1, "src/util/a.hpp -> src/util/b.hpp"),
    ("wall_clock", "WALL_CLOCK", 2, "src/sim/bad_clock.cpp"),
    ("ptr_key", "PTR_KEY_ORDER", 2, "src/core/bad_ptr_key.cpp"),
    ("callback", "CALLBACK_REENTRANT", 1, "src/exp/bad_reentrant.cpp:40"),
]


def scan(tool, case, *extra):
    """Runs @p tool's main() on one fixture tree; returns (exit, findings)."""
    root = os.path.join(FIXTURES, case)
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tool.main(["src", "--root", root, *extra])
    lines = [l for l in out.getvalue().splitlines() if l.strip()]
    return code, lines


def main():
    failures = []
    for case, rule, expected, anchor in CASES:
        root = os.path.join(FIXTURES, case)
        if not os.path.isdir(root):
            failures.append(f"{case}: fixture tree missing")
            continue
        code, lines = scan(sda_analyze, case, "--rules", rule)
        wrong_rule = [l for l in lines if f" {rule} " not in l]
        if wrong_rule:
            failures.append(
                f"{case}: off-rule findings under --rules={rule}: "
                f"{wrong_rule}")
        if len(lines) != expected:
            failures.append(
                f"{case}: expected {expected} {rule} finding(s), "
                f"got {len(lines)}:\n  " + "\n  ".join(lines or ["<none>"]))
        off_anchor = [l for l in lines if anchor not in l]
        if lines and off_anchor:
            failures.append(
                f"{case}: finding(s) not anchored at '{anchor}': "
                f"{off_anchor}")
        expect_exit = 1 if expected else 0
        if code != expect_exit:
            failures.append(
                f"{case}: expected exit {expect_exit}, got {code}")

    # Every fixture tree must be quiet under the FULL rule set except for
    # its own rule's expected findings — proves no cross-rule bleed.
    for case, rule, expected, _anchor in CASES:
        if not os.path.isdir(os.path.join(FIXTURES, case)):
            continue
        _code, lines = scan(sda_analyze, case)
        if len(lines) != expected:
            failures.append(
                f"{case}: full-rule-set scan expected {expected} "
                f"finding(s), got {len(lines)}:\n  "
                + "\n  ".join(lines or ["<none>"]))

    # One `sda-lint: allow(WALL_CLOCK)` line leaves both tools quiet: the
    # analyzer reads the linter's spelling, and the suppressed clock has
    # no second owner.  The linter reports only the system_clock and
    # time() lines, which are RNG_SOURCE's alone (WALL_CLOCK's count above
    # already excludes them).
    _code, lines = scan(sda_lint, "wall_clock")
    want = ["src/sim/bad_clock.cpp:25: RNG_SOURCE",
            "src/sim/bad_clock.cpp:26: RNG_SOURCE"]
    if [l.split(" nondeterministic")[0] for l in lines] != want:
        failures.append(
            "wall_clock: sda_lint expected exactly " + ", ".join(want)
            + ", got:\n  " + "\n  ".join(lines or ["<none>"]))

    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"test_sda_analyze: {len(failures)} failure(s)")
        return 1
    print(f"test_sda_analyze: all {len(CASES)} fixture trees passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
