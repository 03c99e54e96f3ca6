#!/usr/bin/env python3
"""Selftest for sda_lint: every rule gets a bad/good fixture pair.

Each bad fixture must produce exactly the expected number of findings for
its rule; each good fixture must produce zero (including via suppression
comments, which the good fixtures exercise).  Run from anywhere:

    python3 tools/lint/test_sda_lint.py
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import sda_lint  # noqa: E402

FIXTURES = os.path.join(HERE, "fixtures")

# (fixture file, rule, expected finding count)
CASES = [
    ("rng_source_bad.cpp", "RNG_SOURCE", 6),
    ("rng_source_good.cpp", "RNG_SOURCE", 0),
    ("std_function_bad.cpp", "STD_FUNCTION", 2),
    ("std_function_good.cpp", "STD_FUNCTION", 0),
    ("naked_new_bad.cpp", "NAKED_NEW", 3),
    ("naked_new_good.cpp", "NAKED_NEW", 0),
    ("float_eq_bad.cpp", "FLOAT_EQ", 4),
    ("float_eq_good.cpp", "FLOAT_EQ", 0),
    ("endl_bad.cpp", "ENDL", 3),
    ("endl_good.cpp", "ENDL", 0),
    ("pragma_once_bad.hpp", "PRAGMA_ONCE", 1),
    ("pragma_once_good.hpp", "PRAGMA_ONCE", 0),
    ("unordered_iter_bad.cpp", "UNORDERED_ITER", 3),
    ("unordered_iter_good.cpp", "UNORDERED_ITER", 0),
    ("assert_side_effect_bad.cpp", "ASSERT_SIDE_EFFECT", 3),
    ("assert_side_effect_good.cpp", "ASSERT_SIDE_EFFECT", 0),
    ("unbounded_queue_bad.cpp", "UNBOUNDED_QUEUE", 3),
    ("unbounded_queue_good.cpp", "UNBOUNDED_QUEUE", 0),
    ("unchecked_io_bad.cpp", "UNCHECKED_IO", 4),
    ("unchecked_io_good.cpp", "UNCHECKED_IO", 0),
]


def run_case(fixture, rule):
    """Runs the linter on one fixture with one rule; returns finding lines."""
    path = os.path.join(FIXTURES, fixture)
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sda_lint.main([path, "--root", HERE, "--rules", rule])
    lines = [l for l in out.getvalue().splitlines() if l.strip()]
    return code, lines


def main():
    failures = []
    for fixture, rule, expected in CASES:
        path = os.path.join(FIXTURES, fixture)
        if not os.path.isfile(path):
            failures.append(f"{fixture}: fixture file missing")
            continue
        code, lines = run_case(fixture, rule)
        wrong_rule = [l for l in lines if f" {rule} " not in l]
        if wrong_rule:
            failures.append(
                f"{fixture}: off-rule findings under --rules={rule}: "
                f"{wrong_rule}")
        if len(lines) != expected:
            failures.append(
                f"{fixture}: expected {expected} {rule} finding(s), "
                f"got {len(lines)}:\n  " + "\n  ".join(lines or ["<none>"]))
        expect_exit = 1 if expected else 0
        if code != expect_exit:
            failures.append(
                f"{fixture}: expected exit {expect_exit}, got {code}")

    # The suppression syntax itself: a bad fixture should go quiet when its
    # findings carry allow() comments — proven by every *_good fixture that
    # contains a deliberately-bad-but-allowed line (rng, naked_new, float_eq,
    # endl, unordered_iter, assert).  Here, additionally prove an allow() for
    # the WRONG rule does not suppress.
    code, lines = run_case("std_function_bad.cpp", "STD_FUNCTION")
    if len(lines) != 2:
        failures.append("cross-rule allow() check: expected 2 findings, got "
                        f"{len(lines)}")

    if failures:
        for f in failures:
            print(f"FAIL {f}")
        print(f"test_sda_lint: {len(failures)} failure(s)")
        return 1
    print(f"test_sda_lint: all {len(CASES)} fixture cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
