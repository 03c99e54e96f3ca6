#!/usr/bin/env python3
"""sda-analyze: compile_commands-driven semantic checks for the SDA repo.

Where sda_lint.py scans tokens line by line, this pass works on program
structure: the project include graph, layer placement, and
callback reachability.  Still stdlib-only (no libclang): the repo builds
with GCC where clang tooling may be absent, so the analysis parses the
translation-unit set out of build/compile_commands.json (falling back to
a directory walk) and does its own brace-matched extraction.

Rules:

  LAYERING            An #include that jumps *up* the layer DAG
                          util -> {sim,task} -> sched -> core
                               -> {exp,metrics,fault,workload} -> tools
                      Lower layers must not know about higher ones; the
                      one standing exemption is src/core/invariants.hpp,
                      the cross-cutting observation-only oracle, which
                      may be included from anywhere.
  CYCLE               A cycle in the project include graph (pragma once
                      hides it at compile time until it deadlocks a
                      refactor; here it is an error outright).
  WALL_CLOCK          Wall-clock access (steady_clock,
                      high_resolution_clock, gettimeofday,
                      clock_gettime) inside src/sim or src/sched.
                      Simulated time is the logical Time axis; wall time
                      in the deterministic core makes results
                      machine-dependent.  system_clock and time() are
                      sda_lint's RNG_SOURCE, tree-wide.
  PTR_KEY_ORDER       A pointer-keyed ordered container
                      (std::map<T*, ...>, std::set<T*>): iteration
                      order is allocation-address order, different
                      every run.  Key by a stable id instead.
  CALLBACK_REENTRANT  A synchronous callback-invoking call (feed,
                      for_each, visit, scan, each — APIs that run a
                      lambda while iterating internal state) whose
                      lambda can reach, through this file's call graph,
                      an erase()/clear() of the member container that
                      owns the object the callback is running through —
                      the exact shape of the PR-6 slow-client-eviction
                      use-after-free.  Destruction must be deferred
                      (mark + reap after the stack unwinds).

Unordered iteration is sda_lint's UNORDERED_ITER, which reports every
range-for over a std::unordered_* container, sink or not.

Suppression: sda_lint's one spelling, `// sda-lint: allow(RULE) reason`
on the offending line or the line directly above, read through
sda_lint.strip_lines() and sda_lint.suppressed().  The reason is audited
by `sda_lint.py --audit-suppressions`.

Findings print as `file:line: RULE message`; exit status is 1 when
anything fired, 0 when clean, 2 on usage errors — same contract as
sda_lint.py, so the ctest/CI plumbing is shared.
"""

import argparse
import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import sda_lint  # noqa: E402  (shared Line/strip_lines/Finding machinery)

Finding = sda_lint.Finding
relpath = sda_lint.relpath
suppressed = sda_lint.suppressed

HEADER_EXT = sda_lint.HEADER_EXT
SOURCE_EXT = sda_lint.SOURCE_EXT

RULES = [
    "LAYERING", "CYCLE", "WALL_CLOCK", "PTR_KEY_ORDER", "CALLBACK_REENTRANT",
]

# --- layer DAG -------------------------------------------------------------

LAYER_RANK = {
    "util": 0,
    "sim": 1,
    "task": 1,
    "sched": 2,
    "core": 3,
    "exp": 4,
    "metrics": 4,
    "fault": 4,
    "workload": 4,
}
TOOLS_RANK = 5
# tests/bench/examples sit on top of everything and may include anything.
UNRANKED = 99

# The cross-cutting observation-only invariant oracle: include-anywhere
# by design (it observes, never steers — see its header comment).
LAYERING_EXEMPT_INCLUDES = ("src/core/invariants.hpp",)

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')


def layer_rank(rel):
    parts = rel.split("/")
    if parts[0] == "src" and len(parts) >= 2 and parts[1] in LAYER_RANK:
        return LAYER_RANK[parts[1]]
    if parts[0] == "tools":
        return TOOLS_RANK
    return UNRANKED


def layer_name(rel):
    parts = rel.split("/")
    if parts[0] == "src" and len(parts) >= 2 and parts[1] in LAYER_RANK:
        return parts[1]
    return parts[0]


class SourceFile:
    """One scanned file: blanked lines (with allow() sets) + includes."""

    __slots__ = ("rel", "lines", "includes")

    def __init__(self, rel, text):
        self.rel = rel
        self.lines = sda_lint.strip_lines(text)
        self.includes = []  # (line_idx, included_rel)
        for idx, ln in enumerate(self.lines):
            m = INCLUDE_RE.match(ln.raw)
            if m:
                self.includes.append((idx, m.group(1)))


# --- rule: LAYERING --------------------------------------------------------

def rule_layering(sf, findings):
    my_rank = layer_rank(sf.rel)
    if my_rank == UNRANKED:
        return
    for idx, inc in sf.includes:
        if inc in LAYERING_EXEMPT_INCLUDES:
            continue
        inc_rank = layer_rank(inc)
        if inc_rank == UNRANKED or inc_rank <= my_rank:
            continue
        if suppressed(sf.lines, idx, "LAYERING"):
            continue
        findings.append(Finding(
            sf.rel, idx + 1, "LAYERING",
            f"layer '{layer_name(sf.rel)}' (rank {my_rank}) includes "
            f"'{inc}' from layer '{layer_name(inc)}' (rank {inc_rank}); "
            "the layer DAG flows util -> {sim,task} -> sched -> core -> "
            "{exp,metrics,fault,workload} -> tools"))


# --- rule: CYCLE -----------------------------------------------------------

def rule_cycle(files_by_rel, findings):
    """Tarjan SCC over the file-level include graph; any SCC with more
    than one node (or a self-include) is a cycle."""
    graph = {rel: sorted({inc for _i, inc in sf.includes
                          if inc in files_by_rel})
             for rel, sf in files_by_rel.items()}
    index_of, low, on_stack = {}, {}, set()
    stack, sccs = [], []
    counter = [0]

    def strongconnect(v):
        # Iterative Tarjan (the include graph can be deep).
        work = [(v, iter(graph.get(v, ())))]
        index_of[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index_of:
                    index_of[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph.get(w, ()))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index_of[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                sccs.append(scc)

    for rel in sorted(graph):
        if rel not in index_of:
            strongconnect(rel)

    for scc in sccs:
        self_loop = len(scc) == 1 and scc[0] in graph.get(scc[0], ())
        if len(scc) < 2 and not self_loop:
            continue
        members = sorted(scc)
        head = members[0]
        findings.append(Finding(
            head, 1, "CYCLE",
            "include cycle: " + " -> ".join(members + [head])))


# --- rule: WALL_CLOCK ------------------------------------------------------

WALL_CLOCK_DIRS = ("src/sim/", "src/sched/")
WALL_CLOCK_PATTERNS = [
    (re.compile(r"\bsteady_clock\b"), "std::chrono::steady_clock"),
    (re.compile(r"\bhigh_resolution_clock\b"),
     "std::chrono::high_resolution_clock"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
]


def rule_wall_clock(sf, findings):
    if not sf.rel.startswith(WALL_CLOCK_DIRS):
        return
    for idx, ln in enumerate(sf.lines):
        for pat, what in WALL_CLOCK_PATTERNS:
            if pat.search(ln.code) and not suppressed(sf.lines, idx, "WALL_CLOCK"):
                findings.append(Finding(
                    sf.rel, idx + 1, "WALL_CLOCK",
                    f"wall-clock source {what} in the deterministic core "
                    "(src/sim, src/sched); simulated time is the logical "
                    "Time axis — wall time belongs in exp/ transports"))


# --- rule: PTR_KEY_ORDER ---------------------------------------------------

PTR_KEY_RE = re.compile(
    r"\bstd::(map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")


def rule_ptr_key_order(sf, findings):
    for idx, ln in enumerate(sf.lines):
        m = PTR_KEY_RE.search(ln.code)
        if m and not suppressed(sf.lines, idx, "PTR_KEY_ORDER"):
            findings.append(Finding(
                sf.rel, idx + 1, "PTR_KEY_ORDER",
                f"pointer-keyed std::{m.group(1)}: iteration order is "
                "allocation-address order, which differs run to run; key "
                "by a stable id (ticket, index, name) instead"))


# --- rule: CALLBACK_REENTRANT ----------------------------------------------

def loop_body_text(sf, idx, max_lines=40):
    """Text of the block opened at line idx — a loop or lambda body
    (brace-matched; for a braceless single-statement body, that
    statement)."""
    depth = 0
    seen_open = False
    chunks = []
    for j in range(idx, min(len(sf.lines), idx + max_lines)):
        code = sf.lines[j].code
        if j > idx:
            chunks.append(code)
        for c in code:
            if c == "{":
                depth += 1
                seen_open = True
            elif c == "}":
                depth -= 1
        if seen_open and depth <= 0:
            break
        if not seen_open and j > idx and ";" in code:
            break  # braceless body: first statement ends it
    return "\n".join(chunks)


# Methods that run a user lambda synchronously over internal state.
# Deferred registrars (at/post/in/schedule) are deliberately absent:
# their callback runs later, from the event loop, not mid-iteration.
SYNC_INVOKE_RE = re.compile(
    r"\b(\w+)((?:\.|->)\w+)*(?:\.|->)(feed|for_each|visit|scan|each)"
    r"\s*\(")
METHOD_DEF_RE = re.compile(
    r"^[\w:&<>,*~\s]*?\b\w+::(\w+)\s*\(")
CALLED_NAME_RE = re.compile(r"\b(\w+)\s*\(")
CALL_KEYWORDS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "catch",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "assert", "defined", "alignof", "decltype", "noexcept",
))
# Member containers with a class-typed element (ownership containers).
# The declarator may end at end-of-line: GUARDED_BY annotations routinely
# push the `;` to a continuation line.
OWNER_CONTAINER_RE = re.compile(
    r"\bstd::(?:map|unordered_map)\s*<\s*[\w:]+\s*,\s*([\w:]+)\s*>\s*"
    r"(\w+_)\s*(?:[;{=]|$)|"
    r"\bstd::(?:vector|deque|list)\s*<\s*([\w:]+)\s*>\s*(\w+_)\s*(?:[;{=]|$)",
    re.MULTILINE)
ERASE_RE = re.compile(r"\b(\w+_)\s*\.\s*(?:erase|clear)\s*\(")


def extract_methods(sf):
    """Map of method name -> body text for `Class::method(...) { ... }`
    definitions in this file (brace-matched, comments/strings blanked)."""
    methods = {}
    n = len(sf.lines)
    i = 0
    while i < n:
        code = sf.lines[i].code
        m = METHOD_DEF_RE.match(code)
        if not m or ";" in code.split("(")[0]:
            i += 1
            continue
        # Find the opening brace of the definition (skip declarations).
        depth = 0
        opened = False
        body = []
        j = i
        while j < n:
            for c in sf.lines[j].code:
                if c == "{":
                    depth += 1
                    opened = True
                elif c == "}":
                    depth -= 1
                elif c == ";" and not opened:
                    depth = None  # pure declaration
                    break
            if depth is None:
                break
            if j > i:
                body.append(sf.lines[j].code)
            if opened and depth <= 0:
                break
            j += 1
        if depth is not None and opened:
            methods.setdefault(m.group(1), []).append(
                ("\n".join(body), i))
            i = j + 1
        else:
            i += 1
    return methods


def owner_containers(all_files):
    """value-type last component -> set of member-container names, over
    every scanned file (members live in headers, call sites in .cpp)."""
    owners = {}
    direct = set()
    for sf in all_files:
        for ln in sf.lines:
            for m in OWNER_CONTAINER_RE.finditer(ln.code):
                vtype = m.group(1) or m.group(3)
                name = m.group(2) or m.group(4)
                key = vtype.split("::")[-1]
                owners.setdefault(key, set()).add(name)
                direct.add(name)
    return owners, direct


def receiver_type(sf, invoke_idx, root):
    """Best-effort type of the receiver-chain root: searched in the
    enclosing method's signature and nearby local declarations."""
    decl_re = re.compile(
        r"\b([A-Z]\w*(?:::\w+)*)\s*[&*]?\s+[&*]?" + re.escape(root) + r"\b")
    for j in range(invoke_idx, max(-1, invoke_idx - 60), -1):
        m = decl_re.search(sf.lines[j].code)
        if m:
            return m.group(1).split("::")[-1]
    return None


def rule_callback_reentrant(sf, findings, all_files):
    owners, _direct = owner_containers(all_files)
    methods = extract_methods(sf)

    def called_names(text):
        names = set()
        for m in CALLED_NAME_RE.finditer(text):
            if m.group(1) not in CALL_KEYWORDS:
                names.add(m.group(1))
        return names

    for idx, ln in enumerate(sf.lines):
        m = SYNC_INVOKE_RE.search(ln.code)
        if not m:
            continue
        # Only callback-taking invocations: a lambda opening on the call
        # line or the continuation line right after it.
        tail = ln.code[m.end():]
        nxt = sf.lines[idx + 1].code if idx + 1 < len(sf.lines) else ""
        if "[" not in tail and "[" not in nxt:
            continue
        root = m.group(1)
        # Which member container owns the object the callback runs
        # through?  Match the receiver root's type against the scanned
        # ownership containers.
        rtype = receiver_type(sf, idx, root)
        danger = set()
        if rtype and rtype in owners:
            danger |= owners[rtype]
        if root.endswith("_"):
            danger.add(root)
        if not danger:
            continue
        # Lambda body plus everything reachable through this file's
        # call graph, bounded depth.
        lambda_body = loop_body_text(sf, idx, max_lines=60)
        frontier = called_names(lambda_body)
        seen = set()
        texts = [("<lambda>", lambda_body)]
        for _hop in range(5):
            nxt = set()
            for name in frontier:
                if name in seen or name not in methods:
                    continue
                seen.add(name)
                for body, _at in methods[name]:
                    texts.append((name, body))
                    nxt |= called_names(body)
            frontier = nxt - seen
            if not frontier:
                break
        hit = None
        for where, text in texts:
            for em in ERASE_RE.finditer(text):
                if em.group(1) in danger:
                    hit = (where, em.group(1))
                    break
            if hit:
                break
        if hit is None or suppressed(sf.lines, idx, "CALLBACK_REENTRANT"):
            continue
        where, container = hit
        via = "directly in the lambda" if where == "<lambda>" \
            else f"via {where}()"
        findings.append(Finding(
            sf.rel, idx + 1, "CALLBACK_REENTRANT",
            f"callback invoked by .{m.group(3)}() can reach "
            f"{container}.erase/clear ({via}) while the callback is still "
            f"running through an element of '{container}' — the PR-6 "
            "eviction use-after-free shape; mark the element doomed and "
            "reap after the stack unwinds"))


# --- driver ----------------------------------------------------------------

def tu_set_from_compile_commands(path, root):
    """Project .cpp files named in compile_commands.json, repo-relative."""
    with open(path, "r", encoding="utf-8") as f:
        entries = json.load(f)
    tus = set()
    for entry in entries:
        file_path = entry.get("file", "")
        if not os.path.isabs(file_path):
            file_path = os.path.join(entry.get("directory", ""), file_path)
        file_path = os.path.normpath(file_path)
        if not file_path.startswith(root + os.sep):
            continue
        rel = relpath(file_path, root)
        if rel.endswith(SOURCE_EXT):
            tus.add(rel)
    return tus


def gather_rels(root, subdirs):
    rels = []
    for sub in subdirs:
        base = os.path.join(root, sub)
        if os.path.isfile(base):
            rels.append(relpath(base, root))
            continue
        for dirpath, _dirnames, filenames in os.walk(base):
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXT):
                    rels.append(relpath(os.path.join(dirpath, name), root))
    return sorted(set(rels))


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Semantic analyzer for the SDA repo "
                    "(rules: " + ", ".join(RULES) + ")")
    ap.add_argument("paths", nargs="*", default=[],
                    help="files or directories to scan (default: src, "
                         "plus tools/*.cpp outside tools/lint)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: this script's repo)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to seed the TU set "
                         "(default: <root>/build/compile_commands.json "
                         "when present)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
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
        unknown = only_rules - set(RULES)
        if unknown:
            print(f"unknown rules: {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    if args.paths:
        rels = gather_rels(root, args.paths)
    else:
        rels = gather_rels(root, ["src"])
        rels += [r for r in gather_rels(root, ["tools"])
                 if not r.startswith("tools/lint/")]
        rels = sorted(set(rels))

    # Seed/extend with the compile_commands TU set: the analysis then
    # provably covers exactly what the build compiles (plus headers the
    # walk found).
    cc_path = args.compile_commands
    if cc_path is None:
        default_cc = os.path.join(root, "build", "compile_commands.json")
        cc_path = default_cc if os.path.isfile(default_cc) else None
    elif not os.path.isfile(cc_path):
        # Not-yet-generated database: fall back to the directory walk,
        # which already covers every project source.
        print(f"sda-analyze: note: {cc_path} not found; "
              "scanning by directory walk", file=sys.stderr)
        cc_path = None
    if cc_path is not None:
        try:
            tus = tu_set_from_compile_commands(cc_path, root)
        except (OSError, ValueError) as e:
            print(f"sda-analyze: cannot read {cc_path}: {e}",
                  file=sys.stderr)
            return 2
        scope_prefixes = tuple(args.paths) if args.paths \
            else ("src/", "tools/")
        rels = sorted(set(rels) | {
            t for t in tus
            if t.startswith(scope_prefixes)
            and not t.startswith("tools/lint/")})

    if not rels:
        print("sda-analyze: no source files found", file=sys.stderr)
        return 2

    files_by_rel = {}
    for rel in rels:
        path = os.path.join(root, rel)
        try:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                files_by_rel[rel] = SourceFile(rel, f.read())
        except OSError as e:
            print(f"{rel}:0: ERROR cannot read: {e}", file=sys.stderr)

    all_files = list(files_by_rel.values())

    def enabled(rule):
        return only_rules is None or rule in only_rules

    findings = []
    for rel in sorted(files_by_rel):
        sf = files_by_rel[rel]
        if enabled("LAYERING"):
            rule_layering(sf, findings)
        if enabled("WALL_CLOCK"):
            rule_wall_clock(sf, findings)
        if enabled("PTR_KEY_ORDER"):
            rule_ptr_key_order(sf, findings)
        if enabled("CALLBACK_REENTRANT"):
            rule_callback_reentrant(sf, findings, all_files)
    if enabled("CYCLE"):
        rule_cycle(files_by_rel, findings)

    for f in findings:
        print(f)
    if findings:
        print(f"sda-analyze: {len(findings)} finding(s) in "
              f"{len({f.path for f in findings})} file(s)", file=sys.stderr)
        return 1
    print(f"sda-analyze: clean ({len(files_by_rel)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
