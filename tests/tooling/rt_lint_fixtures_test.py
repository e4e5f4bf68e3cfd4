#!/usr/bin/env python3
"""Regression tests for the rt-lint gate itself (ISSUE 6 satellite).

Each fixture TU under fixtures/ declares an MUTE_RT_SAFE surface; the bad
ones hide exactly one class of banned construct on it. The gate must fail
every bad fixture (exit 1) and pass the clean one (exit 0) — a gate that
cannot see a seeded violation is worse than no gate.

Also pins the allow-list policy: a justified entry silences exactly its
(function, construct) pair, and an entry without a justification fails the
run on its own; and the parser's precision: a braced default argument
keeps its function on the root set, a member call on a standard-library
object (declared with a std:: type or a `using` alias of one) does not
resolve to a project method of the same name, and an
annotation that yields no root fails the gate at its file:line.

Run via ctest (rt_lint_fixtures) or directly; exits non-zero on any
failure.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RT_LINT = os.path.join(REPO, "tools", "rt_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")

failures = []


def run(fixture, allow="", extra=None):
    cmd = [sys.executable, RT_LINT, "--no-require-roots",
           "--allow", allow, "--src", EMPTY_DIR,
           "--file", os.path.join(FIXTURES, fixture)]
    if extra:
        cmd += extra
    return subprocess.run(cmd, capture_output=True, text=True)


def check(name, proc, want_exit, want_in_output=()):
    ok = proc.returncode == want_exit and all(
        s in proc.stdout for s in want_in_output)
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name} (exit {proc.returncode}, want {want_exit})")
    if not ok:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        failures.append(name)


BAD = {
    "rt_bad_alloc.cpp": ("operator-new", "container-growth"),
    "rt_bad_lock.cpp": ("lock",),
    "rt_bad_rotate.cpp": ("std-rotate",),
    "rt_bad_transitive.cpp": ("throw",),
    "rt_bad_unsafe_call.cpp": ("rt-unsafe-call",),
    "rt_bad_braced_default.cpp": ("container-growth",),
}

with tempfile.TemporaryDirectory() as tmp:
    EMPTY_DIR = os.path.join(tmp, "empty")
    os.makedirs(EMPTY_DIR)

    check("clean fixture passes", run("rt_clean.cpp"), 0)
    check("std-object member call does not resolve to a project method",
          run("rt_clean_std_member.cpp"), 0)
    check("member call through an alias of a std type does not resolve "
          "to a project method", run("rt_clean_std_alias_member.cpp"), 0)
    check("annotation that yields no root fails at its file:line",
          run("rt_bad_orphan_annotation.cpp"), 1,
          ("ORPHAN ANNOTATION", "rt_bad_orphan_annotation.cpp:9"))
    for fixture, constructs in BAD.items():
        check(f"{fixture} fails with {'/'.join(constructs)}",
              run(fixture), 1, constructs)

    # The JSON report names the violating function and construct.
    report = os.path.join(tmp, "report.json")
    run("rt_bad_alloc.cpp", extra=["--report", report])
    with open(report) as fh:
        data = json.load(fh)
    got = {(v["function"], v["construct"]) for v in data["violations"]}
    want = ("fixture::AllocatingFilter::process", "container-growth")
    ok = want in got and data["roots"]
    print(f"[{'ok' if ok else 'FAIL'}] report lists roots and violations")
    if not ok:
        print(json.dumps(data, indent=2))
        failures.append("report contents")

    # Justified allow-list entries silence exactly the listed pairs.
    allow_ok = os.path.join(tmp, "allow_ok.txt")
    with open(allow_ok, "w") as fh:
        fh.write("fixture::AllocatingFilter::process | operator-new | "
                 "fixture exercising the allow-list path\n")
        fh.write("fixture::AllocatingFilter::process | container-growth | "
                 "fixture exercising the allow-list path\n")
    check("allow-list with justifications silences the fixture",
          run("rt_bad_alloc.cpp", allow=allow_ok), 0)

    # A justified entry for ONE construct must not silence the other.
    allow_partial = os.path.join(tmp, "allow_partial.txt")
    with open(allow_partial, "w") as fh:
        fh.write("fixture::AllocatingFilter::process | operator-new | "
                 "only the new expression is exempt\n")
    check("partial allow-list still fails on the unlisted construct",
          run("rt_bad_alloc.cpp", allow=allow_partial), 1,
          ("container-growth",))

    # An entry without a justification is itself a gate failure.
    allow_bad = os.path.join(tmp, "allow_bad.txt")
    with open(allow_bad, "w") as fh:
        fh.write("fixture::AllocatingFilter::process | operator-new |\n")
    check("allow-list entry without justification fails",
          run("rt_bad_alloc.cpp", allow=allow_bad), 1,
          ("ALLOW-LIST ERROR",))

    # Unused entries fail under --strict-allow (rot protection).
    allow_unused = os.path.join(tmp, "allow_unused.txt")
    with open(allow_unused, "w") as fh:
        fh.write("fixture::NoSuchFilter::process | operator-new | "
                 "stale entry that matches nothing\n")
    check("unused allow-list entry fails under --strict-allow",
          run("rt_clean.cpp", allow=allow_unused,
              extra=["--strict-allow"]), 1)

    # The real tree must hold the contract (same invocation as CI).
    check("production src/ passes the gate",
          subprocess.run([sys.executable, RT_LINT],
                         capture_output=True, text=True), 0)

if failures:
    print(f"{len(failures)} rt-lint self-test(s) failed: {failures}")
    sys.exit(1)
print("all rt-lint self-tests passed")
