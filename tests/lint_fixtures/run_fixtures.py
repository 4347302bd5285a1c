#!/usr/bin/env python3
"""Golden-fixture driver for scripts/lidi_check.py (ctest label `lint`).

For every check `lidi_check.py --list-checks` prints, two miniature source
trees live next to this script:

    <check>/bad/    deliberate violations (plus look-alikes in comments and
                    hits under exempt paths that must NOT trip);
                    expected.txt holds the EXACT diagnostics lidi-check must
                    emit, one per line.
    <check>/good/   the corrected twin (annotation, waiver, or redesign);
                    lidi-check must exit 0 with no findings.

A check without both trees fails the driver.

The comparison is exact, not substring: a fixture failing with the right
exit code but different file:line or message text is a regression in the
analyzer's diagnostics and fails the run.

Usage: run_fixtures.py <path-to-lidi_check.py>
"""

import os
import subprocess
import sys

def run(checker, root, check):
    proc = subprocess.run(
        [sys.executable, checker, "--root", root, "--checks", check,
         "--quiet"],
        capture_output=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    return proc.returncode, lines


def main():
    if len(sys.argv) != 2:
        print("usage: run_fixtures.py <lidi_check.py>", file=sys.stderr)
        return 2
    checker = os.path.abspath(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    failures = []
    checks = subprocess.run([sys.executable, checker, "--list-checks"],
                            capture_output=True, text=True,
                            check=True).stdout.split()
    if not checks:
        print("FAIL: lidi_check.py --list-checks printed no checks")
        return 1

    for check in checks:
        bad = os.path.join(here, check, "bad")
        good = os.path.join(here, check, "good")
        if not (os.path.isfile(os.path.join(bad, "expected.txt")) and
                os.path.isdir(good)):
            failures.append(f"{check}: missing bad/ (with expected.txt) "
                            "or good/ fixture tree")
            continue

        code, lines = run(checker, bad, check)
        with open(os.path.join(bad, "expected.txt")) as f:
            expected = [l.rstrip("\n") for l in f if l.strip()]
        if code != 1:
            failures.append(f"{check}/bad: expected exit 1, got {code}\n"
                            "  output: " + "\n  ".join(lines))
        elif lines != expected:
            failures.append(
                f"{check}/bad: diagnostics differ from expected.txt\n"
                "  expected:\n    " + "\n    ".join(expected) +
                "\n  actual:\n    " + "\n    ".join(lines))
        else:
            print(f"ok   {check}/bad ({len(expected)} exact diagnostics)")

        code, lines = run(checker, good, check)
        if code != 0 or lines:
            failures.append(f"{check}/good: expected clean exit 0, got "
                            f"{code}\n  output: " + "\n  ".join(lines))
        else:
            print(f"ok   {check}/good (clean)")

    if failures:
        print("\nFAIL:")
        for f in failures:
            print("  " + f)
        return 1
    print("all lint fixtures pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
