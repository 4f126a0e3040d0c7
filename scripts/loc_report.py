#!/usr/bin/env python3
"""Line counts of the workspace's library sources, per crate and in total.

Counts every line of ``crates/<crate>/src/**/*.rs``. With ``--base REF`` it
also prints each crate's added, deleted and net lines against that git ref,
taken from ``git diff --numstat``. The output is a Markdown table, so CI can
append it to the job summary. The report never fails on the numbers; a base
ref that git cannot resolve is noted and the delta columns are left out.

    python3 scripts/loc_report.py                 # counts only
    python3 scripts/loc_report.py --base origin/main
"""

import argparse
import subprocess
import sys
from pathlib import Path

SOURCES = "crates/*/src/**/*.rs"


def line_counts(root):
    """Lines per crate over every library source file."""
    counts = {}
    for path in sorted(root.glob(SOURCES)):
        crate = path.relative_to(root).parts[1]
        counts[crate] = counts.get(crate, 0) + path.read_bytes().count(b"\n")
    return counts


def numstat_delta(root, base):
    """(added, deleted) lines per crate against `base`, or None when git
    cannot diff against it."""
    result = subprocess.run(
        ["git", "diff", "--numstat", base, "--", f":(glob){SOURCES}"],
        cwd=root,
        capture_output=True,
        text=True,
    )
    if result.returncode != 0:
        print(f"note: no delta, git cannot diff against {base!r}: "
              f"{result.stderr.strip()}", file=sys.stderr)
        return None
    delta = {}
    for line in result.stdout.splitlines():
        added, deleted, path = line.split("\t", 2)
        if added == "-":  # binary file
            continue
        crate = path.split("/")[1]
        a, d = delta.get(crate, (0, 0))
        delta[crate] = (a + int(added), d + int(deleted))
    return delta


def render(counts, delta, base):
    header = "| crate | lines |"
    rule = "|---|---:|"
    if delta is not None:
        header += f" added vs `{base}` | deleted | net |"
        rule += "---:|---:|---:|"
    rows = [header, rule]
    crates = sorted(set(counts) | set(delta or {}))
    totals = [0, 0, 0]
    for crate in crates + ["**total**"]:
        if crate == "**total**":
            lines, added, deleted = totals
        else:
            lines = counts.get(crate, 0)
            added, deleted = (delta or {}).get(crate, (0, 0))
            totals = [totals[0] + lines, totals[1] + added, totals[2] + deleted]
        row = f"| {crate} | {lines} |"
        if delta is not None:
            row += f" +{added} | -{deleted} | {added - deleted:+d} |"
        rows.append(row)
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git ref to report the net line delta against")
    parser.add_argument("--root", default=Path(__file__).resolve().parent.parent,
                        type=Path, help="workspace root (default: this repository)")
    args = parser.parse_args()
    counts = line_counts(args.root)
    delta = numstat_delta(args.root, args.base) if args.base else None
    print("### Library source lines (`crates/*/src`)\n")
    print(render(counts, delta, args.base))


if __name__ == "__main__":
    main()
