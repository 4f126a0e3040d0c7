#!/usr/bin/env python3
"""Schema validation for the bench bins' ``BENCH_*.json`` artifacts.

Replaces the ad-hoc per-bin python heredocs that used to live inline in
``.github/workflows/ci.yml``: one script, one schema table, every artifact.
For each ``BENCH_*.json`` in the target directory (including the extra
``BENCH_<stem>.sample*.json`` loopback samples, which must match their stem's
schema) it checks that

* the file is valid JSON containing **no NaN/Infinity literals** — the bins
  emit ``null`` for non-finite values, and ``bench_trend.py`` relies on that
  (a bare ``NaN`` would round-trip through ``json.load`` silently and then
  poison a median);
* every required top-level key for that bench is present;
* ``rows`` is a non-empty list of objects.

In directory mode every bench in the schema table must have produced its
main artifact (``--allow-missing`` relaxes this for local runs of a single
bin): a bin that crashed before writing must fail validation, not slide
through as "nothing to check".

Any ``BENCH_*.json`` whose stem is not in the schema table **fails** the run:
a new bench bin must register here (and usually in ``bench_trend.py``) so its
artifact can't ship unvalidated.

Usage:

    python3 scripts/validate_bench.py [dir]    # validate artifacts (default .)
    python3 scripts/validate_bench.py --allow-missing [dir]
    python3 scripts/validate_bench.py --self-test

The self-test needs no pytest: it synthesises good and bad artifacts in a
temp dir and asserts the validator's verdicts, so CI can prove the gate
itself works before trusting it.
"""

import json
import sys
import tempfile
from pathlib import Path

# Required top-level keys per artifact. "rows" is implicitly required and
# checked for shape everywhere.
EXPECTED = {
    "BENCH_recovery_sweep.json": ["bench", "seed", "cycles", "clean_billed_words", "rows"],
    "BENCH_tcp_loopback.json": ["bench", "cycles", "reps", "rows"],
    "BENCH_shm_loopback.json": ["bench", "cycles", "reps", "rows"],
    "BENCH_session_farm.json": ["bench", "sessions", "cycles_per_session", "trace_identical", "rows"],
    "BENCH_checkpoint_cost.json": ["bench", "cycles", "reps", "trace_identical", "rows"],
    "BENCH_accuracy_sweep.json": ["bench", "cycles", "suites", "workloads", "backends", "rows"],
    "BENCH_chaos_recovery.json": ["bench", "sessions_per_cell", "cycles", "trace_identical", "rows"],
}


def reject_nonfinite(name):
    raise ValueError(f"non-finite literal {name} (bins must emit null)")


def validate_file(path: Path, keys) -> str | None:
    """Returns an error string for `path`, or None if it validates."""
    try:
        with open(path) as f:
            data = json.load(f, parse_constant=reject_nonfinite)
    except ValueError as e:
        return f"{path.name}: {e}"
    if not isinstance(data, dict):
        return f"{path.name}: top level must be an object"
    missing = [k for k in keys if k not in data]
    if missing:
        return f"{path.name}: missing top-level keys {missing}"
    rows = data["rows"]
    if not isinstance(rows, list) or not rows:
        return f"{path.name}: 'rows' must be a non-empty list"
    if not all(isinstance(r, dict) for r in rows):
        return f"{path.name}: every row must be an object"
    return None


def schema_for(path: Path):
    """The EXPECTED entry covering `path`, resolving sample files to their
    stem (BENCH_tcp_loopback.sample2.json -> BENCH_tcp_loopback.json)."""
    return EXPECTED.get(f"{path.name.split('.', 1)[0]}.json")


def validate_dir(directory: Path, allow_missing: bool = False) -> int:
    errors = []
    seen = 0
    for path in sorted(directory.glob("BENCH_*.json")):
        keys = schema_for(path)
        if keys is None:
            errors.append(
                f"{path.name}: unknown bench artifact — register its schema "
                f"in scripts/validate_bench.py"
            )
            continue
        seen += 1
        if err := validate_file(path, keys):
            errors.append(err)
        else:
            with open(path) as f:
                rows = json.load(f)["rows"]
            print(f"{path.name}: ok ({len(rows)} rows)")
    if not allow_missing:
        for name in EXPECTED:
            if not (directory / name).is_file():
                errors.append(f"{name}: expected artifact was never written")
    if not seen and not errors:
        errors.append(f"no BENCH_*.json artifacts found in {directory}")
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    return 1 if errors else 0


def self_test() -> int:
    """Synthesises artifacts and asserts the validator's verdicts."""
    good = {"bench": "tcp_loopback", "cycles": 1, "reps": 1,
            "rows": [{"backend": "tcp", "wall_us": 5.0}]}

    def outcome(name, payload, raw=None):
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / name
            p.write_text(raw if raw is not None else json.dumps(payload))
            keys = schema_for(p)
            if keys is None:
                return "unknown"
            return validate_file(p, keys) and "reject" or "ok"

    cases = [
        ("accepts a well-formed artifact",
         outcome("BENCH_tcp_loopback.json", good) == "ok"),
        ("sample files validate against their stem schema",
         outcome("BENCH_tcp_loopback.sample2.json", good) == "ok"),
        ("rejects a missing required key",
         outcome("BENCH_tcp_loopback.json",
                 {k: v for k, v in good.items() if k != "reps"}) == "reject"),
        ("rejects empty rows",
         outcome("BENCH_tcp_loopback.json", {**good, "rows": []}) == "reject"),
        ("rejects rows of the wrong shape",
         outcome("BENCH_tcp_loopback.json", {**good, "rows": [3]}) == "reject"),
        ("rejects NaN literals",
         outcome("BENCH_tcp_loopback.json", None,
                 raw=json.dumps(good).replace("5.0", "NaN")) == "reject"),
        ("rejects invalid JSON",
         outcome("BENCH_tcp_loopback.json", None, raw="{nope") == "reject"),
        ("unregistered artifacts are flagged, not skipped",
         outcome("BENCH_mystery.json", good) == "unknown"),
        ("every trend-gated bench has a registered schema",
         "BENCH_accuracy_sweep.json" in EXPECTED),
    ]
    failed = [desc for desc, ok in cases if not ok]
    for desc, ok in cases:
        print(f"{'ok' if ok else 'FAIL'}: {desc}")
    # Whole-directory behaviour: an unknown artifact fails the run, and a
    # registered bench that never wrote its artifact fails a strict scan.
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "BENCH_tcp_loopback.json").write_text(json.dumps(good))
        (Path(d) / "BENCH_mystery.json").write_text(json.dumps(good))
        if validate_dir(Path(d), allow_missing=True) != 1:
            failed.append("directory scan must fail on unknown artifacts")
            print("FAIL: directory scan must fail on unknown artifacts")
        else:
            print("ok: directory scan fails on unknown artifacts")
    with tempfile.TemporaryDirectory() as d:
        (Path(d) / "BENCH_tcp_loopback.json").write_text(json.dumps(good))
        if validate_dir(Path(d)) != 1 or validate_dir(Path(d), allow_missing=True) != 0:
            failed.append("strict scan must fail on missing artifacts")
            print("FAIL: strict scan must fail on missing artifacts")
        else:
            print("ok: strict scan fails on missing artifacts")
    if failed:
        print(f"self-test failed ({len(failed)} case(s))", file=sys.stderr)
        return 1
    print("self-test passed")
    return 0


def main() -> int:
    argv = sys.argv[1:]
    if argv and argv[0] == "--self-test":
        return self_test()
    allow_missing = "--allow-missing" in argv
    argv = [a for a in argv if a != "--allow-missing"]
    directory = Path(argv[0]) if argv else Path(".")
    return validate_dir(directory, allow_missing=allow_missing)


if __name__ == "__main__":
    sys.exit(main())
