#!/usr/bin/env python3
"""Compare two per-instance mu records of the benchmark key by key.

    python scripts/mu_diff.py perfbench/out/mu/<hash>/<workload>.json \
        perfbench/out/mu/<other hash>/<workload>.json

A record maps each instance key to its objective mu, written by
``float.hex``. The script prints every key whose mu differs, with the
relative difference |a - b| / max(|a|, |b|), and every key that only one
record holds. It exits 1 if it printed any, 0 if the records agree bit
for bit, and 2 if a record cannot be read.
"""

import argparse
import json
import sys


def differences(first, second):
    """One line per key whose mu differs or that one record lacks."""
    lines = []
    for key in sorted(first.keys() | second.keys()):
        if key not in second:
            lines.append(f"{key}: only in the first record")
        elif key not in first:
            lines.append(f"{key}: only in the second record")
        elif first[key] != second[key]:
            a, b = float.fromhex(first[key]), float.fromhex(second[key])
            rel = abs(a - b) / (max(abs(a), abs(b)) or 1.0)
            lines.append(f"{key}: {first[key]} != {second[key]} "
                         f"(relative difference {rel:.3g})")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("first")
    ap.add_argument("second")
    args = ap.parse_args(argv)
    records = []
    for path in (args.first, args.second):
        try:
            with open(path) as f:
                record = json.load(f)
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
            for text in record.values():
                float.fromhex(text)
        except (OSError, ValueError, TypeError) as exc:
            ap.error(f"{path}: {exc}")
        records.append(record)
    lines = differences(*records)
    for line in lines:
        print(line)
    keys = len(records[0].keys() | records[1].keys())
    print(f"{len(lines)} of {keys} keys differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
