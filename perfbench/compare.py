"""Compare the artifact SHA-256s of two benchmark result files.

    python3 perfbench/compare.py .perfbench_out/A.json .perfbench_out/B.json

Exits 0 when every call common to both files wrote byte-identical
artifacts, 1 otherwise; calls present in only one file are listed.
"""

from __future__ import annotations

import json
import sys


def compare(a: dict, b: dict) -> list[str]:
    """Lines describing every difference between two `artifacts` maps."""
    diffs = []
    for op in sorted(set(a) | set(b)):
        if op not in a or op not in b:
            diffs.append(f"{op}: only in {'first' if op in a else 'second'}")
            continue
        for path in sorted(set(a[op]) | set(b[op])):
            ha, hb = a[op].get(path), b[op].get(path)
            if ha != hb:
                diffs.append(f"{op}/{path}: {ha} != {hb}")
    return diffs


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    first, second = (json.load(open(p))["artifacts"] for p in argv)
    diffs = compare(first, second)
    for line in diffs:
        print(line)
    n = sum(len(v) for v in first.values())
    print(f"{n} artifacts in first file; {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
