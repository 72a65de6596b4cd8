"""Compare benchmark results from ``perfbench/results/``, like with like.

    python3 perfbench/compare.py --base A.json [A2.json ...] --new B.json [...]

Each side's metric is the median over its files.  Refuses (exit 2) when
the files do not share one host fingerprint -- CPU model, core count,
Python version and build -- or one workload, trace mode and run length:
numbers from different hosts or settings do not compare.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List

from run import END_TO_END_UNITS, IDENTITY, PER_LAYER_UNITS, ROOT


def load(paths: List[str]) -> List[dict]:
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    return records


def mismatch(records: List[dict]) -> List[str]:
    """Why these results may not be compared; empty when they may."""
    first = records[0]
    problems = []
    for record in records[1:]:
        for field in IDENTITY:
            if record["host"][field] != first["host"][field]:
                problems.append(f"host {field}: {first['host'][field]!r} vs "
                                f"{record['host'][field]!r}")
        for field in ("workload", "trace", "seconds"):
            if record[field] != first[field]:
                problems.append(f"{field}: {first[field]!r} vs "
                                f"{record[field]!r}")
    return sorted(set(problems))


def medians(records: List[dict]) -> Dict[str, float]:
    names = records[0]["metrics"]
    return {name: statistics.median(r["metrics"][name] for r in records)
            for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    problems = mismatch(base + new)
    if problems:
        print("refusing to compare results that differ in:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 2
    failed = sum(r["failed"] for r in base + new)
    if failed:
        print(f"warning: {failed} failed repetitions among these results")
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    direction = {m["name"]: m["better"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = medians(base), medians(new)
    print(f"{'metric':32s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name, value in before.items():
        change = (after[name] - value) / value if value else 0.0
        mark = ""
        if change and name in direction:
            better = (change > 0) == (direction[name] == "higher")
            mark = " better" if better else " worse"
        print(f"{name:32s} {value:>14.6g} {after[name]:>14.6g} "
              f"{change:>+8.1%}{mark} {units.get(name, '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
