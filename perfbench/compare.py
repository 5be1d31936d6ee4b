#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

Usage:
    python3 perfbench/compare.py BASE NEW

BASE and NEW are files holding the captured standard output of one or more
`perfbench/run.py` runs (concatenated). Each run prints a `record {...}`
line; runs are matched by (workload, seed, traced).

The verdict, per workload:
  * not comparable  - host or build fingerprints differ (nproc, CPU model,
                      build type and flags, lanes); nothing else is compared;
  * behaviour change - a seed's deterministic fingerprint (final state hash,
                      counts and ratios) differs: the program computes
                      something else, so timings are not a speed comparison;
  * otherwise each metric's median over the matched seeds, with the relative
    change; a metric with a bound in BENCHMARK.json that got worse by more
    than that bound is flagged as a regression.
Exit status: 0 = comparable, no regression; 1 = regression or behaviour
change; 2 = not comparable or no matched runs.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

FINGERPRINT = (("host", "nproc"), ("host", "hardware_concurrency"),
               ("host", "cpu_model"), ("build", "type"), ("build", "flags"),
               ("build", "lanes"))


def load(path):
    records = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("record "):
            r = json.loads(line[len("record "):])
            records[(r["workload"], r["seed"], r["trace"])] = r
    return records


def bounds():
    spec = json.loads((Path(__file__).resolve().parent.parent /
                       "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    gated = bounds()
    by_workload = defaultdict(list)
    for key in sorted(base.keys() & new.keys()):
        by_workload[(key[0], key[2])].append((base[key], new[key]))
    if not by_workload:
        print("no runs to compare (match on workload, seed and trace)")
        return 2

    status = 0
    for (workload, traced), pairs in sorted(by_workload.items()):
        label = f"{workload} ({'traced' if traced else 'untraced'}, " \
                f"{len(pairs)} seed{'s' if len(pairs) != 1 else ''})"
        diffs = sorted({f"{a}.{b}" for x, y in pairs for a, b in FINGERPRINT
                        if x[a][b] != y[a][b]})
        if diffs:
            print(f"{label}: NOT COMPARABLE - fingerprints differ in "
                  f"{', '.join(diffs)}")
            status = max(status, 2)
            continue
        changed = [x["seed"] for x, y in pairs
                   if x["deterministic"] != y["deterministic"]]
        if changed:
            print(f"{label}: BEHAVIOUR CHANGE - deterministic fingerprint "
                  f"differs for seeds {changed}")
            status = max(status, 1)
            continue
        print(f"{label}: same behaviour")
        for section in ("metrics", "extra"):
            for name in pairs[0][0][section]:
                a = statistics.median(x[section][name]["value"]
                                      for x, _ in pairs)
                b = statistics.median(y[section][name]["value"]
                                      for _, y in pairs)
                unit = pairs[0][0][section][name]["unit"]
                change = (b - a) / abs(a) if a else 0.0
                note = ""
                if section == "metrics" and name in gated:
                    m = gated[name]
                    worse = change if m["better"] == "lower" else -change
                    if worse > m["bound"]:
                        note = f"  REGRESSION (bound {m['bound']:.0%})"
                        status = max(status, 1)
                print(f"  {name:34s} {a:14.6g} -> {b:14.6g} {unit:6s} "
                      f"{change:+8.2%}{note}")
    return status


if __name__ == "__main__":
    sys.exit(main())
