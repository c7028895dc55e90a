"""Compare saved benchmark results of a parent and a change.

Usage::

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the saved stdout of ``run.py`` runs, one file per
run.  Runs pair up by (workload, trace mode, seed).  The comparison
refuses, with exit code 2, to mix results whose host fingerprint (CPU
model, ``nproc``, Python and numpy versions) or settings (seconds,
set-up repeats) differ: numbers from different hosts or run lengths do
not compare.

For each workload and metric it prints both sides' median and
quartiles, the share of pairs the change wins, and a verdict under the
bounds in ``BENCHMARK.json``: ``better`` (wins at least 9 of 10 pairs
and the medians differ by more than the parent's quartile spread),
``worse`` (the change's median is worse by more than the bound),
``unresolved`` (the parent's own spread exceeds the bound) or ``same``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from checkout import ROOT

#: fingerprint fields that must agree across every compared result
HOST_KEYS = ("cpu", "nproc", "python", "numpy", "seconds", "setup_repeats")


def load(directory: Path) -> dict:
    """``{(workload, trace, seed): (report, result)}`` for one side."""
    runs = {}
    for path in sorted(directory.iterdir()):
        lines = [line for line in path.read_text().splitlines() if line]
        reports = [line for line in lines if line.startswith("report ")]
        if not reports:
            continue
        report = json.loads(reports[-1][len("report "):])
        result = json.loads(lines[-1])
        key = report["fingerprint"]
        runs[(key["workload"], key["trace"], key["seed"])] = (report, result)
    return runs


def host(report: dict) -> tuple:
    return tuple(report["fingerprint"][key] for key in HOST_KEYS)


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, change = (load(Path(arg)) for arg in argv)
    hosts = {host(report) for report, _ in [*base.values(),
                                            *change.values()]}
    if len(hosts) != 1:
        sys.stderr.write("refusing to compare results across host "
                         f"fingerprints: {sorted(hosts)}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    keys = sorted(set(base) & set(change))
    groups = sorted({(workload, trace) for workload, trace, _ in keys})
    for workload, trace in groups:
        seeds = [seed for w, t, seed in keys if (w, t) == (workload, trace)]
        print(f"{workload} trace={trace}: {len(seeds)} pairs")
        names = base[(workload, trace, seeds[0])][1]["metrics"]
        for name in names:
            old = [base[(workload, trace, s)][1]["metrics"][name]["value"]
                   for s in seeds]
            new = [change[(workload, trace, s)][1]["metrics"][name]["value"]
                   for s in seeds]
            print("  " + verdict(name, old, new, bounds.get(name)))
    return 0


def verdict(name: str, old: list, new: list, bound) -> str:
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    text = (f"{name:<34} base {om:.6g} [{o1:.6g}, {o3:.6g}]  "
            f"change {nm:.6g} [{n1:.6g}, {n3:.6g}]")
    if bound is None or not om:
        return text
    sign = 1 if bound["better"] == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(old, new)) / len(old)
    worse_by = sign * (om - nm) / om
    if (o3 - o1) / om > bound["bound"]:
        call = "unresolved"
    elif wins >= 0.9 and abs(nm - om) > o3 - o1:
        call = "better"
    elif worse_by > bound["bound"]:
        call = "worse"
    else:
        call = "same"
    return f"{text}  wins {wins:.0%}  {call}"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
