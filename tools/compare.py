"""Summarise committed benchmark records: parent against change, metric by metric.

    python tools/compare.py BENCH_FILE...

Each file is a `BENCH_*.json` record whose `runs` list holds one entry per
`perfbench/run.py` run, with its `workload`, `side` ("parent" or "change") and
`pair`, and, where the runs carry one, its `seed`.  A run's end-to-end metrics
are its `metrics` dict (records from BENCH_27.json on) or its own top-level
keys (records up to BENCH_24.json).  A run that lacks any of them, as a traced
run does, counts as failed and is not read.  The metrics, and whether lower or
higher is better and by what share each may worsen, come from BENCHMARK.json.

For each file it prints one JSON object, {"file": ..., "summary": [...]}, with
a summary row for each workload and seed, in the order the runs first name
them.  A row gives each side's median and quartiles (statistics.quantiles,
inclusive method) of every metric, the pairs the change won (ties count for
neither), the ratio of the medians and `worse_by_over_bound`: how far the
change's median is worse than the parent's as a share of the metric's bound,
negative when it is better.  The same for `host_speed` where runs record it.
It exits non-zero when a file cannot be read.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def spread(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def metrics_of(run: dict, names: list[str]) -> dict | None:
    """The run's end-to-end metrics, or None when any is missing."""
    found = run.get("metrics", run)
    values = {name: found.get(name) for name in names}
    return None if None in values.values() else values


def summarise(runs: list[dict], end_to_end: list[dict]) -> list[dict]:
    names = [m["name"] for m in end_to_end]
    groups: dict[tuple, list[dict]] = {}
    for run in runs:
        if run["side"] not in SIDES:
            raise ValueError(f"run side {run['side']!r} is neither parent nor change")
        groups.setdefault((run["workload"], run.get("seed")), []).append(run)
    rows = []
    for (workload, seed), group in groups.items():
        read = {side: [] for side in SIDES}  # (run, its metrics)
        failed = dict.fromkeys(SIDES, 0)
        for run in group:
            values = metrics_of(run, names)
            if values is None:
                failed[run["side"]] += 1
            else:
                read[run["side"]].append((run, values))
        if not all(read.values()):
            raise ValueError(f"{workload} seed {seed}: a side has no run with every metric")
        by_pair = {side: {run["pair"]: values for run, values in read[side]} for side in SIDES}
        pairs = sorted(by_pair["parent"].keys() & by_pair["change"].keys())
        every = [run for side in SIDES for run, _ in read[side]]
        flags = [run.get("correct") for run in every]

        def median_of(side, key):
            found = [run[key] for run, _ in read[side] if run.get(key) is not None]
            return statistics.median(found) if found else None

        row = {"workload": workload} | ({"seed": seed} if seed is not None else {})
        row |= {
            "pairs": len(pairs),
            "failed_runs": failed,
            "failed_ops": {side: sum(run.get("failed") or 0 for run, _ in read[side])
                           for side in SIDES},
            "attempted_ops": {side: median_of(side, "attempted") for side in SIDES},
            # None where `correct` is not a bool: BENCH_7.json stored the self-check there
            "all_correct": all(flags) if all(isinstance(f, bool) for f in flags) else None,
            "metrics": {},
        }
        for metric in end_to_end:
            name, lower = metric["name"], metric["better"] == "lower"
            sides = {side: spread([values[name] for _, values in read[side]]) for side in SIDES}
            won = 0
            for pair in pairs:
                parent, change = by_pair["parent"][pair][name], by_pair["change"][pair][name]
                won += change < parent if lower else change > parent
            ratio = sides["change"]["median"] / sides["parent"]["median"]
            row["metrics"][name] = sides | {
                "change_better_pairs": won,
                "median_change_over_parent": ratio,
                "worse_by_over_bound": ((ratio - 1) if lower else (1 - ratio)) / metric["bound"],
            }
        if all(run.get("host_speed") for run in every):
            row["host_speed"] = {
                side: spread([run["host_speed"] for run, _ in read[side]]) for side in SIDES
            }
        rows.append(row)
    return rows


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/compare.py BENCH_FILE...", file=sys.stderr)
        return 2
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    status = 0
    for path in argv:
        try:
            summary = summarise(json.loads(Path(path).read_text())["runs"], end_to_end)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{path}: cannot read: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps({"file": path, "summary": summary}, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
