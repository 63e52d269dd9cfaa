"""The qmsets benchmark.

    python3 perfbench/run.py --workload {sample,exhaustive,scenario} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Each workload runs in its own
fresh, single-threaded process (perfbench/child.py) built from the seed.
With --trace 0 the run prints every end-to-end metric of BENCHMARK.json,
with op times scaled to a reference host speed (child.py, Phase.scaled);
set-up is measured in SETUP_RUNS processes and reported as their median.
With --trace 1 it prints every per-layer metric.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the full
record, with the machine and seed, is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 13
SETUP_TIMEOUT_S = 30  # one set-up-only process
# The measured process spends --seconds untraced, or half of it untraced and
# as many cycles again traced; the margin covers the last cycle's overrun.
RUN_TIMEOUT_FACTOR, RUN_TIMEOUT_MARGIN_S = 3, 30


def _child(workload, seed, seconds, trace, setup_only, timeout) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(seconds),
           str(trace), repr(t0)] + (["--setup-only"] if setup_only else [])
    # A fixed hash seed makes set iteration order, and so the work behind
    # each op, the same in every run of a seed.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONHASHSEED": "0"})
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{workload}: child process ran over {timeout:.0f} s")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"{workload}: child process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _machine(workload, seed, seconds, trace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qmsets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "qmsets" / "__init__.py").is_file() or not spec_path.is_file():
        print("run.py: run from a qmsets checkout (src/qmsets and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def setup_only():
        return _child(args.workload, args.seed, args.seconds, 0, True,
                      SETUP_TIMEOUT_S)["setup_s"]

    # Set-up probes go before and after the measured process, so that their
    # median does not hang on one moment of the host's load.
    setups = [] if args.trace else [setup_only() for _ in range(SETUP_RUNS // 2)]
    res = _child(args.workload, args.seed, args.seconds, args.trace, False,
                 RUN_TIMEOUT_FACTOR * args.seconds + RUN_TIMEOUT_MARGIN_S)
    setups.append(res["setup_s"])
    if not args.trace:
        setups += [setup_only() for _ in range(SETUP_RUNS - len(setups))]

    measured = dict(res.get("layers", {}))
    if not args.trace:
        measured.update({
            "ops_per_s": res["ops_per_s"],
            "op_ms_p50": res["op_ms_p50"],
            "op_ms_p95": res["op_ms_p95"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        })
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    check = res["self_check"]
    correct = res["failed"] == 0 and check["failed"] == 1
    error_rate = res["failed"] / res["attempted"]

    record = {**res,
              "machine": _machine(args.workload, args.seed, args.seconds, args.trace),
              "metrics": metrics, "error_rate": error_rate, "setup_samples_s": setups}
    if not args.trace:
        record["setup_s"] = measured["setup_s"]
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    m = record["machine"]
    print(f"# {args.workload} seed {args.seed}: python {m['python']}, nproc {m['nproc']}, "
          f"{m['platform']}, commit {m['commit']}, src {m['src_sha256'][:12]}")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate = {error_rate:.6g} ratio ({res['failed']} of {res['attempted']} ops)")
    print(f"samples = {res['samples']} ops in {res['cycles']} cycles")
    if "raw" in res:
        raw = res["raw"]
        print(f"unscaled: ops_per_s = {raw['ops_per_s']:.6g} ops/s, op_ms_p50 = "
              f"{raw['op_ms_p50']:.6g} ms, op_ms_p95 = {raw['op_ms_p95']:.6g} ms "
              f"(host speed {res['host_speed']:.4g} x reference)")
    print(f"self_check error_rate = {check['error_rate']:.6g} ratio "
          f"(one corrupted {check['op']} output)")
    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
