"""One workload process: set up, run the timed cycles, check every output.

Started by run.py as `python3 perfbench/child.py WORKLOAD SEED SECONDS TRACE T0
[--setup-only]`, from the checkout root.  T0 is the parent's time.monotonic()
just before the start, so set-up time includes interpreter start and
`import qmsets`.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array
from math import ceil
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sample", "exhaustive", "scenario")


def _import_library():
    if not (SRC / "qmsets" / "__init__.py").is_file():
        raise SystemExit(f"no qmsets sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qmsets

    if Path(qmsets.__file__).resolve().parent != SRC / "qmsets":
        raise SystemExit(f"imported qmsets from {qmsets.__file__}, not from {SRC}")
    return qmsets


def _build(Q, workload: str, seed: int, workdir: Path):
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    return importlib.import_module(f"wl_{workload}").build(Q, seed, workdir)


# Op time between two runs of the speed kernel, and the kernel's time on the
# host the benchmark was written on (a 2-vCPU Xeon Sapphire Rapids VM,
# Python 3.11.7) in its fast mode.  That host switches every few seconds
# between a fast mode (0.21-0.23 ms) and a slow one (0.38-0.42 ms).
KERNEL_EVERY_S = 0.05
REF_KERNEL_S = 0.22e-3


def _kernel() -> int:
    """Fixed pure-Python object work (small frozensets, dict and set updates).

    It shares nothing with qmsets, so its time follows only the host's speed.
    """
    seen: dict = {}
    acc = 0
    for i in range(300):
        fs = frozenset(range(i % 11))
        seen[fs] = seen.get(fs, 0) + len(fs)
        acc += len(fs & {1, 3, 5, 7})
    return acc + len(seen)


def kernel_time() -> float:
    """Fastest of three kernel runs, with the collector off so the heap the
    library leaves behind does not add its collections to the kernel's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        if enabled:
            gc.enable()


class Phase:
    """Results of running whole cycles of the workload's ops."""

    def __init__(self):
        # Per cycle, in op order; arrays keep the benchmark's own share of
        # peak_rss_mb small next to the library's.
        self.latencies: list[array] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.outputs: list = []
        self.op_time = 0.0
        self.kernel_s: list[float] = []  # speed-kernel timings, in run order
        self.kernel_before: list[array] = []  # per op: index of the last one before it

    def scaled(self) -> list[array]:
        """Latencies at the reference speed: each op's time times REF_KERNEL_S
        over the mean kernel time just before and just after it."""
        k = self.kernel_s
        return [array("d", (t * REF_KERNEL_S * 2 / (k[j] + k[j + 1])
                            for t, j in zip(cycle, before)))
                for cycle, before in zip(self.latencies, self.kernel_before)]


def run_cycles(wl, *, budget_s: float | None = None, cycles: int | None = None,
               tracer=None, keep_outputs: bool = False, first_rep: int = 0,
               speed: bool = False) -> Phase:
    """Run whole cycles: a fixed count, or as many as fit in the budget (at least one).

    Cycles are numbered from `first_rep`.  Only the op calls are timed; input
    preparation and the oracle run between them, off the clock.  With `speed`,
    the speed kernel is timed between ops after every KERNEL_EVERY_S of op
    time, and once more at the end, for Phase.scaled().
    """
    phase = Phase()
    start = time.perf_counter()
    done = 0
    ops = wl.ops
    since_kernel = KERNEL_EVERY_S
    while True:
        cycle_time = 0.0
        latencies = array("d")
        before = array("l")
        rep = first_rep + done
        for i, op in enumerate(ops):
            if op.prepare is not None:
                op.prepare(rep)
            if speed and since_kernel >= KERNEL_EVERY_S:
                phase.kernel_s.append(kernel_time())
                since_kernel = 0.0
            before.append(len(phase.kernel_s) - 1)
            if tracer is not None:
                tracer.begin_op(done * len(ops) + i, op.n)
            t0 = time.perf_counter()
            try:
                out, error = op.run(rep), None
            except Exception as exc:  # a library error fails the op, not the run
                out, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_op()
                if error is None and op.facts is not None:
                    for key, value in op.facts(out).items():
                        tracer.add(key, value)
            cycle_time += dt
            since_kernel += dt
            latencies.append(dt)
            phase.attempted += 1
            if error is None:
                error = op.check(out, rep)
            if error is not None:
                phase.failures.append(f"{op.kind} (cycle {rep}): {error}")
            if keep_outputs:
                phase.outputs.append(out)
        done += 1
        phase.latencies.append(latencies)
        phase.kernel_before.append(before)
        phase.op_time += cycle_time
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif elapsed + elapsed / done > budget_s:
            break
    if speed:
        phase.kernel_s.append(kernel_time())
    phase.cycles = done
    return phase


def self_check(wl) -> dict:
    """Feed one corrupted output through the oracle; it must count as a failure."""
    for op in wl.ops:
        corrupt = next((fn for prefix, fn in wl.corrupt.items()
                        if op.kind.startswith(prefix)), None)
        if corrupt is None:
            continue
        if op.prepare is not None:
            op.prepare(0)
        out = op.run(0)
        failed = op.check(out, 0) is None and op.check(corrupt(out), 0) is not None
        return {"op": op.kind, "attempted": 1, "failed": int(failed), "error_rate": float(failed)}
    return {"op": None, "attempted": 0, "failed": 0, "error_rate": 0.0}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q * len(ordered)) - 1)]


def _timed(cycles: list) -> list:
    return cycles[1:] if len(cycles) >= 3 else cycles


def cycle_figures(latencies: list[array]) -> dict:
    """ops_per_s, op_ms_p50 and op_ms_p95: per cycle, then the median over cycles.

    Every cycle is the whole op mix, so each cycle's figures describe the
    workload.  The first cycle is a warm-up and left out when at least three ran.
    """
    timed = _timed(latencies)
    return {
        "ops_per_s": statistics.median(len(c) / sum(c) for c in timed),
        "op_ms_p50": statistics.median(statistics.median(c) for c in timed) * 1000,
        "op_ms_p95": statistics.median(percentile(c, 0.95) for c in timed) * 1000,
    }


def layer_metrics(tracer, phase: Phase, sizes: dict[int, int]) -> dict[str, float]:
    from tracer import LAYERS

    ops = phase.attempted
    c = tracer.counters
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = tracer.self_s[layer] * 1000 / ops
        out[f"{layer}.calls_per_op"] = tracer.calls[layer] / ops
        out[f"{layer}.errors_per_op"] = tracer.errors[layer] / ops
    for (layer, n), seconds in tracer.self_by_size.items():
        out[f"{layer}.self_ms_per_op.n{n}"] = seconds * 1000 / sizes[n]
    edges = c.get("universe.edges", 0)
    draws = c.get("calculus.draws", 0)
    out.update({
        "universe.partitions_built_per_op": c.get("universe.partitions_built", 0) / ops,
        "universe.refines_per_edge":
            c.get("universe.refines_in_lattice", 0) / edges if edges else 0.0,
        "universe.enumerated_per_op": c.get("universe.enumerated", 0) / ops,
        "group_action.compositions_per_op": c.get("group_action.compositions", 0) / ops,
        "gf2.eliminations_per_op": c.get("gf2.eliminations", 0) / ops,
        "gf2.to_subset_per_op": c.get("gf2.to_subset", 0) / ops,
        "calculus.distributions_per_op": c.get("calculus.distributions", 0) / ops,
        "calculus.outcomes_per_draw":
            c.get("calculus.outcomes_in_draws", 0) / draws if draws else 0.0,
        "scenario.rejects_per_op": c.get("scenario.rejects", 0) / ops,
        "cli.bytes_out_per_op": c.get("cli.bytes_out", 0) / ops,
    })
    return out


def main(argv: list[str]) -> int:
    workload, seed, seconds, t0 = argv[0], int(argv[1]), float(argv[2]), float(argv[4])
    trace, setup_only = argv[3] == "1", "--setup-only" in argv
    os.chdir(ROOT)
    sys.path.insert(0, str(BENCH))
    Q = _import_library()
    workdir = Path("perfbench") / "out" / f"work-{os.getpid()}"
    try:
        wl = _build(Q, workload, seed, workdir)
        ready = time.monotonic()
        result = {"setup_s": ready - t0}
        if not setup_only:
            result.update(_measure(Q, wl, seconds, trace, workload, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _measure(Q, wl, seconds, trace, workload, seed) -> dict:
    if not trace:
        phase = run_cycles(wl, budget_s=seconds, speed=True)
        result = cycle_figures(phase.scaled())
        result["raw"] = cycle_figures(phase.latencies)
        result["host_speed"] = REF_KERNEL_S / statistics.median(phase.kernel_s)
        result["samples"] = sum(map(len, _timed(phase.latencies)))
        result["cycles"] = phase.cycles
    else:
        from tracer import Tracer

        plain = run_cycles(wl, budget_s=seconds / 2, keep_outputs=wl.byte_outputs)
        tracer = Tracer()
        tracer.install(Q)
        phase = run_cycles(wl, cycles=plain.cycles, tracer=tracer,
                           keep_outputs=wl.byte_outputs, first_rep=plain.cycles)
        sizes = {}
        for op in wl.ops:
            sizes[op.n] = sizes.get(op.n, 0) + phase.cycles
        if wl.byte_outputs:
            for i, (a, b) in enumerate(zip(plain.outputs, phase.outputs)):
                if a != b:
                    op = wl.ops[i % len(wl.ops)]
                    phase.failures.append(f"{op.kind}: output differs with tracing on")
        result = {"layers": layer_metrics(tracer, phase, sizes),
                  "samples": phase.attempted, "cycles": phase.cycles,
                  "unwrapped": tracer.missing, "spans_dropped": tracer.dropped}
        result["layers"]["trace.overhead_ratio"] = phase.op_time / plain.op_time
        spans = Path("perfbench") / "out" / f"spans-{workload}-{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans)
        result["spans_file"] = str(spans)
        phase.failures = plain.failures + phase.failures
        phase.attempted += plain.attempted
    result.update({
        "attempted": phase.attempted,
        "failed": len(phase.failures),
        "failures": phase.failures[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "self_check": self_check(wl),
    })
    return result


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
