"""Benchmark of the supercoinv engine through its real CLI commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is one ``cli.main(argv)`` call in its own fresh interpreter,
started one at a time from this process (a closed loop with one client).  A
fresh interpreter per operation keeps the engine's module-level
``functools.cache`` memos from making a repeated operation warm.  A workload's
operations run in cycles while at least half of the next one would fit in
``--seconds``; there is always at least one cycle, and with ``--trace 1`` at
least one untraced and one traced cycle, alternating.  A traced run then runs
the workload's counter operations once, traced, to check the pinned counters.
After each untraced operation a fixed reference task runs in this process;
the end-to-end times are rescaled by its times to one reference host speed.

Each output is hashed and compared with its golden hash in ``baseline.json``.
An exception, a non-zero exit, a hash mismatch or a failed independent check
fails the operation.  The last line of standard output is one JSON object:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The seed sets the order of the operations of an
unordered workload and names the temporary directories.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = HERE / "child.py"

SETUPS_PER_CYCLE = 4  # set-up samples per cycle at least; probes make up what operations lack
RUN_LIMIT_S = 170  # a run must end within 180 s; operations past this are killed
REFERENCE_S = 0.32  # low-quartile reference task time on a quiet host; times are rescaled to it
# how strongly the engine's times follow the reference task's: the slope of
# log run time on log reference time, 0.49-0.76 over three sets of 5-10 runs
HOST_ELASTICITY = 0.6


def _artin(stdout: str) -> str | None:
    """Artin: the classical coinvariant ring (k=1, j=0) has dimension n!."""
    data = json.loads(stdout)
    total = sum(int(rec["c"]) for rec in data["hilbert"])
    want = math.factorial(data["n"])
    return None if total == want else f"Hilbert series at q=1 is {total}, not {want}"


def _all_pass(stdout: str) -> str | None:
    failed = [rec["id"] for rec in json.loads(stdout) if rec["status"] != "pass"]
    return f"checks did not pass: {failed}" if failed else None


@dataclass(frozen=True)
class Op:
    id: str  # the CLI arguments, as typed after ``supercoinv``
    cached: bool = False  # gets the cycle's fresh --cache-dir
    pooled: bool = False  # runs a process pool: timed end to end only, never traced
    check: Callable[[str], str | None] | None = None  # independent check of the output
    name: str | None = None  # name under which this operation's own time is printed

    @property
    def argv(self) -> list:
        return self.id.split()


@dataclass(frozen=True)
class Workload:
    ops: tuple
    shuffled: bool = False  # the seed orders the operations of each cycle
    # run once, traced, at the end of a traced run: they carry pinned counters
    # but are too long to time often enough in one run
    counter_ops: tuple = ()


WORKLOADS = {
    "mixed-cached": Workload(
        (
            Op("compute --n 4 --k 2 --j 1 --series frobenius", cached=True),
            Op("expand --n 4 --k 2 --j 1", cached=True, name="reload_s"),
        ),
        counter_ops=(
            Op("compute --n 5 --k 1 --j 1 --series frobenius", cached=True),
            Op("expand --n 5 --k 1 --j 1", cached=True),
        ),
    ),
    "suite": Workload(
        (
            Op("compute --n 6 --k 1 --series hilbert", check=_artin),
            Op("verify all", check=_all_pass),
            Op("verify all --jobs 2", pooled=True, check=_all_pass, name="verify_jobs2_s"),
            Op("cauchy --n 4 --k 2 --j 2 --degree-bound 8"),
            Op("compute --n 4 --k 2 --series hilbert"),
            Op("expand --n 5 --j 2"),
        ),
        shuffled=True,
    ),
}

# per-layer time metric -> span whose self time it sums
SELF_TIMES = {
    "exactla.span_basis_s": "exactla.span_basis",
    "coinvariant.ideal_component_self_s": "coinvariant.ideal_component",
    "superring.invariant_basis_s": "superring.invariant_basis",
    "superring.monomial_space_s": "superring.monomial_space",
    "coinvariant.quotient_character_s": "coinvariant.quotient_character",
    "coinvariant.disk_read_s": "coinvariant.disk_read",
    "coinvariant.disk_write_s": "coinvariant.disk_write",
    "snchar.frobenius_decompose_s": "snchar.frobenius_decompose",
    "superschur.expand_super_schur_s": "superschur.expand_super_schur",
    "exactla.solve_columns_s": "exactla.solve_columns",
    "superschur.super_cauchy_check_s": "superschur.super_cauchy_check",
    "checks.run_check_s": "checks.run_check",
    "cli.self_s": "cli.main",
}

# per-layer counters summed over a cycle's operations, as the tracer names them
COUNTS = (
    "exactla.insert_calls",
    "exactla.insert_kept",
    "exactla.fill_nnz",
    "exactla.fraction_entries",
    "coinvariant.shifted_vectors",
    "superring.mono_mul_calls",
    "superring.invariant_vectors",
    "superring.monomial_cols",
    "coinvariant.components",
    "coinvariant.quotient_dim",
    "coinvariant.disk_files_read",
    "coinvariant.disk_bytes_written",
)


@dataclass
class OpResult:
    op: Op
    setup_s: float | None  # None when the operation left no result
    solve_s: float | None
    rss_mb: float
    error: str | None
    trace: dict | None


def canonical_output(op: Op, stdout: str) -> bytes:
    """The bytes the golden hash covers; verify reports drop their run time."""
    if op.argv[0] == "verify":
        reports = json.loads(stdout)
        for rec in reports:
            rec.pop("seconds")
        return json.dumps(reports, sort_keys=True).encode()
    return stdout.encode()


def child_env() -> dict:
    """Environment of every operation: this checkout's engine, no cache override.

    ``cli._cache_dir`` prefers ``SUPERCOINV_CACHE`` over ``--cache-dir``, so
    it is removed; a directory filled by another commit would be trusted.
    """
    env = {k: v for k, v in os.environ.items() if k != "SUPERCOINV_CACHE"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(cmd: list, deadline: float, stderr_path: Path) -> tuple[int, float]:
    """Run cmd to completion; exit code and peak RSS in MB of it and its children.

    ``wait4`` reports the largest RSS of the process and of the children it
    waited for, so the pool workers of ``verify --jobs`` are included.
    """
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(
            cmd,
            env=child_env(),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,
        )
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024


def probe_setup(deadline: float) -> float:
    """Interpreter start plus ``import supercoinv``, in one fresh interpreter."""
    result_path = WORK / "probe.json"
    result_path.unlink(missing_ok=True)
    started = time.monotonic()
    cmd = [sys.executable, str(CHILD), str(result_path), "0"]
    code, _rss = _spawn(cmd, deadline, WORK / "child.stderr")
    if code != 0 or not result_path.exists():
        raise RuntimeError(f"set-up probe failed with exit code {code}: {_stderr_tail()}")
    return json.loads(result_path.read_text())["t_ready"] - started


def _stderr_tail() -> list:
    return (WORK / "child.stderr").read_text(errors="replace").strip().splitlines()[-3:]


def run_op(op: Op, golden: dict, cache_dir: Path, trace: bool, deadline: float) -> OpResult:
    """One operation in one fresh interpreter, checked against its golden hash."""
    result_path = WORK / "result.json"
    result_path.unlink(missing_ok=True)
    argv = op.argv + (["--cache-dir", str(cache_dir)] if op.cached else [])
    cmd = [sys.executable, str(CHILD), str(result_path), "1" if trace else "0", *argv]
    started = time.monotonic()
    code, rss_mb = _spawn(cmd, deadline, WORK / "child.stderr")
    if not result_path.exists():
        return OpResult(op, None, None, rss_mb, f"exit {code}, no result: {_stderr_tail()}", None)
    res = json.loads(result_path.read_text(encoding="utf-8"))
    error = None
    if Path(res["module"]).resolve().parent.parent != SRC:
        error = f"imported supercoinv from {res['module']}"
    elif res["error"]:
        error = res["error"].strip().splitlines()[-1]
    elif code != 0 or res["rc"] != 0:
        error = f"exit code {res['rc']}"
    else:
        digest = hashlib.sha256(canonical_output(op, res["stdout"])).hexdigest()
        if golden.get(op.id) != digest:
            error = f"output sha256 {digest} != golden {golden.get(op.id)}"
        elif op.check:
            error = op.check(res["stdout"])
    return OpResult(op, res["t_ready"] - started, res["solve_s"], rss_mb, error, res["trace"])


def reference_seconds() -> float:
    """Time of a fixed pure-Python task that does not depend on the engine.

    It sums Fractions into a dict of 80 000 tuple keys and sorts it, so like
    the engine it allocates and walks tens of megabytes.  Run next to the
    operations, its time tracks how fast this shared host is at the moment.
    """
    started = time.perf_counter()
    sums = {}
    for i in range(80_000):
        key = (i % 5003, i % 7, i % 11)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 13, 1 + i % 5)
    sorted(sums.items())
    return time.perf_counter() - started


def run_cycle(
    ops, golden: dict, cache_dir: Path, trace: bool, deadline: float, refs: list | None = None
) -> list:
    """The operations in order; cached ones share a new empty cache directory.

    With ``refs``, the reference task runs after each operation and its time
    is appended there.
    """
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    results = []
    try:
        for op in ops:
            results.append(run_op(op, golden, cache_dir, trace and not op.pooled, deadline))
            if refs is not None:
                refs.append(reference_seconds())
        return results
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


@dataclass
class Measured:
    setups: list  # set-up times of every interpreter started, in seconds
    refs: list  # reference task times, one after each untraced operation
    cycles: list  # [(traced, [OpResult])]
    counted: list  # OpResults of the counter operations of a traced run


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> Measured:
    """Cycles, each followed by set-up probes, then any counter operations."""
    workload = WORKLOADS[name]
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    probe_setup(deadline)  # not counted: it writes the bytecode cache of a fresh checkout
    rng = random.Random(seed)
    run = Measured([], [], [], [])
    while True:
        traced = trace and len(run.cycles) % 2 == 1
        ops = list(workload.ops)
        if workload.shuffled:
            rng.shuffle(ops)
        cache_dir = WORK / f"{name}-seed{seed}-cycle{len(run.cycles)}-cache"
        began = time.monotonic()
        refs = None if traced else run.refs
        run.cycles.append((traced, run_cycle(ops, golden, cache_dir, traced, deadline, refs)))
        # spread over the run, so that set-up is sampled as often as the host drifts
        run.setups += [probe_setup(deadline) for _ in range(SETUPS_PER_CYCLE - len(ops))]
        took = time.monotonic() - began
        need_traced = trace and not any(t for t, _ in run.cycles)
        # start another cycle only if at least half of it fits
        if not need_traced and time.monotonic() - start + took / 2 > seconds:
            break
    if trace and workload.counter_ops:
        cache_dir = WORK / f"{name}-seed{seed}-counters-cache"
        run.counted = run_cycle(workload.counter_ops, golden, cache_dir, True, deadline)
    return run


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traces: list) -> dict:
    """Per-layer self times and counters of one cycle's traced operations.

    A span's self time is its duration minus that of its child spans, so the
    self times of a command's spans add up to its root ``cli.main`` span.
    """
    self_s, counts, max_cols = Counter(), Counter(), 0
    for trace in traces:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent), inner in zip(spans, covered):
            self_s[name] += end - start - inner
            counts["coinvariant.character_calls"] += name == "coinvariant.quotient_character"
        for key, value in trace["counts"].items():
            if key == "superring.max_cols":
                max_cols = max(max_cols, value)
            else:
                counts[key] += value
    metrics = {metric: float(self_s[span]) for metric, span in SELF_TIMES.items()}
    metrics.update({key: counts[key] for key in COUNTS})
    metrics["superring.max_cols"] = max_cols
    metrics["coinvariant.character_calls"] = counts["coinvariant.character_calls"]
    metrics["exactla.kept_ratio"] = _ratio(
        counts["exactla.insert_kept"], counts["exactla.insert_calls"]
    )
    metrics["coinvariant.disk_hit_ratio"] = _ratio(
        counts["coinvariant.disk_files_read"], counts["coinvariant.disk_loads"]
    )
    return metrics


def tail_stat(values: list) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        return "n=0"
    text = f"median={statistics.median(ordered):.6g}"
    if n >= 11:
        text += f" p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"
    return f"{text} n={n}"


def low_quartile(values: list) -> float:
    """First quartile, as ``statistics.quantiles`` gives it; the value itself if alone."""
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def cycle_time(workload: Workload, cycles: list) -> float:
    """Sum over the workload's operations of each one's low-quartile time.

    Slowdowns on a shared host are one-sided bursts of up to twice the
    quiet time, so the low quartile of an operation's times in a run moves
    far less from run to run than their mean or median, and still follows
    any change to the program's own time.
    """
    results = [r for cycle in cycles for r in cycle if r.solve_s is not None]
    times = [[r.solve_s for r in results if r.op is op] for op in workload.ops]
    return sum(low_quartile(t) for t in times if t)


def summarize(name: str, seed: int, trace: bool, run: Measured, pinned: dict):
    """Human-readable lines and the metric values of the final JSON line.

    The end-to-end times are rescaled to the reference host speed: multiplied
    by ``REFERENCE_S`` over the low quartile of the run's reference task
    times, to the power ``HOST_ELASTICITY``.  Host slowdowns here last
    minutes and reach +-30%; the rescaling cancels most of that, and a change
    to the program's own time passes through it unchanged.
    """
    workload = WORKLOADS[name]
    cycles = run.cycles
    results = [r for _t, cycle in cycles for r in cycle] + run.counted
    failed = [r for r in results if r.error]
    lines = [
        f"perfbench workload={name} seed={seed} trace={int(trace)} cycles={len(cycles)} "
        f"attempted={len(results)} failed={len(failed)} fail_ratio={len(failed) / len(results):.6g}"
    ]
    lines += [f"  FAILED {r.op.id}: {r.error}" for r in failed]
    plain = [[r for r in cycle if r.solve_s is not None] for traced, cycle in cycles if not traced]
    setup_all = run.setups + [r.setup_s for r in results if r.setup_s is not None]
    speed = (REFERENCE_S / low_quartile(run.refs)) ** HOST_ELASTICITY if run.refs else 1.0
    measured = {
        "solve_s": cycle_time(workload, plain),
        "setup_s": statistics.median(setup_all) * len(workload.ops),
    }
    values = {key: value * speed for key, value in measured.items()}
    values["peak_rss_mb"] = max(r.rss_mb for cycle in plain for r in cycle)
    lines.append(
        f"  host speed: x{speed:.4g} = ({REFERENCE_S} s / low quartile of {len(run.refs)}"
        f" reference task times) ** {HOST_ELASTICITY} ({tail_stat(run.refs)})"
    )
    lines.append(
        f"  solve_s [s]: {values['solve_s']:.6g} = x{speed:.4g} {measured['solve_s']:.6g},"
        " the sum of the low quartiles of"
    )
    for op in workload.ops:
        times = [r.solve_s for cycle in plain for r in cycle if r.op is op]
        label = f"{op.name} [s]" if op.name else f"'{op.id}' [s]"
        q1 = f"q1={low_quartile(times):.6g} " if times else ""
        lines.append(f"    {label}: {q1}{tail_stat(times)}")
    lines.append(
        f"  setup_s [s]: {values['setup_s']:.6g} = x{speed:.4g} {measured['setup_s']:.6g},"
        f" {len(workload.ops)} operations x median of {len(setup_all)} set-ups"
    )
    lines.append(f"  peak_rss_mb [MB]: {values['peak_rss_mb']:.6g}")
    if trace:
        traced = [cycle for t, cycle in cycles if t]
        per_cycle = [layer_metrics([r.trace for r in cycle if r.trace]) for cycle in traced]
        # counts repeat exactly from cycle to cycle; times are averaged
        values = {
            key: (statistics.fmean if key in SELF_TIMES else statistics.median_low)(
                [m[key] for m in per_cycle]
            )
            for key in per_cycle[0]
        }
        values["trace_overhead_s"] = cycle_time(workload, traced) - cycle_time(workload, plain)
        for op in workload.ops + workload.counter_ops:
            seen = [layer_metrics([r.trace]) for r in results if r.op is op and r.trace]
            for key, value in pinned.get(op.id, {}).items():
                got = sorted({m[key] for m in seen})
                state = "match" if got == [value] else f"DIFFERS: traced {got}"
                lines.append(f"  pinned {key}={value} of '{op.id}': {state}")
        write_trace(name, seed, traced + [run.counted])
    return lines, values, len(results), len(failed)


def write_trace(name: str, seed: int, traced_cycles: list) -> None:
    """Spans and counters of the traced operations, for reading by hand."""
    ops = [{"op": r.op.id, **r.trace} for cycle in traced_cycles for r in cycle if r.trace]
    with open(WORK / f"trace-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(ops, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "supercoinv" / "cli.py").is_file():
        sys.stderr.write(f"no supercoinv sources under {SRC}; run from a repository checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())
    run = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), baseline["golden_sha256"]
    )
    lines, values, attempted, failed = summarize(
        args.workload,
        args.seed,
        bool(args.trace),
        run,
        baseline["pinned_counters"].get(args.workload, {}),
    )
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
