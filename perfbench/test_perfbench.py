"""Self-tests of the benchmark harness: the output gate, isolation and tracing.

    python3 -m pytest -q perfbench

They start real child interpreters on rings small enough to take seconds.
"""

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def golden_of(*ops) -> dict:
    """Golden hashes computed in this process, from the checkout's sources."""
    sys.path.insert(0, str(run.SRC))
    from supercoinv import cli

    golden = {}
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(op.argv) == 0
        golden[op.id] = hashlib.sha256(run.canonical_output(op, out.getvalue())).hexdigest()
    return golden


def test_corrupted_golden_counts_as_failure(work, monkeypatch):
    op = run.Op("expand --n 5 --j 2")
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload((op,)))
    golden = {op.id: json.loads((run.HERE / "baseline.json").read_text())["golden_sha256"][op.id]}
    corrupted = {op.id: ("0" if golden[op.id][0] != "0" else "1") + golden[op.id][1:]}
    for hashes, want_failed in ((golden, 0), (corrupted, 1)):
        cycle = run.run_cycle([op], hashes, work / "cache", False, time.monotonic() + 120)
        measured = run.Measured([], [], [(False, cycle)], [])
        _lines, _values, attempted, failed = run.summarize("tiny", 0, False, measured, {})
        assert (attempted, failed) == (1, want_failed)
    assert "output sha256" in cycle[0].error


def test_children_ignore_env_cache_and_get_a_fresh_cache_dir(work, monkeypatch):
    ops = [
        run.Op("compute --n 3 --k 1 --j 1 --series frobenius", cached=True),
        run.Op("expand --n 3 --k 1 --j 1", cached=True),
    ]
    golden = golden_of(*ops)
    # a damaged file where either directory would be read first makes an
    # operation fail if the child ever looks there
    planted = Path("ideal_n3_k1_j1") / "r0_s0.json"
    env_cache = work / "env-cache"
    cycle_cache = work / "tiny-seed7-cycle0-cache"
    for root in (env_cache, cycle_cache):
        (root / planted).parent.mkdir(parents=True)
        (root / planted).write_text("damaged")
    monkeypatch.setenv("SUPERCOINV_CACHE", str(env_cache))
    cycle = run.run_cycle(ops, golden, cycle_cache, False, time.monotonic() + 120)
    assert [r.error for r in cycle] == [None, None]
    assert not cycle_cache.exists()
    assert [p.relative_to(env_cache) for p in env_cache.rglob("*.json")] == [planted]


def test_tracer_spans_cover_every_layer_and_self_times_add_up(work):
    ops = [
        run.Op("compute --n 3 --k 1 --j 1 --series frobenius", cached=True),
        run.Op("expand --n 3 --k 1 --j 1", cached=True),
        run.Op("verify cauchy"),
    ]
    cycle = run.run_cycle(ops, golden_of(*ops), work / "cache", True, time.monotonic() + 120)
    assert [r.error for r in cycle] == [None, None, None]
    names = {span[0] for r in cycle for span in r.trace["spans"]}
    assert names == set(tracer.SPAN_NAMES)
    for r in cycle:
        spans = r.trace["spans"]
        root_start, root_end = spans[0][1], spans[0][2]
        assert spans[0][0] == "cli.main" and spans[0][3] == -1
        for _name, start, end, parent in spans[1:]:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
        # children that overlapped or outgrew their parent would show here
        own = {
            i: end - start - sum(c[2] - c[1] for c in spans if c[3] == i)
            for i, (_name, start, end, _parent) in enumerate(spans)
        }
        assert min(own.values()) >= 0
        layers = run.layer_metrics([r.trace])
        untraced = sum(t for i, t in own.items() if spans[i][0] not in run.SELF_TIMES.values())
        total = sum(layers[m] for m in run.SELF_TIMES) + untraced
        assert total == pytest.approx(root_end - root_start, abs=1e-6)
    metrics = run.layer_metrics([r.trace for r in cycle])
    for key in ("superring.mono_mul_calls", "exactla.insert_calls", "coinvariant.disk_files_read"):
        assert metrics[key] > 0


def test_end_to_end_times_are_rescaled_by_the_reference_task(monkeypatch):
    ops = (run.Op("compute --n 3 --k 1 --j 1 --series frobenius"), run.Op("expand --n 3 --j 1"))
    monkeypatch.setitem(run.WORKLOADS, "tiny", run.Workload(ops))
    cycles = [
        (False, [run.OpResult(op, 0.1, solve, 50.0, None, None) for op, solve in zip(ops, times)])
        for times in ((1.0, 2.0), (1.0, 2.0), (3.0, 4.0), (3.0, 4.0))
    ]
    # the reference task ran at twice its quiet-host time
    refs = [2 * run.REFERENCE_S] * 8
    speed = 0.5**run.HOST_ELASTICITY
    _lines, values, _attempted, _failed = run.summarize(
        "tiny", 0, False, run.Measured([0.1] * 4, refs, cycles, []), {}
    )
    assert values["solve_s"] == pytest.approx((1.0 + 2.0) * speed)
    assert values["setup_s"] == pytest.approx(0.1 * len(ops) * speed)
    assert values["peak_rss_mb"] == 50.0
