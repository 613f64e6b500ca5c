import json
import os
import subprocess
import sys

import pytest

from supercoinv.checks import (
    REGISTRY,
    CheckSession,
    default_params,
    hilb11_formula,
    run_check,
)
from supercoinv import coinvariant
from supercoinv.cli import main
from supercoinv.qcombinat import QUPoly


def test_registry_all_pass_small():
    session = CheckSession()
    for cid in sorted(REGISTRY):
        report = run_check(cid, session, default_params(cid, 2))
        assert report["status"] == "pass", (cid, report["witness"])
        assert report["seconds"] >= 0
        assert json.loads(json.dumps(report)) == report


def test_failing_report_carries_witness():
    session = CheckSession()
    # a deliberately wrong table entry produces a fail with a witness
    table = session.ring(2, 0, 2).table()
    table.entries[((2, 2), (2,))] = 1
    report = run_check("parts_le_two", session, {"n": 2})
    assert report["status"] != "pass"
    assert report["witness"]["lambda"] == [2, 2]
    # clean up the shared session table for other assertions
    del table.entries[((2, 2), (2,))]


def _bump_table(ring, key):
    def perturb(session, monkeypatch):
        session.ring(*ring).table().entries[key] += 1

    return perturb


def _bump_frobenius(ring, deg, mu):
    def perturb(session, monkeypatch):
        session.ring(*ring).frobenius().components[deg][mu] += 1

    return perturb


def _shift_hilbert(ring):
    def perturb(session, monkeypatch):
        store = session.ring(*ring)
        store._held["hilbert"] = store.hilbert() + QUPoly.one(store.k, store.j)

    return perturb


def _fail_cauchy_at(k, j, n):
    def perturb(session, monkeypatch):
        from supercoinv import checks
        from supercoinv.superschur import super_cauchy_check

        def perturbed(kk, jj, nn, degree):
            if (kk, jj, nn) == (k, j, n):
                return degree
            return super_cauchy_check(kk, jj, nn, degree)

        monkeypatch.setattr(checks, "super_cauchy_check", perturbed)

    return perturb


def _break_sagan_swanson_at(m):
    def perturb(session, monkeypatch):
        from supercoinv import checks
        from supercoinv.qcombinat import sagan_swanson_sum

        def perturbed(size):
            return QUPoly.zero(1, 0) if size == m else sagan_swanson_sum(size)

        monkeypatch.setattr(checks, "sagan_swanson_sum", perturbed)

    return perturb


# check id -> (n, one perturbed input, the witness's keys, its stage or None)
FAILING_CASES = {
    "universality": (
        2,
        _bump_table((2, 1, 0), ((), (2,))),
        {"configs", "lambda", "mu", "values"},
        None,
    ),
    "cancellation": (
        2,
        _bump_frobenius((2, 0, 0), ((), ()), (2,)),
        {"mu", "specialized", "direct"},
        None,
    ),
    "restriction": (2, _shift_hilbert((2, 0, 1)), {"killed", "hilbert"}, None),
    "parts_le_two": (
        2,
        _bump_table((2, 0, 2), ((), (2,))),
        {"lambda", "mu", "expected", "computed"},
        None,
    ),
    "sign_coeffs": (
        3,
        _bump_table((3, 1, 1), ((3,), (1, 1, 1))),
        {"stage", "lambda", "expected", "computed"},
        "table-column",
    ),
    "hilb11": (2, _shift_hilbert((2, 1, 1)), {"computed", "formula"}, None),
    "bound_closure": (
        2,
        _bump_table((2, 1, 1), ((), (2,))),
        {"stage", "lambda", "mu", "c", "d"},
        "bound",
    ),
    "n_le_kj": (2, _bump_table((2, 2, 0), ((), (2,))), {"mu", "rebuilt", "direct"}, None),
    "witnesses": (
        2,
        _bump_table((2, 0, 2), ((1,), (1, 1))),
        {"claim", "lambda", "mu", "computed"},
        None,
    ),
    "artin": (2, _shift_hilbert((2, 1, 0)), {"computed", "formula"}, None),
    "exterior": (
        2,
        _bump_frobenius((2, 0, 1), ((), (0,)), (2,)),
        {"computed", "expected degrees"},
        None,
    ),
    "haiman": (2, _shift_hilbert((2, 2, 0)), {"computed", "expected"}, None),
    "cauchy": (2, _fail_cauchy_at(1, 1, 2), {"k", "j", "n", "first_failure"}, None),
    "sagan_swanson": (2, _break_sagan_swanson_at(2), {"n", "value"}, None),
}


@pytest.mark.parametrize("check_id", sorted(REGISTRY))
def test_every_check_reports_a_perturbed_input(check_id, monkeypatch):
    n, perturb, keys, stage = FAILING_CASES[check_id]
    session = CheckSession()
    perturb(session, monkeypatch)
    report = run_check(check_id, session, default_params(check_id, n))
    assert report["status"] == "fail"
    assert set(report["witness"]) == keys
    assert report["witness"].get("stage") == stage


def test_hilb11_reports_the_alternating_sum_over_the_collapse(monkeypatch):
    from supercoinv import checks

    monkeypatch.setattr(checks, "specialize", lambda poly, assignment: QUPoly.zero(1, 1))
    monkeypatch.setattr(checks, "sagan_swanson_sum", lambda n: QUPoly.zero(1, 0))
    report = run_check("hilb11", CheckSession(), {"n": 2})
    assert report["witness"] == {"stage": "alternating-sum", "n": 2}


def test_hilb11_formula_n2():
    assert hilb11_formula(2).coeffs == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


def test_default_params_shapes():
    assert default_params("cancellation", 3) == {"n": 3, "k": 1, "j": 1, "m": 1}
    assert default_params("n_le_kj", 5)["n"] <= 3
    assert default_params("cauchy", 5) == {"n": 3, "kmax": 2, "jmax": 2, "degree": 6}


def test_bad_check_id():
    with pytest.raises(KeyError):
        run_check("nope", CheckSession(), {"n": 2})


def _run_cli(args):
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_cli_compute_text():
    code, out, _ = _run_cli(["compute", "--n", "3", "--k", "1", "--j", "0", "--format", "text"])
    assert code == 0
    assert out.strip() == "1 + 2q + 2q^2 + q^3"


def test_cli_compute_frobenius_json():
    code, out, _ = _run_cli(
        ["compute", "--n", "2", "--k", "1", "--j", "1", "--series", "frobenius"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 2 and len(data["components"]) == 3


def test_cli_expand_json_matches_families(tmp_path):
    out_file = tmp_path / "table.json"
    code, _out, _ = _run_cli(
        ["expand", "--n", "4", "--k", "0", "--j", "2", "--out", str(out_file)]
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    entries = {(tuple(e["lambda"]), tuple(e["mu"])): e["c"] for e in data["entries"]}
    assert entries[((), (4,))] == 1
    assert entries[((1, 1, 1), (1, 1, 1, 1))] == 1
    assert entries[((2,), (3, 1))] == 1
    # serialization order is the documented one
    keys = [(tuple(e["lambda"]), tuple(e["mu"])) for e in data["entries"]]
    assert keys == sorted(
        keys,
        key=lambda km: (sum(km[0]), tuple(-p for p in km[0]), sum(km[1]), tuple(-p for p in km[1])),
    )


def test_cli_verify_all_small():
    code, out, _ = _run_cli(["verify", "all", "--n", "2", "--format", "json"])
    assert code == 0
    reports = json.loads(out)
    assert sorted(r["id"] for r in reports) == sorted(REGISTRY)
    assert all(r["status"] == "pass" for r in reports)


def test_cli_verify_single_text():
    code, out, _ = _run_cli(["verify", "artin", "--n", "4", "--format", "text"])
    assert code == 0
    assert "artin: PASS" in out


def test_cli_verify_unknown_check():
    code, _out, err = _run_cli(["verify", "bogus", "--n", "2"])
    assert code == 2
    assert "unknown check" in err


def test_cli_usage_error_exit_2():
    code, _out, _err = _run_cli(["compute"])  # missing --n
    assert code == 2
    code, _out, _err = _run_cli(["frobulate"])
    assert code == 2


def test_cli_cauchy():
    code, out, _ = _run_cli(
        ["cauchy", "--n", "2", "--k", "1", "--j", "1", "--degree-bound", "4", "--format", "text"]
    )
    assert code == 0
    assert "pass" in out


CAUCHY_EXPECTED = {
    "json": {"k": 1, "j": 1, "n": 2, "degree": 3, "status": "pass", "first_failure": None},
    "csv": "k,j,n,degree,status,first_failure\r\n1,1,2,3,pass,\r\n",
    "text": "cauchy k=1 j=1 n=2: pass\n",
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cli_cauchy_formats_and_table(tmp_path, fmt):
    # cauchy prints each format, and table reprints the saved JSON exactly so
    argv = ["cauchy", "--n", "2", "--k", "1", "--j", "1", "--degree-bound", "3"]
    artifact = tmp_path / "c.json"
    code, _out, _ = _run_cli(argv + ["--out", str(artifact)])
    assert code == 0
    code, direct, _ = _run_cli(argv + ["--format", fmt])
    assert code == 0
    if fmt == "json":
        parsed = json.loads(direct)
        assert parsed == CAUCHY_EXPECTED["json"]
        assert list(parsed) == list(CAUCHY_EXPECTED["json"])
    else:
        assert direct == CAUCHY_EXPECTED[fmt]
    code, out, err = _run_cli(["table", str(artifact), "--format", fmt])
    assert code == 0, err
    assert out == direct


def test_cli_cauchy_reports_a_failure_at_degree_0(monkeypatch):
    # s_() = 2 breaks the identity at z-degree 0, which is a failure like any
    # other: the result is the degree 0, not a pass
    from supercoinv import superschur

    right = superschur.super_schur

    def wrong(lam, k, j):
        return right(lam, k, j) if lam else right(lam, k, j).scale(2)

    monkeypatch.setattr(superschur, "super_schur", wrong)
    argv = ["cauchy", "--n", "2", "--k", "1", "--j", "1", "--degree-bound", "3"]
    code, out, err = _run_cli(argv)
    assert code == 1, err
    parsed = json.loads(out)
    assert parsed["status"] == "fail" and parsed["first_failure"] == 0
    code, out, err = _run_cli(["verify", "cauchy", "--n", "2", "--format", "json"])
    assert code == 1, err
    (report,) = json.loads(out)
    assert report["status"] == "fail"
    assert report["witness"]["first_failure"] == 0


@pytest.mark.parametrize("shape,witness", [((2,), (0, 2, 1, 2)), ((2, 1), (0, 2, 2, 3))])
def test_check_cauchy_names_the_failure_the_full_sweep_names(shape, witness, monkeypatch):
    # the check compares each (k, j) once, at n, and sweeps the sizes below
    # only to name a failure: a wrong s_shape(q/u) must give the witness of
    # the sweep that compares every size
    from oracles import cauchy_full_sweep

    from supercoinv import superschur

    right = superschur.super_schur

    def wrong(lam, k, j):
        return right(lam, k, j) + (QUPoly.one(k, j) if lam == shape else QUPoly.zero(k, j))

    monkeypatch.setattr(superschur, "super_schur", wrong)
    params = default_params("cauchy", 3)
    report = run_check("cauchy", CheckSession(), params)
    assert report["witness"] == cauchy_full_sweep(**params)
    assert tuple(report["witness"].values()) == witness


@pytest.mark.parametrize("flag", ["--n", "--k", "--j"])
def test_cli_cauchy_negative_size_exit_2(flag):
    argv = ["cauchy", "--n", "2", "--k", "1", "--j", "1"]
    argv[argv.index(flag) + 1] = "-1"
    code, out, err = _run_cli(argv)
    assert code == 2
    assert out == ""
    assert f"{flag[2:]} must be a nonnegative integer" in err


def test_cli_table_renders_artifacts(tmp_path):
    table_file = tmp_path / "t.json"
    _run_cli(["expand", "--n", "2", "--k", "1", "--j", "1", "--out", str(table_file)])
    code, out, _ = _run_cli(["table", str(table_file), "--format", "text"])
    assert code == 0
    assert "lambda=[1]" in out
    code, out, _ = _run_cli(["table", str(table_file), "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "lambda,mu,c"
    frob_file = tmp_path / "f.json"
    _run_cli(
        ["compute", "--n", "2", "--k", "1", "--j", "1", "--series", "frobenius", "--out", str(frob_file)]
    )
    code, out, _ = _run_cli(["table", str(frob_file), "--format", "text"])
    assert code == 0
    assert "Frobenius series" in out


@pytest.mark.parametrize(
    "make",
    [
        ["compute", "--n", "3", "--k", "1", "--j", "1", "--series", "frobenius"],
        ["expand", "--n", "2", "--k", "1", "--j", "1"],
        ["verify", "artin", "--n", "3", "--format", "json"],
    ],
    ids=["frobenius", "coeff_table", "reports"],
)
def test_cli_table_json_reprints_artifact(tmp_path, make):
    artifact = tmp_path / "artifact.json"
    code, _out, _ = _run_cli(make + ["--out", str(artifact)])
    assert code == 0
    code, out, _ = _run_cli(["table", str(artifact), "--format", "json"])
    assert code == 0
    assert out == artifact.read_text()


@pytest.mark.parametrize("flag", ["--n", "--k", "--j"])
def test_cli_negative_size_exit_2(flag):
    argv = ["compute", "--n", "3", "--k", "1", "--j", "1"]
    argv[argv.index(flag) + 1] = "-1"
    code, out, err = _run_cli(argv)
    assert code == 2
    assert out == ""
    assert f"{flag[2:]} must be a nonnegative integer" in err


def test_cli_ceiling_resource_error():
    code, _out, err = _run_cli(
        ["compute", "--n", "4", "--k", "2", "--j", "0", "--ceiling", "10"]
    )
    assert code == 2
    assert "ceiling" in err.lower()


def test_cli_ceiling_bounds_the_quotient_border():
    # every monomial space up to degree 6 has at most 462 columns; the border
    # at degree 7 has 6 * 90.  At n = 3 with two sets of one parity, (0, 2)
    # comes before (2, 0) in scan order and its border has the same 3 * 2
    # columns, although the scan builds only (2, 0)
    cases = [
        (["--n", "6", "--k", "1", "--ceiling", "500"], "r=[7] s=[] has 540", "500"),
        (["--n", "3", "--k", "2", "--ceiling", "5"], "r=[0, 2] s=[] has 6", "5"),
        (["--n", "3", "--j", "2", "--ceiling", "5"], "r=[] s=[0, 2] has 6", "5"),
    ]
    for sizes, where, ceiling in cases:
        code, out, err = _run_cli(["compute", *sizes])
        assert (code, out) == (2, ""), sizes
        assert err == (
            f"resource ceiling exceeded: quotient border at multidegree {where} columns, "
            f"exceeding the ceiling of {ceiling}\n"
        )


def test_cli_cache_env_var(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    monkeypatch.setenv("SUPERCOINV_CACHE", str(cache))
    code, _out, _ = _run_cli(["compute", "--n", "2", "--k", "1", "--j", "1"])
    assert code == 0
    files = list(cache.rglob("*.json"))
    assert files, "env cache directory was not used"


def _reports_without_times(text):
    reports = json.loads(text)
    for rec in reports:
        rec.pop("seconds")
    return reports


def test_cli_jobs_deterministic(tmp_path):
    args = ["verify", "all", "--n", "2", "--format", "json"]
    code1, out1, _ = _run_cli(args + ["--jobs", "1"])
    assert code1 == 0
    code2, out2, _ = _run_cli(args + ["--jobs", "2"])
    assert code2 == 0
    assert _reports_without_times(out1) == _reports_without_times(out2)


_VERIFY_NEGATIVE = [
    ("cauchy", "--n"),
    ("cauchy", "--k"),
    ("cauchy", "--j"),
    ("cauchy", "--degree-bound"),
    ("artin", "--k"),
    ("artin", "--m"),
    ("artin", "--degree-bound"),
    ("cancellation", "--m"),
    ("all", "--j"),
    ("all", "--ceiling"),
]
# one check covers every subcommand: the same flags on the others
_COMMAND_NEGATIVE = [
    (["compute", "--n", "3"], "--k"),
    (["compute", "--n", "3", "--k", "1"], "--j"),
    (["expand", "--n", "3"], "--j"),
    (["cauchy", "--n", "2", "--k", "1"], "--degree-bound"),
    (["cauchy", "--n", "2"], "--j"),
    (["compute", "--n", "3", "--k", "1"], "--ceiling"),
]


@pytest.mark.parametrize(
    "argv,flag",
    [
        pytest.param(["verify", cid, "--n", "2"], flag, id=f"{cid}-{flag}")
        for cid, flag in _VERIFY_NEGATIVE
    ]
    + [
        pytest.param(argv, flag, id=f"{argv[0]}_command-{flag}")
        for argv, flag in _COMMAND_NEGATIVE
    ],
)
def test_cli_verify_negative_size_exit_2(argv, flag):
    argv = list(argv)
    if flag in argv:
        argv[argv.index(flag) + 1] = "-1"
    else:
        argv += [flag, "-1"]
    code, out, err = _run_cli(argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be a nonnegative integer, got -1\n"


def test_cli_expand_refuses_a_degree_bound():
    # an expansion reads its degrees off the series: expand takes no bound
    code, out, err = _run_cli(["expand", "--n", "3", "--k", "1", "--degree-bound", "-1"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --degree-bound -1" in err


@pytest.mark.parametrize(
    "content,detail",
    [("[1]", "TypeError"), ('{"hilbert": 3}', "'k'")],
    ids=["list_of_non_objects", "hilbert_without_sizes"],
)
def test_cli_table_refuses_malformed_artifact(tmp_path, content, detail):
    artifact = tmp_path / "bad.json"
    artifact.write_text(content)
    code, out, err = _run_cli(["table", str(artifact)])
    assert code == 2
    assert out == ""
    assert str(artifact) in err and detail in err


def test_cli_verify_refuses_n_zero():
    # the closed forms of exterior, parts_le_two and sign_coeffs hold for n >= 1
    code, out, err = _run_cli(["verify", "all", "--n", "0"])
    assert (code, out) == (2, "")
    assert err == "error: verify needs --n of at least 1, got 0\n"


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_cli_verify_jobs_below_one_exit_2(jobs):
    code, out, err = _run_cli(["verify", "artin", "--n", "2", "--jobs", jobs])
    assert code == 2
    assert out == ""
    assert "--jobs must be at least 1" in err


def test_cli_verify_ignores_flags_a_check_does_not_take():
    code, out, err = _run_cli(["verify", "artin", "--n", "3", "--k", "2", "--m", "1"])
    assert code == 0, err
    assert json.loads(out)[0]["params"] == {"n": 3}


def test_cli_jobs_deterministic_at_envelope_sizes(tmp_path):
    shared = tmp_path / "cache"
    outputs = []
    for cache_args in ([], ["--cache-dir", str(shared)]):
        # the parallel runs go first, so their workers fill the empty directory at once
        for jobs in ("3", "2", "1"):
            code, out, err = _run_cli(["verify", "all", "--jobs", jobs] + cache_args)
            assert code == 0, err
            outputs.append(_reports_without_times(out))
    assert all(reports == outputs[0] for reports in outputs)
    assert {rec["id"] for rec in outputs[0]} == set(REGISTRY)
    assert list(shared.rglob("*.json"))
    assert not list(shared.rglob("*.tmp"))


def test_cli_verify_forks_no_more_workers_than_checks(monkeypatch):
    # the parent is one of the workers, so --jobs N forks N - 1 children, and
    # a --jobs above the number of checks starts no idle ones
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    code, serial, err = _run_cli(["verify", "all", "--n", "2"])
    assert (code, forks) == (0, []), err
    for jobs, children in (("20", len(REGISTRY) - 1), ("3", 2)):
        forks.clear()
        code, pooled, err = _run_cli(["verify", "all", "--n", "2", "--jobs", jobs])
        assert code == 0, err
        assert len(forks) == children
        assert _reports_without_times(pooled) == _reports_without_times(serial)


@pytest.mark.parametrize(
    "argv", [["--m", "5"], ["--ceiling", "5"]], ids=["value-error", "ceiling-exceeded"]
)
def test_cli_verify_workers_report_the_error_a_serial_run_stops_at(argv):
    # several checks raise; every worker stops at its first, and the parent
    # prints the first in id order, the one a serial run stops at, as main does
    serial = _run_cli(["verify", "all"] + argv)
    assert serial[0] == 2 and serial[1] == "" and serial[2].count("\n") == 1
    for jobs in ("2", "3"):
        assert _run_cli(["verify", "all", "--jobs", jobs] + argv) == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_worker_stops_at_an_error_and_drains_the_queue(monkeypatch):
    # every job still queued after a failure comes later in id order, so the
    # worker takes it off the queue instead of leaving it to another worker
    from supercoinv import checks, cli

    def broken(session, n):
        raise ValueError("broken")

    monkeypatch.setattr(checks, "REGISTRY", {"broken": broken, "fine": lambda session, n: None})
    jobs = [("fine", {"n": 2}), ("broken", {"n": 2}), ("fine", {"n": 2})]
    queue = iter([0, 1, 2, 2])
    result = cli._verify_worker(queue, jobs, coinvariant.DEFAULT_CEILING, None)
    assert [rec["id"] for rec in result["reports"]] == ["fine"]
    assert result["error"] == [1, "error: broken\n"]
    assert next(queue, None) is None


def test_cli_verify_worker_that_dies_gives_exit_2(monkeypatch):
    # a child that exits without writing its result: exit 2 and a message,
    # no traceback, no hang and no child left behind
    from supercoinv import checks

    parent = os.getpid()
    child_gone, child_holds = os.pipe()

    def child_only_exit(session, n):
        if os.getpid() != parent:
            os._exit(3)
        # in the parent, wait for the child to exit, so it takes the other check
        os.close(child_holds)
        assert os.read(child_gone, 1) == b""

    stubs = {"first": child_only_exit, "second": child_only_exit}
    monkeypatch.setattr(checks, "REGISTRY", stubs)
    try:
        code, out, err = _run_cli(["verify", "all", "--n", "2", "--jobs", "2"])
    finally:
        os.close(child_gone)
    assert (code, out) == (2, "")
    assert err == "error: a verify worker ended without a result (exit status 3)\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_verify_interrupted_parent_stops_its_workers(monkeypatch):
    # an interrupt in the parent's own check kills and reaps the children,
    # here one that would block for ever, and reaches the caller as in a serial run
    from supercoinv import checks

    parent = os.getpid()
    never, held = os.pipe()

    def interrupted(session, n):
        if os.getpid() != parent:
            os.read(never, 1)  # every holder of ``held`` is alive: no EOF
        raise KeyboardInterrupt

    monkeypatch.setattr(checks, "REGISTRY", {"first": interrupted, "second": interrupted})
    try:
        with pytest.raises(KeyboardInterrupt):
            _run_cli(["verify", "all", "--n", "2", "--jobs", "2"])
    finally:
        os.close(never)
        os.close(held)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_verify_writes_every_series_it_computes(tmp_path, monkeypatch):
    # a Hilbert series served by a held Frobenius series is written too, so a
    # second run on the directory reads every series and scans none
    monkeypatch.delenv("SUPERCOINV_CACHE", raising=False)
    argv = ["verify", "cancellation", "--n", "3", "--cache-dir", str(tmp_path)]
    code, first, err = _run_cli(argv)
    assert code == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "frobenius_n3_k0_j0.json",
        "frobenius_n3_k1_j1.json",
        "hilbert_n3_k0_j0.json",
        "hilbert_n3_k1_j1.json",
    ]

    def no_scan(*args, **kwargs):
        raise AssertionError("a series was scanned instead of read")

    monkeypatch.setattr(coinvariant, "_series_scan", no_scan)
    code, second, err = _run_cli(argv)
    assert code == 0, err
    assert _reports_without_times(second) == _reports_without_times(first)


def test_cli_verify_all_scans_each_ring_once(monkeypatch):
    # a ring's Hilbert series is read off its Frobenius series when a check
    # needs both, so no ring is scanned twice (``quotient_shells`` of the
    # closure check is a scan of its own and not counted here)
    monkeypatch.delenv("SUPERCOINV_CACHE", raising=False)
    scans = []
    for name in ("_frobenius_scan", "_hilbert_scan"):

        def counted(cache, scan=getattr(coinvariant, name)):
            scans.append((cache.n, cache.k, cache.j))
            return scan(cache)

        monkeypatch.setattr(coinvariant, name, counted)
    code, _out, err = _run_cli(["verify", "all"])
    assert code == 0, err
    assert scans and len(scans) == len(set(scans)), sorted(scans)


def test_cli_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "supercoinv.cli", "verify", "sagan_swanson", "--n", "10"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_universality_mixed_vs_two_bosonic_n4():
    session = CheckSession()
    report = run_check("universality", session, {"n": 4, "configs": [(1, 1), (2, 0)]})
    assert report["status"] == "pass", report["witness"]


def test_cancellation_zero_depth_is_identity():
    session = CheckSession()
    report = run_check("cancellation", session, {"n": 3, "k": 1, "j": 1, "m": 0})
    assert report["status"] == "pass", report["witness"]


def test_cli_table_renders_reports(tmp_path):
    report_file = tmp_path / "reports.json"
    code, _out, _ = _run_cli(
        ["verify", "artin", "--n", "3", "--out", str(report_file), "--format", "json"]
    )
    assert code == 0
    code, out, _ = _run_cli(["table", str(report_file), "--format", "text"])
    assert code == 0
    assert "artin: PASS" in out


def test_bound_closure_all_operator_families():
    # two alphabets of each kind: every polarization family appears,
    # including the cross-set fermionic moves with their ordering signs
    session = CheckSession()
    report = run_check("bound_closure", session, {"n": 2, "k": 2, "j": 2})
    assert report["status"] == "pass", report["witness"]


def test_bound_closure_fails_on_a_perturbed_polarization_map(monkeypatch):
    # send x_0 to theta_1 instead of theta_0 under E_(f0,b0): the operator
    # no longer maps the degree-1 line x0 + x1 + x2 of I into I, and the
    # Leibniz rule on Q fails at the border column of x2
    from supercoinv import checks

    operators = checks._polarization_operators

    def perturbed(n, k, j):
        ops = operators(n, k, j)
        for i, op in enumerate(ops):
            if op.label(k) == [["f", 0], ["b", 0]]:
                ops[i] = op._replace(image={**op.image, op.source * n: op.target * n + 1})
        return ops

    monkeypatch.setattr(checks, "_polarization_operators", perturbed)
    report = run_check("bound_closure", CheckSession(), {"n": 3, "k": 1, "j": 1})
    assert report["status"] == "fail"
    assert report["witness"] == {
        "stage": "closure",
        "deg": {"r": [1], "s": [0]},
        "operator": [["f", 0], ["b", 0]],
    }


def test_bound_closure_reuses_the_session_components(monkeypatch):
    # the closure check builds the quotient shells up to degree n, and none
    # above it
    built = []
    koszul = coinvariant._koszul_component

    def recorded(cache, deg, below, sigmas):
        if not sigmas:  # the closure check's scan: no character work
            built.append(deg)
        return koszul(cache, deg, below, sigmas)

    monkeypatch.setattr(coinvariant, "_koszul_component", recorded)
    session = CheckSession()
    report = run_check("bound_closure", session, {"n": 3, "k": 1, "j": 1})
    assert report["status"] == "pass", report["witness"]
    assert built and max(sum(r) + sum(s) for r, s in built) == 3
    shells = coinvariant.quotient_shells(session.ring(3, 1, 1))
    assert [max(sum(r) + sum(s) for r, s in shell) for shell in shells] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "argv, ceiling, stored, where",
    [
        # (4,2,1) needs borders of up to 156 columns and a table of 217 tableaux
        (
            ["expand", "--n", "4", "--k", "2", "--j", "1"],
            "200",
            None,
            "k=2 j=1 n=4 degree 6 has 217 tableaux",
        ),
        # (3,1,1) needs borders of up to 15 columns and a table of 13 tableaux:
        # its series is stored first, so the ceiling meets the table alone
        (
            ["verify", "sign_coeffs", "--n", "3"],
            "12",
            ["--n", "3", "--k", "1", "--j", "1"],
            "k=1 j=1 n=3 degree 3 has 13 tableaux",
        ),
    ],
    ids=["expand", "verify"],
)
def test_cli_coefficient_tables_obey_the_ceiling(
    argv, ceiling, stored, where, monkeypatch, tmp_path
):
    # refused before the expansion starts
    from supercoinv import coinvariant

    monkeypatch.delenv("SUPERCOINV_CACHE", raising=False)
    if stored:
        argv = argv + ["--cache-dir", str(tmp_path)]
        code, _out, _err = _run_cli(["compute", *stored, "--series", "frobenius", *argv[-2:]])
        assert code == 0
    with monkeypatch.context() as patch:
        patch.setattr(coinvariant, "expand_super_schur", None)
        code, out, err = _run_cli(argv + ["--ceiling", ceiling])
    assert code == 2
    assert out == ""
    assert err.startswith("resource ceiling exceeded: the super Schur expansion at ")
    assert where in err
    code, _out, _err = _run_cli(argv)
    assert code == 0


def test_cli_hilbert_reads_a_stored_frobenius_series(tmp_path, monkeypatch):
    # a Hilbert request is served from the ring's stored Frobenius series,
    # byte for byte what a scan prints
    ring = ["--n", "4", "--k", "2", "--j", "1"]
    cache = ["--cache-dir", str(tmp_path)]
    code, _out, _err = _run_cli(["compute", *ring, "--series", "frobenius", *cache])
    assert code == 0
    code, fresh, _err = _run_cli(["compute", *ring, "--series", "hilbert"])
    assert code == 0

    def no_scan(*args, **kwargs):
        raise AssertionError("the Hilbert series was scanned")

    monkeypatch.setattr(coinvariant, "_series_scan", no_scan)
    code, served, _err = _run_cli(["compute", *ring, "--series", "hilbert", *cache])
    assert code == 0
    assert served == fresh


@pytest.mark.parametrize(
    "argv, where",
    [
        (
            ["cauchy", "--n", "4", "--k", "2", "--j", "2", "--degree-bound", "8"],
            "k=2 j=2 n=4 degree 8 has 6704 tableaux",
        ),
        # verify's grid is bounded by its largest call, (k, j, n) = (2, 2, 3)
        (["verify", "cauchy"], "k=2 j=2 n=3 degree 6 has 896 tableaux"),
    ],
    ids=["cauchy", "verify"],
)
def test_cli_cauchy_obeys_the_ceiling(argv, where):
    code, out, err = _run_cli(argv + ["--ceiling", "100"])
    assert code == 2
    assert out == ""
    assert err.startswith("resource ceiling exceeded: the Cauchy check at ")
    assert where in err
    code, _out, _err = _run_cli(argv)
    assert code == 0


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cli_table_renders_hilbert(tmp_path, fmt):
    # the Hilbert JSON that compute writes by default is a recognized
    # artifact: table prints it exactly as compute prints that format
    artifact = tmp_path / "h.json"
    code, _out, _ = _run_cli(["compute", "--n", "3", "--k", "1", "--out", str(artifact)])
    assert code == 0
    code, direct, _ = _run_cli(["compute", "--n", "3", "--k", "1", "--format", fmt])
    assert code == 0
    code, out, err = _run_cli(["table", str(artifact), "--format", fmt])
    assert code == 0, err
    assert out == direct


def _redigest(payload):
    # a file whose digest is recomputed after the change: only the content
    # check can tell
    del payload["sha256"]
    payload["sha256"] = coinvariant._digest(payload)


def _tamper_dim(payload):
    # a degree with one entry more than the ring has fermionic sets
    payload["components"][1]["deg"]["s"].append(0)
    _redigest(payload)


def _tamper_r(payload):
    payload["components"][1]["deg"]["r"][0] = -1
    _redigest(payload)


def _tamper_pivot_value(payload):
    mults = payload["components"][1]["mults"]
    mults[next(iter(mults))] = 0
    _redigest(payload)


def _tamper_monomial(payload):
    # an irreducible that is not a partition of n = 3
    mults = payload["components"][1]["mults"]
    mults["[2,2]"] = mults.pop(next(iter(mults)))
    _redigest(payload)


def _tamper_non_pivot_entry(payload):
    # a well-formed file whose header matches: only the content digest can tell
    mults = payload["components"][1]["mults"]
    mults[next(iter(mults))] += 1


def _tamper_ring(payload):
    payload["n"] = 4


@pytest.mark.parametrize(
    "tamper,detail",
    [
        (_tamper_dim, "is not 1 nonnegative integers"),
        (_tamper_r, "is not 1 nonnegative integers"),
        (_tamper_pivot_value, "multiplicity 0 is not a positive integer"),
        (_tamper_monomial, "[2,2] is not a partition of 3"),
        (_tamper_non_pivot_entry, "content does not match its SHA-256"),
        (_tamper_ring, "does not match the request: n is 4, expected 3"),
    ],
    ids=["dim", "r", "pivot_value", "monomial", "non_pivot_entry", "ring"],
)
def test_cli_refuses_tampered_cache_file(tmp_path, tamper, detail):
    argv = ["compute", "--n", "3", "--k", "1", "--j", "1", "--series", "frobenius"]
    argv += ["--cache-dir", str(tmp_path)]
    code, expected, _ = _run_cli(argv)
    assert code == 0
    path = tmp_path / "frobenius_n3_k1_j1.json"
    # an untouched cache reproduces the output
    assert _run_cli(argv)[:2] == (0, expected)
    payload = json.loads(path.read_text())
    tamper(payload)
    path.write_text(json.dumps(payload))
    code, out, err = _run_cli(argv)
    assert code == 2
    assert out == ""
    assert str(path) in err and detail in err
