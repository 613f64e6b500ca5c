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
from supercoinv import checks, coinvariant
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


@pytest.mark.parametrize("m, d, e", [(1, 1, 0), (2, 1, 3), (7, 3, 5), (15, 8, 0), (15, 2, 40)])
def test_sagan_swanson_fails_at_a_perturbed_stirling_coefficient(m, d, e, monkeypatch):
    # one q-Stirling coefficient +1 at size m, in the engine's integer
    # recursion and in the QUPoly oracle: the check fails first at m, with
    # the oracle's sum as its value
    import oracles

    from supercoinv import qcombinat

    engine, oracle = qcombinat._stirling, oracles.q_stirling

    def engine_perturbed(n, dd, x):
        return engine(n, dd, x) + (x**e if (n, dd) == (m, d) else 0)

    def oracle_perturbed(n, dd):
        bump = QUPoly.monomial(1, 0, (e,)) if (n, dd) == (m, d) else QUPoly.zero(1, 0)
        return oracle(n, dd) + bump

    monkeypatch.setattr(qcombinat, "_stirling", engine_perturbed)
    monkeypatch.setattr(oracles, "q_stirling", oracle_perturbed)
    want = oracles.sagan_swanson_sum(m)
    assert want != QUPoly.one(1, 0)
    report = run_check("sagan_swanson", CheckSession(), {"n": 15})
    assert report["status"] == "fail"
    assert report["witness"] == {"n": m, "value": want.pretty()}


def test_hilb11_formula_n2():
    assert hilb11_formula(2).coeffs == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


def test_default_params_shapes():
    assert default_params("cancellation", 3) == {"n": 3, "k": 1, "j": 1, "m": 1}
    assert default_params("n_le_kj", 5)["n"] <= 3
    assert default_params("cauchy", 5) == {"n": 3, "kmax": 2, "jmax": 2, "degree": 6}
    # without a size, each check runs at its registered size
    assert default_params("sagan_swanson") == {"n": 15}
    assert default_params("cauchy")["n"] == REGISTRY["cauchy"][1] == 3
    for cid in REGISTRY:
        assert default_params(cid)["n"] == REGISTRY[cid][1], cid


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


@pytest.mark.parametrize("series", ["hilbert", "frobenius"])
def test_cli_table_reprints_a_cache_file_as_compute_prints_it(tmp_path, series):
    # a cache file's format, kind and digest are the store's, not the artifact's
    argv = ["compute", "--n", "3", "--k", "1", "--series", series, "--format", "json"]
    code, printed, err = _run_cli(argv + ["--cache-dir", str(tmp_path)])
    assert code == 0, err
    cached = tmp_path / f"{series}_n3_k1_j0.json"
    assert _run_cli(["table", str(cached), "--format", "json"]) == (0, printed, "")


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


def test_cli_cache_dir_alone_decides_where_series_land(tmp_path, monkeypatch):
    # the environment names no cache: a set SUPERCOINV_CACHE is ignored
    env_cache, flag_cache = tmp_path / "env", tmp_path / "flag"
    env_cache.mkdir()
    monkeypatch.setenv("SUPERCOINV_CACHE", str(env_cache))
    argv = ["compute", "--n", "2", "--k", "1", "--j", "1"]
    code, expected, _ = _run_cli(argv)
    assert code == 0
    assert list(env_cache.iterdir()) == []
    assert _run_cli(argv + ["--cache-dir", str(flag_cache)]) == (0, expected, "")
    assert list(env_cache.iterdir()) == []
    assert [p.name for p in flag_cache.iterdir()] == ["hilbert_n2_k1_j1.json"]


def _NO_RINGS(**params):
    """The ring reads of a stub check in a stubbed ``REGISTRY``: none."""
    return []


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


def _frobenius_artifact(deg_r=(1,), shape="[2,1]", count=1):
    component = {"deg": {"r": list(deg_r), "s": []}, "mults": {shape: count}}
    return {"n": 3, "k": 1, "j": 0, "components": [component]}


def _frobenius_components(*mults):
    components = [{"deg": {"r": [1], "s": []}, "mults": m} for m in mults]
    return {"n": 3, "k": 1, "j": 0, "components": components}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "artifact,detail",
    [
        (_frobenius_artifact(deg_r=(1, 2)), "degree [1, 2] is not 1 nonnegative integers"),
        (_frobenius_artifact(shape="[5]"), "[5] is not a partition of 3"),
        (_frobenius_artifact(count=0), "multiplicity 0 is not a positive integer"),
        (_frobenius_artifact(count=-4), "multiplicity -4 is not a positive integer"),
        (
            {"n": 3, "k": 1, "j": 0, "hilbert": [{"e": [0], "c": "1"}, {"e": [1], "c": "0"}]},
            "multiplicity 0 is not a positive integer",
        ),
        (
            {"n": 3, "k": 1, "j": 0, "hilbert": [{"e": [0], "c": 2.7}]},
            "multiplicity 2.7 is not a positive integer",
        ),
        (
            _frobenius_components({"[2,1]": 1}, {"[2,1]": 2}),
            "degree r=[1] s=[] is listed twice",
        ),
        (
            # one shape under two keys that name it
            _frobenius_components({"[2,1]": 1, "[2, 1]": 2}),
            "shape [2, 1] is listed twice at r=[1] s=[]",
        ),
        (
            {"n": 3, "k": 1, "j": 0, "hilbert": [{"e": [0], "c": "1"}, {"e": [0], "c": "3"}]},
            "exponent [0] is listed twice",
        ),
        (
            {"n": 3, "k": 1, "j": 0, "hilbert": [{"e": [1.0], "c": "1"}]},
            "exponent [1.0] is not 1 nonnegative integers",
        ),
        ({"n": "x", "k": 0, "j": 0, "components": []}, "n 'x' is not a nonnegative integer"),
        ({"n": 3, "k": True, "j": 0, "components": []}, "k True is not a nonnegative integer"),
        ({"n": -3, "k": 1, "j": 0, "hilbert": []}, "n -3 is not a nonnegative integer"),
        ({"n": 3, "k": 1, "j": -1, "hilbert": []}, "j -1 is not a nonnegative integer"),
    ],
    ids=[
        "arity",
        "shape",
        "zero_count",
        "negative_count",
        "hilbert_zero_dim",
        "hilbert_float_dim",
        "degree_twice",
        "shape_twice",
        "hilbert_exponent_twice",
        "hilbert_float_exponent",
        "string_n",
        "bool_k",
        "hilbert_negative_n",
        "hilbert_negative_j",
    ],
)
def test_cli_table_refuses_what_the_store_refuses(tmp_path, artifact, detail, fmt):
    # table reads a series through the reader the store loads its files with
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(artifact))
    code, out, err = _run_cli(["table", str(path), "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed artifact {path}: ") and detail in err


def _table_artifact(source=(1, 0), **entry):
    rec = {"lambda": [1], "mu": [2, 1], "c": 1}
    rec.update((key.rstrip("_"), value) for key, value in entry.items())
    return {"n": 3, "source": list(source), "entries": [rec]}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "artifact,detail",
    [
        (_table_artifact(source=(1,)), "source [1] is not 2 nonnegative integers"),
        (_table_artifact(source=(1, -1)), "source [1, -1] is not 2 nonnegative integers"),
        (_table_artifact(lambda_=[1, 2]), "lambda [1, 2] is not a partition"),
        (_table_artifact(lambda_=[2, 0]), "lambda [2, 0] is not a partition"),
        (_table_artifact(mu=[5]), "mu [5] is not a partition of 3"),
        (_table_artifact(mu=[2, 1.0]), "mu [2, 1.0] is not a partition of 3"),
        (_table_artifact(lambda_=[5], mu=[-1], c=2.7), "mu [-1] is not a partition of 3"),
        (_table_artifact(c=2.7), "coefficient 2.7 is not a positive integer"),
        (_table_artifact(c=0), "coefficient 0 is not a positive integer"),
        (_table_artifact(c="2"), "coefficient '2' is not a positive integer"),
        (
            {"n": 3, "source": [1, 0], "entries": _table_artifact()["entries"] * 2},
            "lambda [1] mu [2, 1] is listed twice",
        ),
        ({"n": "x", "source": [1, 0], "entries": []}, "n 'x' is not a nonnegative integer"),
    ],
    ids=[
        "source_arity",
        "source_negative",
        "lambda_increasing",
        "lambda_zero_part",
        "mu_of_another_n",
        "mu_float_part",
        "lambda5_mu_negative_float_c",
        "float_c",
        "zero_c",
        "string_c",
        "entry_twice",
        "string_n",
    ],
)
def test_cli_table_refuses_a_damaged_coefficient_table(tmp_path, artifact, detail, fmt):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(artifact))
    code, out, err = _run_cli(["table", str(path), "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed artifact {path}: ") and detail in err


def _report(**fields):
    rec = {"id": "artin", "params": {"n": 3}, "status": "pass", "witness": None, "seconds": 0.5}
    rec.update(fields)
    return rec


def _cauchy_result(**fields):
    rec = {"k": 1, "j": 1, "n": 3, "degree": 6, "status": "fail", "first_failure": 2}
    rec.update(fields)
    return rec


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "artifact,detail",
    [
        ([{"status": "pass"}], "does not have exactly the fields of a report"),
        ([_report(note="x")], "does not have exactly the fields of a report"),
        ([_report(), {"status": "pass"}], "does not have exactly the fields of a report"),
        ([_report(id=5)], "report id 5 is not a string"),
        ([_report(params=[3])], "report params [3] is not an object"),
        ([_report(status="maybe")], "report status 'maybe' is neither pass nor fail"),
        ([_report(witness={"x": 1})], "report witness {'x': 1} does not fit status pass"),
        ([_report(status="fail")], "report witness None does not fit status fail"),
        ([_report(status="fail", witness=[1])], "report witness [1] does not fit status fail"),
        ([_report(seconds=-1)], "report seconds -1 is not a nonnegative number"),
        ([_report(seconds=True)], "report seconds True is not a nonnegative number"),
        ([_report(seconds="0.5")], "report seconds '0.5' is not a nonnegative number"),
        ({"first_failure": "x"}, "does not have exactly the fields of one"),
        (_cauchy_result(note="x"), "does not have exactly the fields of one"),
        (
            {"k": 1, "j": 1, "n": 3, "status": "fail", "first_failure": 2},
            "does not have exactly the fields of one",
        ),
        (_cauchy_result(k=-1), "k -1 is not a nonnegative integer"),
        (_cauchy_result(j=True), "j True is not a nonnegative integer"),
        (_cauchy_result(n="3"), "n '3' is not a nonnegative integer"),
        (_cauchy_result(degree=6.0), "degree 6.0 is not a nonnegative integer"),
        (_cauchy_result(status="maybe"), "Cauchy status 'maybe' is neither pass nor fail"),
        (_cauchy_result(status="pass"), "first_failure 2 does not fit pass at degree 6"),
        (_cauchy_result(first_failure=None), "first_failure None does not fit fail at degree 6"),
        (_cauchy_result(first_failure=7), "first_failure 7 does not fit fail at degree 6"),
        (_cauchy_result(first_failure=-1), "first_failure -1 does not fit fail at degree 6"),
        (_cauchy_result(first_failure=True), "first_failure True does not fit fail at degree 6"),
    ],
    ids=[
        "report_status_only",
        "report_extra_field",
        "second_report_status_only",
        "report_int_id",
        "report_list_params",
        "report_unknown_status",
        "report_pass_with_witness",
        "report_fail_without_witness",
        "report_list_witness",
        "report_negative_seconds",
        "report_bool_seconds",
        "report_string_seconds",
        "cauchy_failure_only",
        "cauchy_extra_field",
        "cauchy_without_degree",
        "cauchy_negative_k",
        "cauchy_bool_j",
        "cauchy_string_n",
        "cauchy_float_degree",
        "cauchy_unknown_status",
        "cauchy_pass_with_failure",
        "cauchy_fail_without_failure",
        "cauchy_failure_above_degree",
        "cauchy_negative_failure",
        "cauchy_bool_failure",
    ],
)
def test_cli_table_refuses_a_damaged_report_or_cauchy_result(tmp_path, artifact, detail, fmt):
    # every format reads a report or a Cauchy result through one reader, so
    # none prints what another refuses
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(artifact))
    code, out, err = _run_cli(["table", str(path), "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: malformed artifact {path}: ") and detail in err


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_cli_table_reprints_a_failed_cauchy_result(tmp_path, fmt):
    # the reader takes a fail with its degree, as cauchy writes one
    path = tmp_path / "c.json"
    path.write_text(json.dumps(_cauchy_result(), indent=2) + "\n")
    code, out, err = _run_cli(["table", str(path), "--format", fmt])
    assert code == 0, err
    expected = {
        "json": path.read_text(),
        "csv": "k,j,n,degree,status,first_failure\r\n1,1,3,6,fail,2\r\n",
        "text": "cauchy k=1 j=1 n=3: fail\n",
    }
    assert out == expected[fmt]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("content", ['"x"', '{"a": 1}'], ids=["string", "unknown_keys"])
def test_cli_table_refuses_an_unrecognized_shape_in_every_format(tmp_path, content, fmt):
    artifact = tmp_path / "x.json"
    artifact.write_text(content)
    code, out, err = _run_cli(["table", str(artifact), "--format", fmt])
    assert (code, out) == (2, "")
    assert err == f"unrecognized artifact shape in {artifact}\n"


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
    from supercoinv import checks, cli, forked

    def broken(session, n):
        raise ValueError("broken")

    stubs = {"broken": (broken, 2, _NO_RINGS), "fine": (lambda session, n: None, 2, _NO_RINGS)}
    monkeypatch.setattr(checks, "REGISTRY", stubs)
    jobs = [("fine", {"n": 2}), ("broken", {"n": 2}), ("fine", {"n": 2})]
    session = CheckSession()
    read, write = os.pipe()
    os.write(write, b"".join(i.to_bytes(forked._RECORD, "big") for i in [0, 1, 2, 2]))
    os.close(write)
    queue = forked._queued(read)
    try:
        done, error = forked._worker(
            queue,
            lambda i: checks.run_check(jobs[i][0], session, jobs[i][1]),
            lambda i, exc: cli._error_line(exc),
        )
        assert [rec["id"] for rec in done.values()] == ["fine"]
        assert error == (1, "error: broken\n")
        assert next(queue, None) is None
    finally:
        os.close(read)


def test_cli_verify_check_that_raises_gives_exit_2_at_every_worker_count(monkeypatch):
    # an unexpected exception is reported as the first raising check in id
    # order, exit 2 and one line, whether the run is serial or forked
    from supercoinv import checks

    def raising(session, n):
        raise RuntimeError("non-integral trace")

    fine = (lambda session, n: None, 2, _NO_RINGS)
    stubs = {"a": fine, "b": (raising, 2, _NO_RINGS), "c": (raising, 2, _NO_RINGS), "d": fine}
    monkeypatch.setattr(checks, "REGISTRY", stubs)
    serial = _run_cli(["verify", "all", "--n", "2"])
    assert serial == (2, "", "error: check b raised RuntimeError('non-integral trace')\n")
    for jobs in ("2", "3"):
        assert _run_cli(["verify", "all", "--n", "2", "--jobs", jobs]) == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    stubs = {"first": (child_only_exit, 2, _NO_RINGS), "second": (child_only_exit, 2, _NO_RINGS)}
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

    stubs = {"first": (interrupted, 2, _NO_RINGS), "second": (interrupted, 2, _NO_RINGS)}
    monkeypatch.setattr(checks, "REGISTRY", stubs)
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
    scans = []
    for name in ("_frobenius_scan", "_hilbert_scan"):

        def counted(cache, scan=getattr(coinvariant, name)):
            scans.append((cache.n, cache.k, cache.j))
            return scan(cache)

        monkeypatch.setattr(coinvariant, name, counted)
    code, _out, err = _run_cli(["verify", "all"])
    assert code == 0, err
    assert scans and len(scans) == len(set(scans)), sorted(scans)


def test_cli_verify_jobs_scans_no_ring_in_two_processes(tmp_path, monkeypatch):
    # the rings several checks read are built before the fork, so with two
    # workers each (ring, kind) is still scanned by one process, and the same
    # ones as in a serial run
    log = tmp_path / "scans"
    for kind in ("frobenius", "hilbert"):

        def logged(cache, scan=getattr(coinvariant, f"_{kind}_scan"), kind=kind):
            line = f"{os.getpid()} {cache.n} {cache.k} {cache.j} {kind}\n"
            with open(log, "a") as fh:
                fh.write(line)
            return scan(cache)

        monkeypatch.setattr(coinvariant, f"_{kind}_scan", logged)
    scanned = {}
    for jobs in ("2", "1"):
        log.write_text("")
        code, _out, err = _run_cli(["verify", "all", "--jobs", jobs])
        assert code == 0, err
        lines = [line.split(" ", 1) for line in log.read_text().splitlines()]
        scans = [scan for _pid, scan in lines]
        assert len(scans) == len(set(scans)), sorted(lines)
        scanned[jobs] = sorted(scans)
        # the rings that several checks read are scanned by the parent
        shared = {f"4 {k} {j} frobenius" for k, j in [(0, 1), (0, 2), (1, 0), (1, 1)]}
        assert {scan for pid, scan in lines if pid == str(os.getpid())} >= shared
    assert scanned["2"] == scanned["1"]


def _strongest(kinds) -> str:
    order = ["hilbert", "frobenius", "table"]
    return max(kinds, key=order.index)


@pytest.mark.parametrize("size", ["registered", 5])
@pytest.mark.parametrize("check_id", sorted(REGISTRY))
def test_registry_names_the_rings_each_check_reads(check_id, size, monkeypatch):
    # each store method a check calls is recorded, on a fresh session, and
    # the most it calls of each ring is what its registry entry declares
    calls = []

    class Recording(coinvariant.IdealComponentCache):
        def hilbert(self):
            calls.append(((self.n, self.k, self.j), "hilbert"))
            return super().hilbert()

        def frobenius(self):
            calls.append(((self.n, self.k, self.j), "frobenius"))
            return super().frobenius()

        def table(self):
            calls.append(((self.n, self.k, self.j), "table"))
            return super().table()

    monkeypatch.setattr(checks, "IdealComponentCache", Recording)
    params = default_params(check_id, None if size == "registered" else size)
    report = run_check(check_id, CheckSession(), params)
    assert report["status"] == "pass", report
    read = {ring: _strongest(k for r, k in calls if r == ring) for ring, _kind in calls}
    assert checks.ring_reads(check_id, params) == read


def test_shared_ring_that_raises_is_left_for_its_first_check():
    # the prebuild swallows the error and holds nothing, and the first check
    # that reads the ring raises what it raises on a fresh session
    ids = ["hilb11", "sign_coeffs"]
    jobs = [(cid, default_params(cid)) for cid in ids]
    assert all((4, 1, 1) in checks.ring_reads(cid, params) for cid, params in jobs)
    session = CheckSession(ceiling=5)
    session.build_shared(jobs)
    assert session.ring(4, 1, 1)._held == {}
    for cid, params in jobs:
        with pytest.raises(coinvariant.CeilingExceeded) as built:
            run_check(cid, session, params)
        with pytest.raises(coinvariant.CeilingExceeded) as fresh:
            run_check(cid, CheckSession(ceiling=5), params)
        assert str(built.value) == str(fresh.value)


def test_shared_rings_are_built_once_to_the_most_any_check_reads():
    jobs = [(cid, default_params(cid)) for cid in sorted(REGISTRY)]
    session = CheckSession()
    session.build_shared(jobs)
    held = {ring: sorted(store._held) for ring, store in session._rings.items()}
    shared = [(4, 0, 1), (4, 0, 2), (4, 1, 0), (4, 1, 1)]
    assert held == {ring: ["frobenius", "table"] for ring in shared}
    session = CheckSession()
    session.build_shared([jobs[0]])  # one check shares nothing
    assert session._rings == {}


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

    def recorded(cache, deg, below, plan):
        if plan is None:  # the closure check's scan: no character work
            built.append(deg)
        return koszul(cache, deg, below, plan)

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


def test_cli_cauchy_counts_its_comparisons(monkeypatch):
    # two tableaux, but 241 502 partitions of 0..60 with at most 6 parts, one
    # left-side product each: refused before any product is built
    from supercoinv import cli

    monkeypatch.setattr(cli, "super_cauchy_check", None)
    code, out, err = _run_cli(["cauchy", "--n", "6", "--k", "0", "--j", "0", "--degree-bound", "60"])
    assert (code, out) == (2, "")
    assert err == (
        "resource ceiling exceeded: the Cauchy check at k=0 j=0 n=6 degree 60 has 241502"
        " z^mu comparisons, exceeding the ceiling of 50000\n"
    )


def test_cauchy_guard_counts_comparisons_before_it_enumerates_shapes(monkeypatch):
    # 752 627 751 partitions of 0..3000 with at most 3 parts: refused from
    # their count, before the tableau bound enumerates a single shape
    def no_shapes(*args):
        raise AssertionError("the tableau bound was computed")

    monkeypatch.setattr(checks, "cauchy_tableau_bound", no_shapes)
    with pytest.raises(coinvariant.CeilingExceeded, match="has 752627751 z\\^mu comparisons"):
        checks.cauchy_ceiling_guard(1, 1, 3, 3000, 50000)
    argv = ["cauchy", "--n", "3", "--k", "1", "--j", "1", "--degree-bound", "3000"]
    code, out, err = _run_cli(argv)
    assert (code, out) == (2, "")
    assert "752627751 z^mu comparisons" in err


def test_cli_cauchy_guard_refuses_a_huge_degree_at_once():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(checks.__file__))}
    argv = ["cauchy", "--n", "3", "--k", "1", "--j", "1", "--degree-bound", "3000"]
    code = "import sys; from supercoinv.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "resource ceiling exceeded: the Cauchy check at k=1 j=1 n=3 degree 3000 has 752627751"
        " z^mu comparisons, exceeding the ceiling of 50000\n"
    )


def test_cli_cauchy_names_the_comparisons_when_both_counts_exceed_the_ceiling():
    # 53 comparisons and 6 704 tableaux, both above 50
    argv = ["cauchy", "--n", "4", "--k", "2", "--j", "2", "--degree-bound", "8", "--ceiling", "50"]
    code, out, err = _run_cli(argv)
    assert (code, out) == (2, "")
    assert err == (
        "resource ceiling exceeded: the Cauchy check at k=2 j=2 n=4 degree 8 has 53"
        " z^mu comparisons, exceeding the ceiling of 50\n"
    )


def test_cli_cauchy_takes_no_cache_dir():
    # it reads and writes no series
    code, out, _err = _run_cli(["cauchy", "--n", "2", "--cache-dir", "unused"])
    assert (code, out) == (2, "")


def test_cli_frobenius_refuses_a_character_table_over_the_ceiling():
    # p(30)^2 = 31 404 816 character values: refused before any is computed,
    # in a child whose address space is capped at 512 MB
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)); "
        "from supercoinv.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(coinvariant.__file__))}
    argv = ["compute", "--n", "30", "--k", "0", "--j", "0", "--series", "frobenius"]
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "resource ceiling exceeded: the character table of S_30 has 31404816 character"
        " values, exceeding the ceiling of 50000\n"
    )


def test_cli_stored_frobenius_series_loads_over_the_character_ceiling(tmp_path):
    # (4,1,0) has borders of at most 24 columns and p(4)^2 = 25 character values
    argv = ["compute", "--n", "4", "--k", "1", "--series", "frobenius", "--ceiling", "24"]
    code, out, err = _run_cli(argv)
    assert (code, out) == (2, "")
    assert "the character table of S_4 has 25 character values" in err
    cache = ["--cache-dir", str(tmp_path)]
    code, stored, _err = _run_cli(argv[:-2] + cache)
    assert code == 0
    assert _run_cli(argv + cache) == (0, stored, "")


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
    payload["sha256"] = coinvariant._digest(json.dumps(payload))


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
