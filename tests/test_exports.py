import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import supercoinv

ROOT = Path(__file__).resolve().parent.parent

MODULES = ["supercoinv"] + [
    f"supercoinv.{info.name}" for info in pkgutil.iter_modules(supercoinv.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    # a name left in __all__ after its definition is deleted breaks
    # ``from module import *`` and misleads readers of the public API
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    # the benchmark's tracer patches engine functions by name; a traced run
    # fails outright when one of them is gone, and a wrapper set where no
    # caller looks records no span
    commands = [
        (
            ["compute", "--n", "3", "--k", "1", "--j", "1", "--series", "frobenius"]
            + ["--cache-dir", str(tmp_path / "cache")],
            None,
        ),
        (["verify", "hilb11", "--n", "3"], "checks.run_check"),
        (
            ["cauchy", "--n", "2", "--k", "1", "--j", "1", "--degree-bound", "3"],
            "superschur.super_cauchy_check",
        ),
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for i, (argv, span) in enumerate(commands):
        result = tmp_path / f"result{i}.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), "1", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        trace = json.loads(result.read_text())["trace"]
        assert trace["spans"] and trace["counts"], argv
        if span is not None:
            assert span in {rec[0] for rec in trace["spans"]}, argv


def test_cli_import_loads_no_heavy_module():
    # the engine runs on integers and plain classes, cache digests use the
    # interpreter's own SHA-256, and signal is imported only by an interrupted
    # forked run: importing the CLI must load none of these modules a bare
    # interpreter has not
    heavy = {
        "fractions",
        "decimal",
        "dataclasses",
        "inspect",
        "hashlib",
        "concurrent.futures",
        "signal",
    }
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def loaded(prelude: str) -> set:
        code = prelude + "import sys; print('\\n'.join(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    assert heavy & (loaded("import supercoinv.cli; ") - loaded("")) == set()


def test_verify_jobs_loads_no_process_pool(tmp_path):
    # ``verify --jobs`` forks its workers and talks to them through pipes:
    # a parallel run must not import a process pool or pickle
    out = tmp_path / "reports.json"
    code = (
        "import sys; from supercoinv.cli import main; "
        f"rc = main(['verify', 'all', '--n', '2', '--jobs', '2', '--out', {str(out)!r}]); "
        "print('\\n'.join(sys.modules)); sys.exit(rc)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert all(rec["status"] == "pass" for rec in json.loads(out.read_text()))
    loaded = set(proc.stdout.split())
    assert "supercoinv.checks" in loaded
    assert {"concurrent.futures", "multiprocessing", "pickle"} & loaded == set()


@pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="the interpreter has no built-in SHA-256 constructor",
)
def test_cached_commands_load_no_openssl_hashes(tmp_path):
    # a cold compute hashes the file it writes, a warm expand the file it
    # reads: neither loads hashlib, whose import loads OpenSSL
    cache = tmp_path / "cache"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv in (
        ["compute", "--n", "3", "--k", "1", "--j", "1", "--series", "frobenius"],
        ["expand", "--n", "3", "--k", "1", "--j", "1"],
    ):
        argv += ["--cache-dir", str(cache), "--out", str(tmp_path / "out")]
        code = (
            "import sys; from supercoinv.cli import main; "
            f"rc = main({argv!r}); print('\\n'.join(sys.modules)); sys.exit(rc)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert {"hashlib", "_hashlib"} & set(proc.stdout.split()) == set(), argv
        assert [p.name for p in cache.iterdir()] == ["frobenius_n3_k1_j1.json"]
