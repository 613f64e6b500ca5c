import importlib
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
    # fails outright when one of them is gone
    result = tmp_path / "result.json"
    argv = ["compute", "--n", "3", "--k", "1", "--j", "1", "--series", "frobenius"]
    argv += ["--cache-dir", str(tmp_path / "cache")]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("SUPERCOINV_CACHE", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), "1", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text())["trace"]
    assert trace["spans"] and trace["counts"]


def test_cli_import_loads_no_heavy_module():
    # the engine runs on integers and plain classes, and hashlib and the
    # process pool are imported by the commands that use them: importing the
    # CLI must load none of these modules a bare interpreter has not
    heavy = {"fractions", "decimal", "dataclasses", "inspect", "hashlib", "concurrent.futures"}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def loaded(prelude: str) -> set:
        code = prelude + "import sys; print('\\n'.join(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return set(proc.stdout.split())

    assert heavy & (loaded("import supercoinv.cli; ") - loaded("")) == set()
