"""Byte identity of the benchmark's operations against their golden hashes.

Each operation of ``perfbench/baseline.json["golden_sha256"]`` runs in process
through ``cli.main``; its output is canonicalized as the benchmark does
(``verify`` reports drop their ``seconds``) and hashed with SHA-256.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from supercoinv import cli

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"


def _canonical(argv: list, stdout: str) -> bytes:
    if argv[0] == "verify":
        reports = json.loads(stdout)
        for rec in reports:
            rec.pop("seconds")
        return json.dumps(reports, sort_keys=True).encode()
    return stdout.encode()


def test_benchmark_outputs_match_their_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.delenv("SUPERCOINV_CACHE", raising=False)
    golden = json.loads(BASELINE.read_text())["golden_sha256"]
    digests = {}
    for op in golden:
        argv = op.split()
        if argv[0] in ("compute", "expand"):
            # one directory for all: each expand reads what its compute wrote
            argv += ["--cache-dir", str(tmp_path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, op
        digests[op] = hashlib.sha256(_canonical(argv, out.getvalue())).hexdigest()
    assert digests == golden
