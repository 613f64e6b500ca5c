"""Byte identity of the benchmark's operations against their golden hashes.

Each operation of ``perfbench/baseline.json["golden_sha256"]`` runs in process
through ``cli.main``; its output is canonicalized as the benchmark does
(``verify`` reports drop their ``seconds``) and hashed with SHA-256.  The
rings with two or more sets of one parity, where most components are carried
by alphabet symmetry, have their own hashes, recorded before that change.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from supercoinv import cli

BASELINE = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"

# compute --series frobenius and expand, each from its own scan
SYMMETRIC_GOLDEN = {
    "compute --n 3 --k 2 --j 2 --series frobenius": (
        "0cfbd7f4f7f444036f8f9622a07970321c40077ab56e4da1831e6805bb00d735"
    ),
    "expand --n 3 --k 2 --j 2": (
        "2795fed3c1a3b955e6170f25c2f38ccf90368febfc598eb4cb727da81c4763f4"
    ),
    "compute --n 3 --k 3 --j 0 --series frobenius": (
        "2e56a83ee1192ad63b2b0aae0b9b82baa55abef913ea543eed41df523332733b"
    ),
    "expand --n 3 --k 3 --j 0": (
        "5341464f141ef21959ace6c34c43f9ff475a1d707658560c208ed7de50fd2c16"
    ),
    "compute --n 3 --k 0 --j 3 --series frobenius": (
        "bcc54dfe35c5b46862b4aac8149365bfcac10c875c6a912abb6694ae1cbe0af2"
    ),
    "expand --n 3 --k 0 --j 3": (
        "382ca012e204b444441859cd5f89316cdcdae86da78bfe045a50a8ceef55ab3c"
    ),
    "compute --n 3 --k 3 --j 1 --series frobenius": (
        "74202c4114c0bba4ffb5e1d46c631c4639be1405ac5e3cd8fa823b69a1302eaa"
    ),
    "expand --n 3 --k 3 --j 1": (
        "4a0c5f68894c81090ef00fa81c01ca781b58b7282b80ad56299bb4fdef84b758"
    ),
    "compute --n 3 --k 1 --j 3 --series frobenius": (
        "f641da7de3d01f1acb208e8c25bb7c79a7ce852f5dc30eac76d99e661a1378b5"
    ),
    "expand --n 3 --k 1 --j 3": (
        "1dd17be791ab38c0ac8e45ccaad1f46383b5f5a87dfaeb91fecb853b342d3df1"
    ),
    "compute --n 4 --k 3 --j 0 --series frobenius": (
        "f0334cded0f4615711e4b733de25053cd7aa034deb90ed4ef719cf020b251e46"
    ),
    "expand --n 4 --k 3 --j 0": (
        "051c8db9df6e7cd7c5f04219bd4184e5edb446f973c9432463e9141db4bba7a0"
    ),
    "compute --n 4 --k 0 --j 3 --series frobenius": (
        "6dd5aefc873bb356cf42ccb2be028160e158b721e2389ea7d2e610cbf082d9a9"
    ),
    "expand --n 4 --k 0 --j 3": (
        "9aec9580ec79683826aaee5ffd617ae3c18f69f8cc579c791ef2bcde1978a229"
    ),
    "compute --n 4 --k 2 --j 2 --series frobenius": (
        "1930de5608a0a4cf4abe5937fdaa68ea3b30ab42b0fe09c6c45ec1ee1e19f224"
    ),
    "expand --n 4 --k 2 --j 2": (
        "2a297858026d66bb1bce976992a6082a9ffc3f21e86c963ced7b2daef81d263e"
    ),
}


def _canonical(argv: list, stdout: str) -> bytes:
    if argv[0] == "verify":
        reports = json.loads(stdout)
        for rec in reports:
            rec.pop("seconds")
        return json.dumps(reports, sort_keys=True).encode()
    return stdout.encode()


def _digest(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    return hashlib.sha256(_canonical(argv, out.getvalue())).hexdigest()


def test_benchmark_outputs_match_their_golden_hashes(tmp_path):
    golden = json.loads(BASELINE.read_text())["golden_sha256"]
    digests = {}
    for op in golden:
        argv = op.split()
        if argv[0] in ("compute", "expand"):
            # one directory for all: each expand reads what its compute wrote
            argv += ["--cache-dir", str(tmp_path)]
        digests[op] = _digest(argv)
    assert digests == golden


def test_symmetric_alphabet_outputs_match_their_golden_hashes():
    digests = {op: _digest(op.split()) for op in SYMMETRIC_GOLDEN}
    assert digests == SYMMETRIC_GOLDEN
