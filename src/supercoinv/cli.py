"""Batch command-line interface.

Subcommands: ``compute`` (Hilbert/Frobenius series), ``expand`` (coefficient
table), ``verify`` (run named checks or all of them), ``cauchy`` (truncated
Cauchy identity), ``table`` (render a saved JSON artifact).  Exit codes:
0 all good, 1 at least one check failed, 2 usage or resource errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import checks, coinvariant
from .coinvariant import CeilingExceeded, CoeffTable, FrobeniusSeries
from .qcombinat import partition_sort_key
from .superschur import super_cauchy_check


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supercoinv",
        description="Exact multigraded series engine for diagonal coinvariant quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_n=True, cached=True):
        p.add_argument("--n", type=int, required=need_n, help="number of positions")
        p.add_argument("--k", type=int, default=None, help="bosonic alphabet size")
        p.add_argument("--j", type=int, default=None, help="fermionic alphabet size")
        if cached:
            p.add_argument("--cache-dir", default=None, help="series cache directory")
        p.add_argument(
            "--ceiling",
            type=int,
            default=coinvariant.DEFAULT_CEILING,
            help=(
                "max columns per multidegree of its quotient border (sum over variables v"
                " of dim Q at deg - e_v); for Frobenius series, max values p(n)^2 of the"
                " S_n character table; for coefficient tables and the Cauchy check, max"
                " tableaux of the Schur polynomials they may build, and for the Cauchy"
                " check, max z^mu comparisons; all counted exactly"
            ),
        )
        p.add_argument("--format", choices=["json", "csv", "text"], default="json")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    p = sub.add_parser("compute", help="emit Hilbert or Frobenius series")
    add_common(p)
    p.add_argument("--series", choices=["hilbert", "frobenius"], default="hilbert")

    p = sub.add_parser("expand", help="emit the coefficient table of a ring")
    add_common(p)

    p = sub.add_parser("verify", help="run verification checks")
    add_common(p, need_n=False)
    p.add_argument("check", nargs="?", default="all", help="check id or 'all'")
    p.add_argument("--m", type=int, default=None, help="cancellation depth")
    p.add_argument("--degree-bound", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("cauchy", help="run the truncated Cauchy comparison")
    add_common(p, cached=False)
    p.add_argument("--degree-bound", type=int, default=6)

    p = sub.add_parser("table", help="render a saved JSON artifact")
    p.add_argument("input", help="path to a JSON artifact")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--out", default=None)
    return parser


def _emit(text: str, args) -> None:
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _frobenius_text(series: FrobeniusSeries) -> str:
    lines = [f"Frobenius series: n={series.n} k={series.k} j={series.j}"]
    for deg in series.sorted_degrees():
        mults = series.components[deg]
        terms = " ".join(f"{list(mu)}:{mults[mu]}" for mu in sorted(mults, key=partition_sort_key))
        lines.append(f"  r={list(deg[0])} s={list(deg[1])}  {terms}")
    return "\n".join(lines)


def _coeff_table_text(table: CoeffTable) -> str:
    lines = [f"coefficients: n={table.n} source=(k={table.source[0]}, j={table.source[1]})"]
    for (lam, mu), c in table.sorted_entries():
        lines.append(f"  lambda={list(lam)} mu={list(mu)} c={c}")
    return "\n".join(lines)


def _csv_rows(rows, header) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _coeff_table_csv(table: CoeffTable) -> str:
    rows = [
        [json.dumps(list(lam)), json.dumps(list(mu)), c] for (lam, mu), c in table.sorted_entries()
    ]
    return _csv_rows(rows, ["lambda", "mu", "c"])


def _frobenius_csv(series: FrobeniusSeries) -> str:
    rows = []
    for deg in series.sorted_degrees():
        for mu, c in sorted(series.components[deg].items()):
            rows.append([json.dumps(list(deg[0])), json.dumps(list(deg[1])), json.dumps(list(mu)), c])
    return _csv_rows(rows, ["r", "s", "mu", "mult"])


def _hilbert_text(artifact) -> str:
    return artifact["hilbert"].pretty()


def _hilbert_csv(artifact) -> str:
    rows = [[json.dumps(list(e)), c] for e, c in sorted(artifact["hilbert"].coeffs.items())]
    return _csv_rows(rows, ["exponents", "dim"])


def _hilbert_json(artifact) -> str:
    return json.dumps({**artifact, "hilbert": artifact["hilbert"].to_json()}, indent=2)


def _reports_text(reports) -> str:
    lines = []
    for rec in reports:
        line = f"{rec['id']}: {rec['status'].upper()} ({rec['seconds']:.2f}s)"
        if rec["status"] != "pass":
            line += f"  witness={json.dumps(rec['witness'], sort_keys=True)}"
        lines.append(line)
    return "\n".join(lines)


def _reports_csv(reports) -> str:
    rows = [
        [rec["id"], rec["status"], rec["seconds"], json.dumps(rec["witness"], sort_keys=True)]
        for rec in reports
    ]
    return _csv_rows(rows, ["id", "status", "seconds", "witness"])


def _reports_json(reports) -> str:
    return json.dumps(reports, indent=2, sort_keys=True)


def _artifact_json(artifact) -> str:
    return json.dumps(artifact.to_json(), indent=2)


# renderers by --format, one set per artifact shape; ``table --format json``
# uses the same ones, so it reprints an artifact as the command that made it
_REPORTS = {"json": _reports_json, "csv": _reports_csv, "text": _reports_text}
_FROBENIUS = {"json": _artifact_json, "csv": _frobenius_csv, "text": _frobenius_text}
# the Hilbert artifact is {"n", "k", "j", "hilbert": QUPoly}
_HILBERT = {"json": _hilbert_json, "csv": _hilbert_csv, "text": _hilbert_text}
_COEFF_TABLE = {"json": _artifact_json, "csv": _coeff_table_csv, "text": _coeff_table_text}
# the cauchy artifact is {"k", "j", "n", "degree", "status", "first_failure"}
_CAUCHY = {
    "json": lambda r: json.dumps(r, indent=2),
    "csv": lambda r: _csv_rows([list(r.values())], list(r)),
    "text": lambda r: f"cauchy k={r['k']} j={r['j']} n={r['n']}: {r['status']}",
}


def _error_line(exc: BaseException) -> str | None:
    """The stderr line ``main`` reports an error with, exit code 2; None for any other."""
    if isinstance(exc, CeilingExceeded):
        return f"resource ceiling exceeded: {exc}\n"
    if isinstance(exc, (OSError, ValueError, KeyError)):
        return f"error: {exc}\n"
    return None


def _run_verify(args) -> int:
    if args.jobs < 1:
        sys.stderr.write(f"error: --jobs must be at least 1, got {args.jobs}\n")
        return 2
    if args.n == 0:
        # the closed forms the checks compare with hold for n >= 1 only
        sys.stderr.write("error: verify needs --n of at least 1, got 0\n")
        return 2
    if args.check == "all":
        ids = sorted(checks.REGISTRY)
    elif args.check in checks.REGISTRY:
        ids = [args.check]
    else:
        sys.stderr.write(f"unknown check id: {args.check}\n")
        return 2
    flags = {"k": args.k, "j": args.j, "m": args.m, "degree_bound": args.degree_bound}
    jobs = [(cid, checks.default_params(cid, args.n, **flags)) for cid in ids]
    from . import forked  # only verify runs tasks in workers

    session = checks.CheckSession(ceiling=args.ceiling, cache_dir=args.cache_dir)
    # before the fork, so no two workers scan one ring
    session.build_shared(jobs)

    def describe(i, exc) -> str:
        if i < 0:
            return f"error: a verify worker ended without a result ({exc})\n"
        return _error_line(exc) or f"error: check {jobs[i][0]} raised {exc!r}\n"

    # no more workers than checks; the reports come in job (id) order
    workers = min(args.jobs, len(jobs)) if hasattr(os, "fork") else 1
    reports, error = forked.run(
        len(jobs), workers, lambda i: checks.run_check(jobs[i][0], session, jobs[i][1]), describe
    )
    if error is not None:
        sys.stderr.write(error)
        return 2
    _emit(_REPORTS[args.format](reports), args)
    return 0 if all(rec["status"] == "pass" for rec in reports) else 1


def _store(args) -> coinvariant.IdealComponentCache:
    """The store of the ring the arguments name."""
    n, k, j = args.n, args.k or 0, args.j or 0
    return coinvariant.IdealComponentCache(n, k, j, args.ceiling, args.cache_dir)


def _run_compute(args) -> int:
    store = _store(args)
    if args.series == "hilbert":
        artifact = {"n": store.n, "k": store.k, "j": store.j, "hilbert": store.hilbert()}
        _emit(_HILBERT[args.format](artifact), args)
    else:
        _emit(_FROBENIUS[args.format](store.frobenius()), args)
    return 0


def _run_expand(args) -> int:
    _emit(_COEFF_TABLE[args.format](_store(args).table()), args)
    return 0


def _run_cauchy(args) -> int:
    checks.cauchy_ceiling_guard(args.k or 0, args.j or 0, args.n, args.degree_bound, args.ceiling)
    failure = super_cauchy_check(args.k or 0, args.j or 0, args.n, args.degree_bound)
    payload = {
        "k": args.k or 0,
        "j": args.j or 0,
        "n": args.n,
        "degree": args.degree_bound,
        "status": "pass" if failure is None else "fail",
        "first_failure": failure,
    }
    _emit(_CAUCHY[args.format](payload), args)
    return 0 if failure is None else 1


def _read_cauchy(data: dict) -> dict:
    """A saved Cauchy result, once each of its fields is checked as ``_run_cauchy`` writes it."""
    if sorted(data) != ["degree", "first_failure", "j", "k", "n", "status"]:
        raise ValueError(f"Cauchy result {data!r} does not have exactly the fields of one")
    degree = coinvariant._check_sizes(data, "k", "j", "n", "degree")[-1]
    status, failure = data["status"], data["first_failure"]
    if status not in ("pass", "fail"):
        raise ValueError(f"Cauchy status {status!r} is neither pass nor fail")
    failed_at = type(failure) is int and 0 <= failure <= degree
    if not (failure is None if status == "pass" else failed_at):
        raise ValueError(f"first_failure {failure!r} does not fit {status} at degree {degree}")
    return data


def _run_table(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        try:
            text = _render_artifact(json.load(fh), args.format)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed artifact {args.input}: {exc!r}") from exc
    if text is None:
        sys.stderr.write(f"unrecognized artifact shape in {args.input}\n")
        return 2
    _emit(text, args)
    return 0


def _render_artifact(data, fmt: str) -> str | None:
    """The artifact rendered as ``fmt``, or None for an unrecognized shape."""
    if isinstance(data, list) and data and "status" in data[0]:
        return _REPORTS[fmt]([checks.read_report(rec) for rec in data])
    if isinstance(data, dict) and "components" in data:
        return _FROBENIUS[fmt](FrobeniusSeries.from_json(data))
    if isinstance(data, dict) and "entries" in data:
        return _COEFF_TABLE[fmt](CoeffTable.from_json(data))
    if isinstance(data, dict) and "hilbert" in data:
        hilbert = coinvariant.hilbert_from_json(data)
        return _HILBERT[fmt]({"n": data["n"], "k": data["k"], "j": data["j"], "hilbert": hilbert})
    if isinstance(data, dict) and "first_failure" in data:
        return _CAUCHY[fmt](_read_cauchy(data))
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    for flag in ("n", "k", "j", "m", "degree_bound", "ceiling"):
        value = getattr(args, flag, None)
        if value is not None and value < 0:
            name = flag.replace("_", "-")
            sys.stderr.write(f"error: --{name} must be a nonnegative integer, got {value}\n")
            return 2
    run = {
        "compute": _run_compute,
        "expand": _run_expand,
        "verify": _run_verify,
        "cauchy": _run_cauchy,
        "table": _run_table,
    }[args.command]
    try:
        return run(args)
    except (CeilingExceeded, OSError, ValueError, KeyError) as exc:
        sys.stderr.write(_error_line(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
