"""Outside-in tracer: spans and counters around the public functions of each layer.

``install`` runs in a child interpreter before ``cli.main``.  Every wrapper is
set on the attribute its caller actually looks up: ``coinvariant`` and
``superring`` bind ``span_basis`` with ``from ... import``, ``cli`` and
``checks`` bind ``super_cauchy_check`` the same way, so patching only the
defining module would miss those calls.  Spans stay in memory and are written
out by the child when the command returns.

Hot leaf functions (``mono_mul``, ``SubspaceBasis.insert``,
``_shifted_vectors``, ``invariant_vectors``) are counted, not spanned, so
their cost stays in the self time of the span that calls them.
"""

from __future__ import annotations

import os
from collections import Counter
from fractions import Fraction
from time import perf_counter

# Every span name ``install`` can record; the self-test checks they all occur.
SPAN_NAMES = (
    "cli.main",
    "checks.run_check",
    "coinvariant.ideal_component",
    "coinvariant.quotient_character",
    "coinvariant.disk_read",
    "coinvariant.disk_write",
    "exactla.span_basis",
    "exactla.solve_columns",
    "superring.invariant_basis",
    "superring.monomial_space",
    "snchar.frobenius_decompose",
    "superschur.expand_super_schur",
    "superschur.super_cauchy_check",
    "trace.bookkeeping",
)


class Tracer:
    """Spans as ``[name, start, end, parent index]`` plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.cols: dict = {}  # (n, k, j, r, s) -> monomial-space columns
        self.quotient: dict = {}  # (n, k, j, r, s) -> quotient dimension
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def note_basis(self, basis) -> None:
        """Fill and Fraction-valued entries of a basis ``span_basis`` built."""
        nnz = fractions = 0
        # the private row table, because ``pivots`` would sort and cache the
        # pivot list here instead of in the engine's own later call
        for row in basis._rows.values():
            nnz += len(row)
            fractions += sum(1 for v in row.values() if type(v) is Fraction)
        self.counts["exactla.fill_nnz"] += nnz
        self.counts["exactla.fraction_entries"] += fractions

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["superring.monomial_cols"] = sum(self.cols.values())
        counts["superring.max_cols"] = max(self.cols.values(), default=0)
        counts["coinvariant.quotient_dim"] = sum(self.quotient.values())
        return {"spans": self.spans, "counts": counts}


def install(tr: Tracer) -> None:
    from supercoinv import checks, cli, coinvariant, exactla, snchar, superring, superschur

    counts = tr.counts

    def span_basis(site_counter):
        fn = exactla.span_basis

        def wrapper(vectors, dim, prefilter=None):
            basis = tr.call("exactla.span_basis", fn, vectors, dim, prefilter)
            if site_counter:
                counts[site_counter] += 1
            tr.call("trace.bookkeeping", tr.note_basis, basis)
            return basis

        return wrapper

    # coinvariant calls span_basis once per component it computes
    coinvariant.span_basis = span_basis("coinvariant.components")
    superring.span_basis = span_basis(None)

    ideal_component = coinvariant.ideal_component

    def ideal_component_wrapper(cache, deg):
        basis = tr.call("coinvariant.ideal_component", ideal_component, cache, deg)
        key = (cache.n, cache.k, cache.j, tuple(deg[0]), tuple(deg[1]))
        tr.quotient[key] = basis.dim - basis.rank
        return basis

    coinvariant.ideal_component = ideal_component_wrapper

    shifted_vectors = coinvariant._shifted_vectors

    def shifted_vectors_wrapper(*args):
        for vec in shifted_vectors(*args):
            counts["coinvariant.shifted_vectors"] += 1
            yield vec

    coinvariant._shifted_vectors = shifted_vectors_wrapper

    monomial_space = superring.monomial_space

    def monomial_space_wrapper(n, k, j, r, s):
        out = tr.call("superring.monomial_space", monomial_space, n, k, j, r, s)
        tr.cols[(n, k, j, tuple(r), tuple(s))] = len(out[0])
        return out

    superring.monomial_space = monomial_space_wrapper

    invariant_vectors = superring.invariant_vectors

    def invariant_vectors_wrapper(*args):
        out = invariant_vectors(*args)
        counts["superring.invariant_vectors"] += len(out[2])
        return out

    superring.invariant_vectors = invariant_vectors_wrapper

    mono_mul = superring.mono_mul

    def mono_mul_wrapper(a, b):
        counts["superring.mono_mul_calls"] += 1
        return mono_mul(a, b)

    superring.mono_mul = mono_mul_wrapper

    insert = exactla.SubspaceBasis.insert

    def insert_wrapper(self, vec):
        counts["exactla.insert_calls"] += 1
        kept = insert(self, vec)
        if kept:
            counts["exactla.insert_kept"] += 1
        return kept

    exactla.SubspaceBasis.insert = insert_wrapper

    cache_cls = coinvariant.IdealComponentCache
    load, save = cache_cls._load, cache_cls._save

    def load_wrapper(self, deg):
        basis = tr.call("coinvariant.disk_read", load, self, deg)
        counts["coinvariant.disk_loads"] += 1
        if basis is not None:
            counts["coinvariant.disk_files_read"] += 1
        return basis

    def save_wrapper(self, deg, basis):
        path = self._path(deg)
        existed = os.path.exists(path)
        tr.call("coinvariant.disk_write", save, self, deg, basis)
        if not existed:
            counts["coinvariant.disk_bytes_written"] += os.path.getsize(path)

    cache_cls._load, cache_cls._save = load_wrapper, save_wrapper

    superring.invariant_basis = tr.spanned("superring.invariant_basis", superring.invariant_basis)
    coinvariant.quotient_character = tr.spanned(
        "coinvariant.quotient_character", coinvariant.quotient_character
    )
    snchar.frobenius_decompose = tr.spanned(
        "snchar.frobenius_decompose", snchar.frobenius_decompose
    )
    expand = tr.spanned("superschur.expand_super_schur", superschur.expand_super_schur)
    coinvariant.expand_super_schur = superschur.expand_super_schur = expand
    exactla.solve_columns = tr.spanned("exactla.solve_columns", exactla.solve_columns)
    cauchy = tr.spanned("superschur.super_cauchy_check", superschur.super_cauchy_check)
    cli.super_cauchy_check = checks.super_cauchy_check = superschur.super_cauchy_check = cauchy
    checks.run_check = tr.spanned("checks.run_check", checks.run_check)
