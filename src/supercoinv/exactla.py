"""Exact sparse linear algebra over the rationals, computed in integers.

Vectors are plain dicts {coordinate: value} with no stored zeros.  Callers
may pass int or Fraction values; the engine's own callers pass integers,
and the module never imports ``fractions``.
Bases are held in reduced echelon form, each row stored as the primitive
integer multiple of its reduced-echelon row over Q: a positive pivot value d
at its own pivot, value 0 at every other pivot, and entries with gcd 1.
Elimination never leaves the integers for integer input; a value is divided
by d only where it is read as a rational number, so the coefficient of a row
in a vector of the span is still that vector's pivot entry over d.  The
reduced echelon basis of a subspace and its primitive integer rows are
unique, which makes all results independent of insertion order.
"""

from __future__ import annotations

from math import gcd, lcm

__all__ = [
    "SubspaceBasis",
    "span_basis",
]


class SubspaceBasis:
    """Reduced-echelon basis of a subspace of Q^dim, held in integers.

    Rows are stored keyed by pivot coordinate.  Each stored row is the
    primitive integer multiple of its reduced-echelon row over Q: a positive
    pivot value d at its own pivot, 0 at every other pivot, entries with gcd
    1.  That multiple is unique, so the stored rows are canonical too.
    Elimination is fraction-free (Bareiss-style): a hit pivot with
    coefficient c is cleared as ``w <- (d/g) w - (c/g) row`` with
    ``g = gcd(c, d)``, and a value is divided by d only where it is read as a
    rational number.  The pivot values other than 1 are also kept in
    ``_den`` (pivot -> d); it stays empty while every reduced-echelon row is
    integral, and then elimination never looks a pivot value up.  An
    occurrence index (coordinate -> set of pivots whose row touches it) makes
    back-substitution linear in the rows actually affected instead of
    scanning the whole basis.  Treat instances as frozen once built:
    ``insert`` is for construction only.
    """

    __slots__ = ("dim", "_rows", "_den", "_occ", "_sorted")

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict] = {}
        self._den: dict[int, int] = {}
        self._occ: dict[int, set] = {}
        self._sorted: list[int] | None = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        if self._sorted is None:
            self._sorted = sorted(self._rows)
        return self._sorted

    def row(self, pivot: int) -> dict:
        return self._rows[pivot]

    def scaled_residual(self, vec: dict):
        """(w, scale): scale * (residual of vec), scale a positive integer.

        For integer input w is an integer vector, so a caller that keeps the
        pair never leaves the integers.

        Eliminating a pivot only introduces non-pivot coordinates (reduced
        echelon form), so one pass over the pivots in the initial support
        suffices, in any order.
        """
        w = dict(vec)
        rows = self._rows
        den = self._den
        scale = 1
        for p in w.keys() & rows.keys():
            c = w.pop(p, 0)
            if not c:
                continue
            if den and p in den:
                d = den[p]
                if type(c) is int:
                    g = gcd(c, d)
                    d //= g
                    c //= g
                if d != 1:
                    scale *= d
                    w = {i: d * v for i, v in w.items()}
            for i, v in rows[p].items():
                if i == p:
                    continue
                nv = w.get(i, 0) - c * v
                if nv:
                    w[i] = nv
                else:
                    del w[i]
        return w, scale

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; returns False when vec was already contained."""
        w, _scale = self.scaled_residual(vec)
        if not w:
            return False
        p = min(w)
        w = _primitive(w, p)
        d = w.pop(p)
        rows = self._rows
        den = self._den
        occ = self._occ
        # keep reduced form: clear the new pivot from the rows that carry it
        for q in occ.pop(p, ()):
            other = rows[q]
            cv = other.pop(p)
            if d != 1:
                g = gcd(cv, d)
                cv //= g
                a = d // g
                if a != 1:
                    for i in other:
                        other[i] *= a
            for i, v in w.items():
                nv = other.get(i, 0) - cv * v
                if nv:
                    if i not in other:
                        occ.setdefault(i, set()).add(q)
                    other[i] = nv
                else:
                    other.pop(i, None)
                    occ[i].discard(q)
            dq = other[q]
            if dq != 1:
                g = gcd(*other.values())
                if g != 1:
                    for i in other:
                        other[i] //= g
                    dq //= g
                if dq != 1:
                    den[q] = dq
                else:
                    den.pop(q, None)
        w[p] = d
        rows[p] = w
        if d != 1:
            den[p] = d
        for i in w:
            if i != p:
                occ.setdefault(i, set()).add(p)
        self._sorted = None
        return True


def _primitive(row: dict, pivot: int) -> dict:
    """The primitive integer multiple of row with a positive value at pivot."""
    try:
        g = gcd(*row.values())
    except TypeError:  # Fraction entries: clear the denominators once
        den = lcm(*(v.denominator for v in row.values()))
        row = {i: int(v * den) for i, v in row.items()}
        g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g == 1:
        return row
    return {i: v // g for i, v in row.items()}


def span_basis(vectors, dim: int, _unused=None) -> SubspaceBasis:
    """Reduced-echelon basis of the span of the given sparse vectors.

    The basis is unique, so the order of the vectors does not matter.
    """
    # _unused: perfbench/tracer.py still passes a third positional argument
    basis = SubspaceBasis(dim)
    for vec in vectors:
        basis.insert(vec)
    return basis


# A name the benchmark's tracer (perfbench/tracer.py) still looks up.  No
# code path reaches it since super Schur expansions are read off leading
# monomials; the linear solve is a test oracle.
solve_columns = None
