"""Exact sparse linear algebra over the rationals, computed in integers.

Vectors are plain dicts {coordinate: int} with no stored zeros; a caller
with rational vectors clears their denominators first, so elimination never
leaves the integers.
Bases are held in reduced echelon form, each row stored as the primitive
integer multiple of its reduced-echelon row over Q: a positive pivot value d
at its own pivot, value 0 at every other pivot, and entries with gcd 1.
A value is divided by d only where it is read as a rational number, so the
coefficient of a row in a vector of the span is still that vector's pivot
entry over d.  The reduced echelon basis of a subspace and its primitive
integer rows are unique, which makes all results independent of insertion
order.
"""

from __future__ import annotations

from math import gcd

__all__ = ["SubspaceBasis"]


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

    __slots__ = ("dim", "_rows", "_den", "_occ")

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict] = {}
        self._den: dict[int, int] = {}
        self._occ: dict[int, set] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> list[int]:
        return sorted(self._rows)

    def row(self, pivot: int) -> dict:
        return self._rows[pivot]

    def scaled_residual(self, vec: dict):
        """(w, scale): scale * (residual of vec), w an integer vector, scale a positive integer.

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
        return True


def _primitive(row: dict, pivot: int) -> dict:
    """The primitive integer multiple of row with a positive value at pivot."""
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g == 1:
        return row
    return {i: v // g for i, v in row.items()}


# Names the benchmark's tracer (perfbench/tracer.py) still looks up.  No code
# path reaches them: building a basis from a list of vectors and the linear
# solve are test oracles.
span_basis = solve_columns = None
