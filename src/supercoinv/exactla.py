"""Exact sparse linear algebra over the rationals, computed in integers.

Vectors are plain dicts {coordinate: int} with no stored zeros; a caller
with rational vectors clears their denominators first, so elimination never
leaves the integers.
"""

from __future__ import annotations

from math import gcd

__all__ = ["SubspaceBasis"]


class SubspaceBasis:
    """Reduced-echelon basis of a subspace of Q^dim, held in integers.

    Rows are stored by pivot coordinate, each the primitive integer multiple
    of its reduced-echelon row over Q: a positive pivot value d at its own
    pivot, 0 at every other pivot, entries with gcd 1.  That basis and these
    multiples are unique, so the rows do not depend on the insertion order.
    Elimination is fraction-free: a hit pivot with coefficient c is cleared
    as ``w <- (d/g) w - (c/g) row``, g = gcd(c, d), d read off the row.  A
    value is divided by d only where it is read as a rational number, so the
    coefficient of a row in a vector of the span is that vector's pivot entry
    over d.

    Beside the rows only the least pivot is kept.  A row carries no
    coordinate left of its own pivot, so a new pivot p occurs only in rows
    whose pivot lies left of it, and in none when p is left of the least.
    Vectors inserted in descending order of their least coordinate nearly
    always give such a p, and then ``insert`` touches no stored row; any
    other order gives the same rows, at the cost of a scan of the rows for
    each new pivot right of the least.  Treat instances as frozen once
    built: ``insert`` is for construction only.
    """

    __slots__ = ("dim", "_rows", "_least")

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: dict[int, dict] = {}
        self._least = dim  # the least pivot stored; dim while there is none

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
        scale = 1
        for p in w.keys() & rows.keys():
            c = w.pop(p, 0)
            if not c:
                continue
            row = rows[p]
            d = row[p]
            if d != 1:
                g = gcd(c, d)
                d //= g
                c //= g
                if d != 1:
                    scale *= d
                    w = {i: d * v for i, v in w.items()}
            for i, v in row.items():
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
        if p < self._least:
            self._least = p  # no stored row reaches left of its own pivot
        else:
            # keep reduced form: clear the new pivot from the rows left of it
            for q, other in rows.items():
                if q > p or p not in other:
                    continue
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
                        other[i] = nv
                    else:
                        del other[i]
                if other[q] != 1:
                    g = gcd(*other.values())
                    if g != 1:
                        for i in other:
                            other[i] //= g
        w[p] = d
        rows[p] = w
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
