"""Exact sparse linear algebra over the rationals, computed in integers.

Vectors are plain dicts {coordinate: value} with no stored zeros.  Callers
may pass int or Fraction values; the engine's own callers pass integers.
Bases are held in reduced echelon form, each row stored as the primitive
integer multiple of its reduced-echelon row over Q: a positive pivot value d
at its own pivot, value 0 at every other pivot, and entries with gcd 1.
Elimination never leaves the integers for integer input; a value is divided
by d only where it is read as a rational number, so membership coefficients
are still read directly off pivot coordinates.  The reduced echelon basis of
a subspace and its primitive integer rows are unique, which makes all results
independent of insertion order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "DimensionMismatch",
    "SubspaceNotInvariant",
    "SubspaceBasis",
    "span_basis",
    "solve_columns",
]


class DimensionMismatch(ValueError):
    pass


class SubspaceNotInvariant(ValueError):
    pass


def _exact_div(a, b):
    """a / b as int when exact, Fraction otherwise."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return Fraction(a) / Fraction(b)


class SubspaceBasis:
    """Reduced-echelon basis of a subspace of Q^dim, held in integers.

    Rows are stored keyed by pivot coordinate.  Each stored row is the
    primitive integer multiple of its reduced-echelon row over Q: a positive
    pivot value d at its own pivot, 0 at every other pivot, entries with gcd
    1.  That multiple is unique, so the stored rows are canonical too.
    Elimination is fraction-free (Bareiss-style): a hit pivot with
    coefficient c is cleared as ``w <- (d/g) w - (c/g) row`` with
    ``g = gcd(c, d)``, and a value is divided by d only where it is read as a
    rational number (``reduce``, ``coefficients``, ``solve_columns``).  The
    pivot values other than 1 are also kept in ``_den`` (pivot -> d); it
    stays empty while every reduced-echelon row is integral, and then
    elimination never looks a pivot value up.  An occurrence index
    (coordinate -> set of pivots whose row touches it) makes
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

    @property
    def vectors(self) -> list[dict]:
        """The stored primitive integer rows, in pivot order."""
        return [self._rows[p] for p in self.pivots]

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

    def reduce(self, vec: dict) -> dict:
        """Residual of vec after eliminating all pivot coordinates."""
        w, scale = self.scaled_residual(vec)
        if scale == 1:
            return w
        return {i: _exact_div(v, scale) for i, v in w.items()}

    def contains(self, vec: dict) -> bool:
        for i in vec:
            if not 0 <= i < self.dim:
                raise DimensionMismatch(f"coordinate {i} outside ambient dimension {self.dim}")
        return not self.scaled_residual(vec)[0]

    def coefficients(self, vec: dict):
        """Coordinates of vec in the basis ``vectors``, or None when vec is outside.

        In reduced echelon form the coefficient of the row with pivot p and
        pivot value d is simply vec[p] / d, provided the residual vanishes.
        """
        if not self.contains(vec):
            return None
        den = self._den
        return [_exact_div(vec.get(p, 0), den.get(p, 1)) for p in self.pivots]

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

    @classmethod
    def from_rows(cls, dim: int, rows: dict) -> "SubspaceBasis":
        """Rebuild from pivot -> row dicts already in reduced echelon form.

        Rows may be any nonzero rational multiples of the reduced-echelon
        rows; denominators are cleared once and each row is stored primitive.
        """
        basis = cls(dim)
        for p, row in rows.items():
            if not row.get(p):
                raise ValueError(f"row for pivot {p} is zero at its pivot")
            row = basis._rows[p] = _primitive(row, p)
            if row[p] != 1:
                basis._den[p] = row[p]
        for p, row in basis._rows.items():
            for i in row:
                if i != p:
                    if i in basis._rows:
                        raise ValueError("row touches another pivot; not reduced")
                    basis._occ.setdefault(i, set()).add(p)
        basis._sorted = None
        return basis


def _primitive(row: dict, pivot: int) -> dict:
    """The primitive integer multiple of row with a positive value at pivot."""
    try:
        g = gcd(*row.values())
    except TypeError:  # Fraction entries: clear the denominators once
        den = lcm(*(Fraction(v).denominator for v in row.values()))
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


def solve_columns(columns, rhs: dict, dim: int):
    """Exact solution c of  sum_i c[i] * columns[i] == rhs,  or None.

    Raises ValueError when the columns are linearly dependent (the expansion
    problems this serves are guaranteed unique solutions).
    """
    ncols = len(columns)
    basis = SubspaceBasis(dim + ncols)
    for idx, col in enumerate(columns):
        tagged = dict(col)
        tagged[dim + idx] = 1
        basis.insert(tagged)
    # a column whose pivot landed in the tag block is a dependency relation
    for p in basis.pivots:
        if p >= dim:
            raise ValueError("dependent columns detected")
    resid = basis.reduce(dict(rhs))
    if any(i < dim for i in resid):
        return None
    coeffs = [0] * ncols
    for i, v in resid.items():
        coeffs[i - dim] = -v
    return coeffs
