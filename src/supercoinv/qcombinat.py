"""Partitions, Young-diagram utilities, and single-variable q-analogues.

Partitions are tuples of weakly decreasing positive integers; ``()`` is the
empty partition.  All enumeration functions list partitions in descending
lexicographic order, which is the canonical order used everywhere in this
package (serialized tables, matrix layouts, reports).
"""

from __future__ import annotations

from functools import cache

Partition = tuple

__all__ = [
    "Partition",
    "as_partition",
    "partitions_of",
    "conjugate",
    "contains",
    "in_Pkjn",
    "partition_sort_key",
    "QPoly",
    "q_number",
    "q_factorial",
    "q_binomial",
    "q_stirling",
    "sagan_swanson_sum",
    "rectangle_coeff",
]


def as_partition(parts) -> Partition:
    """Validate and normalize an iterable of parts into a partition tuple."""
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


@cache
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n (parts bounded by max_part) in descending lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def contains(lam: Partition, nu: Partition) -> bool:
    """Young-diagram containment nu ⊆ lam."""
    if len(nu) > len(lam):
        return False
    return all(nu[i] <= lam[i] for i in range(len(nu)))


def in_Pkjn(lam: Partition, k: int, j: int, n: int) -> bool:
    """Membership in the hook-bounded index set: len(lam) <= n and lam[k] <= j.

    Out-of-range parts read as 0, so lam[k] <= j is vacuous once len(lam) <= k.
    """
    if len(lam) > n:
        return False
    part_k1 = lam[k] if k < len(lam) else 0
    return part_k1 <= j


def partition_sort_key(lam: Partition):
    """Sort key ordering partitions by size, then descending lexicographic."""
    return (sum(lam), tuple(-p for p in lam))


class QPoly:
    """Sparse univariate polynomial in q with integer coefficients.

    Immutable by convention: no method mutates ``coeffs`` after construction.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def zero(cls) -> "QPoly":
        return cls()

    @classmethod
    def one(cls) -> "QPoly":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "QPoly":
        if exp < 0:
            raise ValueError("exponents must be nonnegative")
        return cls({exp: coeff})

    def coeff(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return max(self.coeffs, default=-1)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "QPoly") -> "QPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return QPoly(out)

    def scale(self, c: int) -> "QPoly":
        return QPoly({e: c * v for e, v in self.coeffs.items()})

    def __call__(self, value):
        """Evaluate at a numeric value (exact for int / Fraction inputs)."""
        return sum(c * value**e for e, c in self.coeffs.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(str(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                if c == 1:
                    terms.append(var)
                elif c == -1:
                    terms.append(f"-{var}")
                else:
                    terms.append(f"{c}{var}")
        return " + ".join(terms).replace("+ -", "- ")


def q_number(d: int) -> QPoly:
    """[d]_q = 1 + q + ... + q^(d-1); zero when d <= 0."""
    return QPoly({i: 1 for i in range(max(d, 0))})


@cache
def q_factorial(d: int) -> QPoly:
    """[d]_q! = [d]_q [d-1]_q ... [1]_q."""
    if d <= 0:
        return QPoly.one()
    return q_factorial(d - 1) * q_number(d)


@cache
def q_binomial(n: int, d: int) -> QPoly:
    """Gaussian binomial coefficient; zero outside 0 <= d <= n."""
    if d < 0 or n < 0 or d > n:
        return QPoly.zero()
    if d == 0 or d == n:
        return QPoly.one()
    # Pascal recurrence: [n,d] = [n-1,d-1] + q^d [n-1,d]
    return q_binomial(n - 1, d - 1) + QPoly.monomial(d) * q_binomial(n - 1, d)


@cache
def q_stirling(n: int, d: int) -> QPoly:
    """q-Stirling number from Stir(n,d) = [d]_q Stir(n-1,d) + Stir(n-1,d-1).

    Initial conditions Stir(0,d) = 1 if d == 0 else 0.
    """
    if n < 0 or d < 0:
        return QPoly.zero()
    if n == 0:
        return QPoly.one() if d == 0 else QPoly.zero()
    return q_number(d) * q_stirling(n - 1, d) + q_stirling(n - 1, d - 1)


def sagan_swanson_sum(n: int) -> QPoly:
    """Sum over d of [d]_q! Stir_q(n,d) (-q)^(n-d); identically 1 for n >= 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = QPoly.zero()
    for d in range(n + 1):
        sign_pow = QPoly.monomial(n - d, (-1) ** (n - d))
        total = total + q_factorial(d) * q_stirling(n, d) * sign_pow
    return total


def rectangle_coeff(i: int, d: int, n: int) -> int:
    """Number of partitions of i fitting in the d x (n-2-d) rectangle.

    Equals the coefficient of q^i in the Gaussian binomial [n-2 choose d].
    """
    return q_binomial(n - 2, d).coeff(i)
