"""Partitions, Young-diagram utilities, polynomials, and q-analogues.

``QUPoly`` is the one polynomial class of the package: the series, the super
Schur polynomials and the q-analogues (``QUPoly(1, 0, ...)``, one variable q)
are all values of it.

Each q-analogue ([d]_q, [d]_q!, Gaussian binomial, Stir_q) is one integer
recursion in x, its value at q = x.  The recursions add and multiply only
terms with nonnegative coefficients, so at x = 1 they give the coefficient
sum, which bounds every coefficient; ``_kronecker`` decodes x = 2^b above it.

Partitions are tuples of weakly decreasing positive integers; ``()`` is the
empty partition.  All enumeration functions list partitions in descending
lexicographic order, which is the canonical order used everywhere in this
package (serialized tables, matrix layouts, reports).
"""

from __future__ import annotations

from functools import cache, partial
from itertools import chain

Partition = tuple

__all__ = [
    "Partition",
    "partitions_of",
    "partition_counts",
    "conjugate",
    "in_Pkjn",
    "partition_sort_key",
    "QUPoly",
    "q_number",
    "q_factorial",
    "q_binomial",
    "q_stirling",
    "sagan_swanson_sum",
    "rectangle_coeff",
]


def _partitions_within(d: int, parts: int, max_part: int):
    """The partitions of d, at most ``parts`` parts of at most ``max_part``, descending."""
    if not d:
        yield ()
    elif parts:
        # no first part below d / parts, so every branch yields
        for first in range(min(d, max_part), -(-d // parts) - 1, -1):
            for rest in _partitions_within(d - first, parts - 1, first):
                yield (first,) + rest


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lex order."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_partitions_within(n, n, n))


def partition_counts(top: int, largest: int) -> list[int]:
    """Counts of the partitions of 0..top into parts <= largest, or into <= largest parts."""
    counts = [1] + [0] * top
    # parts above top fit in no partition of 0..top
    for part in range(1, min(largest, top) + 1):
        for d in range(part, top + 1):
            counts[d] += counts[d - part]
    return counts


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


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


class QUPoly:
    """Sparse integer polynomial in k+j commuting variables.

    Exponent keys are tuples of length k+j: the first k slots are the q
    alphabet, the remaining j slots the u alphabet.  Instances are immutable
    by convention.
    """

    __slots__ = ("k", "j", "coeffs")

    def __init__(self, k: int, j: int, coeffs=None):
        self.k = k
        self.j = j
        coeffs = coeffs or {}
        nv = k + j
        if set(map(len, coeffs)) - {nv} or min(chain.from_iterable(coeffs), default=0) < 0:
            raise ValueError(f"exponents must be tuples of {nv} nonnegative integers")
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    @property
    def nvars(self) -> int:
        return self.k + self.j

    @classmethod
    def zero(cls, k: int, j: int) -> "QUPoly":
        return cls(k, j)

    @classmethod
    def one(cls, k: int, j: int) -> "QUPoly":
        return cls(k, j, {(0,) * (k + j): 1})

    @classmethod
    def variable(cls, k: int, j: int, idx: int) -> "QUPoly":
        e = [0] * (k + j)
        e[idx] = 1
        return cls(k, j, {tuple(e): 1})

    @classmethod
    def monomial(cls, k: int, j: int, exponents, coeff: int = 1) -> "QUPoly":
        return cls(k, j, {tuple(exponents): coeff})

    def _new(self, coeffs: dict) -> "QUPoly":
        """A polynomial in this alphabet from exponents known to be valid."""
        poly = QUPoly.__new__(QUPoly)
        poly.k, poly.j = self.k, self.j
        poly.coeffs = {e: c for e, c in coeffs.items() if c}
        return poly

    def _check_context(self, other: "QUPoly"):
        if (self.k, self.j) != (other.k, other.j):
            raise ValueError(f"alphabet mismatch ({self.k},{self.j}) vs ({other.k},{other.j})")

    def __add__(self, other: "QUPoly") -> "QUPoly":
        self._check_context(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return self._new(out)

    def __neg__(self) -> "QUPoly":
        return self._new({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "QUPoly") -> "QUPoly":
        return self + (-other)

    def __mul__(self, other: "QUPoly") -> "QUPoly":
        self._check_context(other)
        # exponent vectors packed into integers of a radix above every
        # exponent of the product, so adding two packed keys adds exponents;
        # packed and unpacked one variable at a time over all keys at once
        radix = 2 * max(chain(*self.coeffs, *other.coeffs, (0,))) + 1
        left, right = [0] * len(self.coeffs), [0] * len(other.coeffs)
        for i in range(self.nvars):
            place = radix**i
            left = [key + e[i] * place for key, e in zip(left, self.coeffs)]
            right = [key + e[i] * place for key, e in zip(right, other.coeffs)]
        right = list(zip(right, other.coeffs.values()))
        out: dict[int, int] = {}
        for key1, c1 in zip(left, self.coeffs.values()):
            for key2, c2 in right:
                key = key1 + key2
                out[key] = out.get(key, 0) + c1 * c2
        keys, digits = list(out), []
        for _ in range(self.nvars):
            split = [divmod(key, radix) for key in keys]
            keys = [q for q, _x in split]
            digits.append([x for _q, x in split])
        exponents = zip(*digits) if digits else [()] * len(out)
        return self._new(dict(zip(exponents, out.values())))

    def scale(self, c: int) -> "QUPoly":
        return self._new({e: c * v for e, v in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, exponents) -> int:
        return self.coeffs.get(tuple(exponents), 0)

    def evaluate(self, values):
        """Exact evaluation at a full assignment of numeric values."""
        if len(values) != self.nvars:
            raise ValueError("need one value per variable")
        total = 0
        for e, c in self.coeffs.items():
            term = c
            for x, m in zip(values, e):
                if m:
                    term *= x**m
            total += term
        return total

    def reindex(self, k2: int, j2: int) -> "QUPoly":
        """Embed into a (k2, j2) alphabet, mapping q_i -> q_i and u_i -> u_i."""
        if self.k > k2 or self.j > j2:
            raise ValueError("target alphabet too small")
        out = {}
        for e, c in self.coeffs.items():
            ne = [0] * (k2 + j2)
            ne[: self.k] = e[: self.k]
            ne[k2 : k2 + self.j] = e[self.k :]
            out[tuple(ne)] = c
        return QUPoly(k2, j2, out)

    def variable_names(self) -> list[str]:
        qn = ["q"] if self.k == 1 else (["q", "t"] if self.k == 2 else [f"q{i+1}" for i in range(self.k)])
        un = ["u"] if self.j == 1 else (["u", "v"] if self.j == 2 else [f"u{i+1}" for i in range(self.j)])
        return qn + un

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        names = self.variable_names()
        parts = []
        for e in sorted(self.coeffs, key=lambda e: (sum(e), tuple(-x for x in e))):
            c = self.coeffs[e]
            factors = []
            for name, m in zip(names, e):
                if m == 1:
                    factors.append(name)
                elif m > 1:
                    factors.append(f"{name}^{m}")
            body = "".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QUPoly)
            and (self.k, self.j) == (other.k, other.j)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.k, self.j, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"QUPoly(k={self.k}, j={self.j}, {self.pretty()})"

    def to_json(self) -> list:
        items = sorted(self.coeffs.items())
        return [{"e": list(e), "c": str(c)} for e, c in items]

    @classmethod
    def from_json(cls, k: int, j: int, data) -> "QUPoly":
        return cls(k, j, {tuple(rec["e"]): int(rec["c"]) for rec in data})


@cache
def _number(d: int, x: int) -> int:
    """[d]_x = 1 + x + ... + x^(d-1); zero when d <= 0."""
    return sum(x**i for i in range(d))


@cache
def _factorial(d: int, x: int) -> int:
    """[d]_x! = [d]_x [d-1]_x ... [1]_x."""
    return _factorial(d - 1, x) * _number(d, x) if d > 0 else 1


@cache
def _binomial(n: int, d: int, x: int) -> int:
    """Gaussian binomial by [n,d] = [n-1,d-1] + x^d [n-1,d]; zero outside 0 <= d <= n."""
    if 0 < d < n:
        return _binomial(n - 1, d - 1, x) + x**d * _binomial(n - 1, d, x)
    return int(0 <= d <= n)


@cache
def _stirling(n: int, d: int, x: int) -> int:
    """q-Stirling number by Stir(n,d) = [d]_x Stir(n-1,d) + Stir(n-1,d-1), Stir(0,d) = [d == 0]."""
    if n <= 0 or d <= 0:
        return int(n == d == 0)
    return _number(d, x) * _stirling(n - 1, d, x) + _stirling(n - 1, d - 1, x)


def _kronecker(image, bound=None) -> QUPoly:
    """The q-polynomial P with image(x) = P(x) and no coefficient beyond +-bound.

    The bound defaults to image(1), for nonnegative coefficients.  At x = 2^b,
    b a power-of-two number of bytes with 2^(b-1) > bound (near bounds share x
    and the memoized recursions), P's coefficients are the balanced base-2^b
    digits of image(x): plus 2^(b-1) each, one ``to_bytes`` reads them in linear time.
    """
    size = 1 << ((image(1) if bound is None else bound).bit_length() // 8).bit_length()
    value, half = image(1 << 8 * size), 1 << 8 * size - 1
    count = value.bit_length() // (8 * size) + 2  # the top digit, and one for its sign
    offset = int.from_bytes(half.to_bytes(size, "little") * count, "little")
    raw = (value + offset).to_bytes(size * count, "little")
    digits = (int.from_bytes(raw[i : i + size], "little") - half for i in range(0, len(raw), size))
    return QUPoly(1, 0, {(e,): c for e, c in enumerate(digits) if c})


def q_number(d: int) -> QUPoly:
    """[d]_q = 1 + q + ... + q^(d-1); zero when d <= 0."""
    return QUPoly(1, 0, {(i,): 1 for i in range(max(d, 0))})


@cache
def q_factorial(d: int) -> QUPoly:
    """[d]_q! = [d]_q [d-1]_q ... [1]_q."""
    return _kronecker(partial(_factorial, d))


@cache
def q_binomial(n: int, d: int) -> QUPoly:
    """Gaussian binomial coefficient; zero outside 0 <= d <= n."""
    return _kronecker(partial(_binomial, n, d))


@cache
def q_stirling(n: int, d: int) -> QUPoly:
    """q-Stirling number Stir_q(n,d); zero unless 0 <= d <= n, and 1 at n = d."""
    return _kronecker(partial(_stirling, n, d))


def sagan_swanson_sum(n: int) -> QUPoly:
    """Sum over d of [d]_q! Stir_q(n,d) (-q)^(n-d); identically 1 for n >= 0.

    One integer, decoded once: no coefficient of the sum exceeds the sum
    over d of the terms' coefficient sums d! S(n,d).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def value(x: int, y: int) -> int:  # the sum with y in place of -q in (-q)^(n-d)
        return sum(_factorial(d, x) * _stirling(n, d, x) * y ** (n - d) for d in range(n + 1))

    return _kronecker(lambda x: value(x, -x), value(1, 1))


def rectangle_coeff(i: int, d: int, n: int) -> int:
    """Number of partitions of i fitting in the d x (n-2-d) rectangle.

    Equals the coefficient of q^i in the Gaussian binomial [n-2 choose d].
    """
    return q_binomial(n - 2, d).coeff((i,))
