"""Schur, skew Schur, and super Schur polynomials in the character alphabets.

Polynomials are ``QUPoly`` values (defined in ``qcombinat``, re-exported
here): ordinary commuting polynomials in q_1..q_k, u_1..u_j with integer
coefficients; the u variables track fermionic degrees but commute here.
Schur polynomials are produced by semistandard-tableau enumeration and every
shape/alphabet pair is cross-checked once against a Jacobi-Trudi determinant,
expanded along rows with memoized minors whose exponent vectors are packed
into single integers (two independent constructions guard against indexing
and sign bugs in everything built on top).

The truncated super Cauchy comparison reads both sides only at the dominant
z-exponents z^mu, mu a partition: both sides are symmetric in z (the right
side because every s_lam(z) passed that cross-check), so agreeing there is
agreeing everywhere.  At each z^mu the (q,u) coefficient is compared in full.
``cauchy_tableau_bound`` bounds the tableaux that comparison enumerates, and
``expansion_tableau_bound`` those of a super Schur expansion, for the
resource ceiling.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import zip_longest
from math import comb

from . import exactla
from .qcombinat import Partition, QUPoly, conjugate, contains, in_Pkjn, partitions_of

__all__ = [
    "QUPoly",
    "NotExpressible",
    "schur_poly",
    "skew_schur_poly",
    "super_schur",
    "specialize",
    "expand_super_schur",
    "super_cauchy_check",
    "cauchy_tableau_bound",
    "expansion_tableau_bound",
    "CauchyResult",
    "ssyt_count",
]


class NotExpressible(ValueError):
    """A polynomial admits no expansion in the requested super Schur basis."""


# ---------------------------------------------------------------------------
# tableau enumeration


def _row_fillings(length: int, lo_bounds, nvars: int):
    """Weakly increasing rows with entries in 1..nvars, entry t > lo_bounds[t]."""
    if length == 0:
        yield ()
        return

    def rec(pos: int, prev: int, acc: list):
        if pos == length:
            yield tuple(acc)
            return
        for v in range(max(prev, lo_bounds[pos] + 1), nvars + 1):
            acc.append(v)
            yield from rec(pos + 1, v, acc)
            acc.pop()

    yield from rec(0, 1, [])


def _skew_tableau_weights(lam: Partition, nu: Partition, nvars: int) -> tuple:
    """Exponent vector (one per semistandard filling) of the shape lam/nu."""
    lam = tuple(lam)
    nu = tuple(nu) + (0,) * (len(lam) - len(nu))
    weights = []

    def rec(row_idx: int, prev_row: tuple, prev_nu: int, weight: list):
        if row_idx == len(lam):
            weights.append(tuple(weight))
            return
        length = lam[row_idx] - nu[row_idx]
        # lower bounds come from the cell directly above (0 when that cell
        # is outside the skew shape)
        lo = []
        for t in range(length):
            col = nu[row_idx] + t
            if row_idx > 0 and prev_nu <= col < prev_nu + len(prev_row):
                lo.append(prev_row[col - prev_nu])
            else:
                lo.append(0)
        for row in _row_fillings(length, lo, nvars):
            for v in row:
                weight[v - 1] += 1
            rec(row_idx + 1, row, nu[row_idx], weight)
            for v in row:
                weight[v - 1] -= 1

    rec(0, (), 0, [0] * nvars)
    return tuple(weights)


@cache
def _complete_homogeneous(r: int, nvars: int) -> dict:
    """Weight dict of h_r in nvars variables."""
    if r < 0:
        return {}
    if r == 0:
        return {(0,) * nvars: 1}
    out: dict[tuple, int] = {}
    # h_r(x_1..x_m) = sum over x_m^a * h_(r-a)(x_1..x_(m-1))
    if nvars == 0:
        return {}
    for a in range(r + 1):
        for e, c in _complete_homogeneous(r - a, nvars - 1).items():
            out[e + (a,)] = out.get(e + (a,), 0) + c
    return out


@cache
def _packed_homogeneous(r: int, nvars: int, radix: int) -> tuple:
    """h_r in nvars variables as (packed exponent, coefficient) pairs."""
    places = [radix**i for i in range(nvars)]
    return tuple(
        (sum(x * place for x, place in zip(e, places)), c)
        for e, c in _complete_homogeneous(r, nvars).items()
    )


def _jacobi_trudi(lam: Partition, nvars: int) -> dict:
    """Weight dict of s_lam via det(h_(lam_i - i + j)), expanded along rows.

    ``minors[S]`` is the minor on the last |S| rows and the column set S (a
    bitmask); each one is the Laplace expansion of its top row against the
    minors one row smaller, so every minor is built once: ell * 2^(ell-1)
    products instead of the ell! of the permutation sum.  Exponent vectors
    are packed into one integer of radix |lam| + 1, so a product of two terms
    adds two integers.  No digit carries: the minor on rows r >= r0 and
    columns S has total degree sum over r >= r0 of (lam_r - r) plus the sum of
    S, and S has |S| = ell - r0 columns, so the sum of S is at most
    r0 + ... + (ell - 1) and the degree at most lam_r0 + ... <= |lam|.
    """
    ell = len(lam)
    radix = sum(lam) + 1
    minors = {0: {0: 1}}
    for row in range(ell - 1, -1, -1):
        bigger: dict[int, dict] = {}
        for mask, minor in minors.items():
            for col in range(ell):
                bit = 1 << col
                if mask & bit:
                    continue
                terms = _packed_homogeneous(lam[row] - row + col, nvars, radix)
                if not terms:
                    continue
                # (-1)^(position of col among the columns of the new minor)
                sign = -1 if (mask & (bit - 1)).bit_count() % 2 else 1
                acc = bigger.setdefault(mask | bit, {})
                for e1, c1 in terms:
                    c1 *= sign
                    for e2, c2 in minor.items():
                        e = e1 + e2
                        acc[e] = acc.get(e, 0) + c1 * c2
        minors = {}
        for mask, acc in bigger.items():
            nonzero = {e: c for e, c in acc.items() if c}
            if nonzero:
                minors[mask] = nonzero
    out = {}
    for key, c in minors.get((1 << ell) - 1, {}).items():
        e = []
        for _ in range(nvars):
            key, x = divmod(key, radix)
            e.append(x)
        out[tuple(e)] = c
    return out


@cache
def ssyt_count(lam: Partition, n: int) -> int:
    """Number of semistandard tableaux of shape lam with entries <= n.

    The hook-content formula: the product over the cells (i, c) of
    (n + c - i) / hook(i, c).  A shape with more than n rows gets a zero
    factor in row n.
    """
    lamc = conjugate(lam)
    num = den = 1
    for i, part in enumerate(lam):
        for c in range(part):
            num *= n + c - i
            den *= part - c + lamc[c] - i - 1
    return num // den


@cache
def _schur_weights(lam: Partition, nvars: int) -> tuple:
    """SSYT weights of s_lam, verified against the Jacobi-Trudi determinant."""
    weights = _skew_tableau_weights(lam, (), nvars)
    tableau_dict: dict[tuple, int] = {}
    for w in weights:
        tableau_dict[w] = tableau_dict.get(w, 0) + 1
    jt = _jacobi_trudi(lam, nvars)
    if tableau_dict != jt:
        raise AssertionError(f"tableau sum and Jacobi-Trudi disagree for {lam} in {nvars} vars")
    return weights


@cache
def _skew_weights(lam: Partition, nu: Partition, nvars: int) -> tuple:
    return _skew_tableau_weights(lam, nu, nvars)


def _weights_to_qupoly(weights, slots, k: int, j: int) -> QUPoly:
    nv = k + j
    out: dict[tuple, int] = {}
    for w in weights:
        e = [0] * nv
        for slot, m in zip(slots, w):
            e[slot] += m
        te = tuple(e)
        out[te] = out.get(te, 0) + 1
    return QUPoly(k, j, out)


def schur_poly(lam: Partition, slots, k: int, j: int) -> QUPoly:
    """Schur polynomial of shape lam in the variables named by slot indices.

    Returns zero when lam has more rows than variables.
    """
    lam = tuple(lam)
    slots = list(slots)
    if len(lam) > len(slots):
        return QUPoly.zero(k, j)
    return _weights_to_qupoly(_schur_weights(lam, len(slots)), slots, k, j)


def skew_schur_poly(lam: Partition, nu: Partition, slots, k: int, j: int) -> QUPoly:
    """Skew Schur polynomial of lam/nu; requires nu ⊆ lam."""
    lam, nu = tuple(lam), tuple(nu)
    if not contains(lam, nu):
        raise ValueError(f"{nu} is not contained in {lam}")
    slots = list(slots)
    return _weights_to_qupoly(_skew_weights(lam, nu, len(slots)), slots, k, j)


@cache
def _subpartitions(lam: Partition) -> tuple:
    """All partitions nu ⊆ lam, each exactly once."""
    lam = tuple(lam)
    out = []

    def rec(i: int, prev: int, acc: list):
        out.append(tuple(acc))
        if i == len(lam):
            return
        for v in range(1, min(lam[i], prev) + 1):
            acc.append(v)
            rec(i + 1, v, acc)
            acc.pop()

    rec(0, lam[0] if lam else 0, [])
    return tuple(out)


@cache
def super_schur(lam: Partition, k: int, j: int) -> QUPoly:
    """Super Schur polynomial: sum over nu ⊆ lam of s_nu(q) * s_(lam'/nu')(u).

    Vanishes exactly when lam has more than j columns past its first k rows
    (the hook-bound condition).
    """
    lam = tuple(lam)
    lamc = conjugate(lam)
    qslots = list(range(k))
    uslots = list(range(k, k + j))
    total = QUPoly.zero(k, j)
    for nu in _subpartitions(lam):
        if len(nu) > k:
            continue
        qpart = schur_poly(nu, qslots, k, j)
        if qpart.is_zero():
            continue
        upart = skew_schur_poly(lamc, conjugate(nu), uslots, k, j)
        if upart.is_zero():
            continue
        total = total + qpart * upart
    return total


def specialize(poly: QUPoly, assignment: dict) -> QUPoly:
    """Substitute variables: idx -> None (set to 0) or (target_idx, sign).

    Targets must not themselves be substituted.  The result stays in the same
    alphabet; substituted variables simply no longer occur.
    """
    for src, tgt in assignment.items():
        if not 0 <= src < poly.nvars:
            raise ValueError(f"variable index {src} out of range")
        if tgt is not None:
            ti, sign = tgt
            if ti in assignment:
                raise ValueError("substitution target is itself substituted")
            if sign not in (1, -1):
                raise ValueError("sign must be +1 or -1")
    out: dict[tuple, int] = {}
    for e, c in poly.coeffs.items():
        ne = list(e)
        coeff = c
        dead = False
        for src, tgt in assignment.items():
            m = ne[src]
            if not m:
                continue
            if tgt is None:
                dead = True
                break
            ti, sign = tgt
            ne[src] = 0
            ne[ti] += m
            if sign < 0 and m % 2:
                coeff = -coeff
        if dead:
            continue
        te = tuple(ne)
        out[te] = out.get(te, 0) + coeff
    return QUPoly(poly.k, poly.j, out)


def expansion_shapes(k: int, j: int, n: int, degree: int) -> list[Partition]:
    """Index set of the degree-d super Schur basis: partitions in P(k,j,n)."""
    return [lam for lam in partitions_of(degree) if in_Pkjn(lam, k, j, n)]


def expand_super_schur(
    poly: QUPoly, k: int, j: int, n: int, degree_bound: int | None = None
) -> dict[Partition, int]:
    """Unique expansion of a symmetric polynomial in the super Schur basis.

    Solves one exact linear system per total degree in monomial coordinates.
    Raises NotExpressible when no expansion over P(k,j,n) exists and
    ValueError when the polynomial is not symmetric in each alphabet or a
    coefficient fails to be an integer.
    """
    if (poly.k, poly.j) != (k, j):
        raise ValueError("alphabet mismatch")
    if not poly.is_symmetric():
        raise ValueError("polynomial is not symmetric in the q and u alphabets")
    maxdeg = poly.total_degree()
    if degree_bound is None:
        degree_bound = maxdeg
    if maxdeg > degree_bound:
        raise ValueError(f"degree {maxdeg} exceeds bound {degree_bound}")
    result: dict[Partition, int] = {}
    for d in range(degree_bound + 1):
        component = poly.homogeneous_component(d)
        shapes = expansion_shapes(k, j, n, d)
        if not shapes:
            if not component.is_zero():
                raise NotExpressible(f"degree-{d} component has no basis shapes")
            continue
        basis_polys = [super_schur(lam, k, j) for lam in shapes]
        keys: dict[tuple, int] = {}
        for bp in basis_polys:
            for e in bp.coeffs:
                keys.setdefault(e, len(keys))
        for e in component.coeffs:
            keys.setdefault(e, len(keys))
        cols = [{keys[e]: c for e, c in bp.coeffs.items()} for bp in basis_polys]
        rhs = {keys[e]: c for e, c in component.coeffs.items()}
        try:
            coeffs = exactla.solve_columns(cols, rhs, len(keys))
        except ValueError as exc:
            raise AssertionError(
                f"super Schur basis unexpectedly dependent at degree {d}: {exc}"
            ) from exc
        if coeffs is None:
            raise NotExpressible(f"degree-{d} component is outside the super Schur span")
        for lam, c in zip(shapes, coeffs):
            if c:
                if c != int(c):
                    raise ValueError(f"non-integral coefficient {c} at {lam}")
                result[lam] = int(c)
    return result


class CauchyResult:
    """Outcome of the truncated super Cauchy comparison."""

    __slots__ = ("passed", "first_failure")

    def __init__(self, passed: bool, first_failure: int | None):
        self.passed = passed
        self.first_failure = first_failure

    def __bool__(self) -> bool:
        return self.passed

    def __repr__(self) -> str:
        if self.passed:
            return "CauchyResult(pass)"
        return f"CauchyResult(fail at degree {self.first_failure})"


def super_cauchy_check(k: int, j: int, n: int, degree: int) -> CauchyResult:
    """Degree-by-degree check of the truncated super Cauchy identity.

    Compares prod_i [ prod_a (1 - q_a z_i)^-1 * prod_c (1 + u_c z_i) ], in an
    auxiliary n-letter alphabet z up to the given total z-degree, with the
    sum over P(k,j,n) of s_lam(q/u) s_lam(z), coefficient by coefficient in z.

    Only the coefficients at dominant z-exponents z^mu, mu a partition with
    at most n parts, are compared, each as a full (q,u) polynomial:

    - left side: prod_i f_(mu_i), where f_m is the coefficient of z^m in the
      one-letter product prod_a (1 - q_a z)^-1 prod_c (1 + u_c z); products
      are memoized by prefix of mu;
    - right side: sum over lam of K_(lam,mu) * super_schur(lam), with the
      Kostka number K_(lam,mu) read as the multiplicity of the weight mu in
      ``_schur_weights(lam, n)``.

    This decides the identity exactly.  The left side is symmetric in z by
    construction.  The right side is symmetric in z whatever ``super_schur``
    returns, because every s_lam(z) is symmetric: its tableau weights have
    passed the Jacobi-Trudi cross-check in ``_schur_weights``.  Two symmetric
    polynomials agree at every z-monomial of degree d exactly when they agree
    at every z^mu with mu a partition of d, so ``passed`` and
    ``first_failure`` are those of the comparison at every z-monomial.  Only
    z is reduced: ``super_schur`` is what the identity checks, so its (q,u)
    side is compared in full.
    """
    for name, value in (("k", k), ("j", j), ("n", n)):
        if value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value}")
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    # f[m], one factor at a time in place: times (1 - q_a z)^-1 the new
    # f_m is f_m + q_a * (new f_(m-1)), times (1 + u_c z) it is f_m + u_c * f_(m-1)
    f = [QUPoly.one(k, j)] + [QUPoly.zero(k, j)] * degree
    for a in range(k):
        q = QUPoly.variable(k, j, a)
        for m in range(1, degree + 1):
            f[m] = f[m] + q * f[m - 1]
    for c in range(j):
        u = QUPoly.variable(k, j, k + c)
        for m in range(degree, 0, -1):
            f[m] = f[m] + u * f[m - 1]
    lhs = {(): f[0]}  # coefficient of z^mu, keyed by the partition mu
    for d in range(degree + 1):
        shapes = []  # (super Schur coefficients, Kostka numbers by weight)
        for lam in expansion_shapes(k, j, n, d):
            squ = super_schur(lam, k, j)
            if not squ.is_zero():
                shapes.append((squ.coeffs, Counter(_schur_weights(lam, n))))
        for mu in partitions_of(d):
            if len(mu) > n:
                continue
            if mu:
                lhs[mu] = lhs[mu[:-1]] * f[mu[-1]]
            weight = mu + (0,) * (n - len(mu))
            rhs: dict[tuple, int] = {}
            for coeffs, kostka in shapes:
                mult = kostka.get(weight)
                if mult:
                    for e, c in coeffs.items():
                        rhs[e] = rhs.get(e, 0) + mult * c
            if lhs[mu].coeffs != {e: c for e, c in rhs.items() if c}:
                return CauchyResult(False, d)
    return CauchyResult(True, None)


def _super_schur_tableau_bound(lam: Partition, k: int, j: int) -> int:
    """Upper bound on the tableaux ``super_schur(lam, k, j)`` enumerates.

    The s_nu(1^k) tableaux of each nu, len(nu) <= k, times the skew tableaux
    of lam'/nu' in j letters.  Straight shapes are counted exactly by the
    hook-content formula, a skew shape by the fillings of its rows with
    weakly increasing entries, column conditions dropped; that also bounds
    the partial fillings the row-by-row enumeration visits.  s_lam(1^(k+j))
    is no bound: lam = (1, 1) at k = 0, j = 1 has one tableau, and
    s_(1,1)(1) = 0.
    """
    lamc = conjugate(lam)
    total = 0
    for nu in _subpartitions(lam):
        if len(nu) > k:
            continue
        count = ssyt_count(nu, k)
        for a, b in zip_longest(lamc, conjugate(nu), fillvalue=0):
            count *= comb(j + a - b - 1, a - b) if a > b else 1
        total += count
    return total


def expansion_tableau_bound(k: int, j: int, n: int, degree: int) -> int:
    """Upper bound on the tableaux a super Schur expansion up to ``degree`` enumerates.

    ``expand_super_schur`` builds ``super_schur(lam, k, j)`` for every shape
    of ``expansion_shapes`` up to its degree bound, each once (memoized), so
    this bounds a whole coefficient table of a ring too.
    """
    return sum(
        _super_schur_tableau_bound(lam, k, j)
        for d in range(degree + 1)
        for lam in expansion_shapes(k, j, n, d)
    )


def cauchy_tableau_bound(k: int, j: int, n: int, degree: int) -> int:
    """Upper bound on the tableaux ``super_cauchy_check`` enumerates.

    Per shape lam of the check: the s_lam(1^n) tableaux of ``_schur_weights``
    in the n letters z, counted exactly by the hook-content formula, and the
    bound of ``_super_schur_tableau_bound`` for ``super_schur(lam, k, j)``.
    """
    return sum(
        ssyt_count(lam, n) + _super_schur_tableau_bound(lam, k, j)
        for d in range(degree + 1)
        for lam in expansion_shapes(k, j, n, d)
    )
