"""Super Schur polynomials in the character alphabets, and their expansions.

Polynomials are ``QUPoly`` values (defined in ``qcombinat``, re-exported
here): ordinary commuting polynomials in q_1..q_k, u_1..u_j with integer
coefficients; the u variables track fermionic degrees but commute here.
Super Schur polynomials, Kostka numbers and tableau counts come from one
memoized strip-branching kernel: a semistandard filling loses its largest
letter as a horizontal or a vertical strip, so each is a sum over strips of
the same object one letter smaller.  A tableau count with no u left is the
hook-content product.  The tableau enumeration and the Jacobi-Trudi
determinant are the test side's independent references.

Each super Schur polynomial has one lex-leading monomial, with coefficient
1, so an expansion is read off leading monomials with no linear solve.

The truncated super Cauchy comparison reads both sides only at the dominant
z-exponents z^mu, mu a partition: both sides are symmetric in z, so agreeing
there is agreeing everywhere.  At each z^mu the (q,u) coefficient is
compared in full, as Kronecker images: integers in the first two exponents,
keyed by the others, whose radix exceeds every left-side exponent and
whose slot width every coefficient, so equal images are equal
polynomials.  ``cauchy_tableau_bound`` and
``expansion_tableau_bound`` count the tableaux behind the monomials those
computations build, for the resource ceiling.
"""

from __future__ import annotations

from functools import cache
from itertools import product
from math import factorial, prod
from operator import add

from .qcombinat import Partition, QUPoly, _partitions_within, conjugate, in_Pkjn
from .snchar import syt_count

__all__ = [
    "QUPoly",
    "NotExpressible",
    "super_schur",
    "specialize",
    "expand_super_schur",
    "super_cauchy_check",
    "cauchy_tableau_bound",
    "expansion_tableau_bound",
]


class NotExpressible(ValueError):
    """A polynomial admits no expansion in the requested super Schur basis."""


# ---------------------------------------------------------------------------
# strip branching


@cache
def _strips(lam: Partition, vertical: bool) -> tuple:
    """Every (mu, |lam/mu|) with lam/mu a vertical strip, or a horizontal one.

    The cells of the largest letter of a semistandard filling: a horizontal
    strip (at most one per column) for a letter that may repeat along a row,
    a vertical strip (at most one per row) for one that may repeat down a
    column.  Row i of mu keeps lam_i or lam_i - 1 cells of a vertical strip,
    and between lam_(i+1) and lam_i cells of a horizontal one; only the
    vertical choices can leave mu out of order.
    """
    if vertical:
        choices = [(part, part - 1) for part in lam]
    else:
        choices = [range(below, part + 1) for part, below in zip(lam, lam[1:] + (0,))]
    size = sum(lam)
    out = []
    for mu in product(*choices):
        if vertical and any(a < b for a, b in zip(mu, mu[1:])):
            continue
        out.append((tuple(p for p in mu if p), size - sum(mu)))
    return tuple(out)


@cache
def _hook_weights(lam: Partition, k: int, j: int) -> dict:
    """Weight dict {(q_1..q_k, u_1..u_j exponents): coefficient} of s_lam(q/u).

    The letters are ordered q_1 < ... < q_k < u_1 < ... < u_j, and the
    largest one is stripped off: u_j fills a vertical strip, q_k (once no u
    is left) a horizontal one (Berele-Regev).  The hook bound lam_(k+1) <= j
    cuts every branch that cannot be filled, the empty alphabet included.
    """
    if not lam:
        return {(0,) * (k + j): 1}
    if len(lam) > k and lam[k] > j:
        return {}
    rest = (k, j - 1) if j else (k - 1, 0)
    out: dict[tuple, int] = {}
    for mu, size in _strips(lam, j > 0):
        for e, c in _hook_weights(mu, *rest).items():
            key = e + (size,)
            out[key] = out.get(key, 0) + c
    return out


@cache
def _kostka(lam: Partition, mu: Partition) -> int:
    """Kostka number K_(lam,mu): semistandard tableaux of shape lam and content mu.

    The largest letter fills a horizontal strip of mu's last part
    (Macdonald I.5); a shape with more rows than mu has parts has none.
    """
    if not mu:
        return 0 if lam else 1
    if len(lam) > len(mu):
        return 0
    return sum(_kostka(nu, mu[:-1]) for nu, size in _strips(lam, False) if size == mu[-1])


@cache
def _tableau_count(lam: Partition, k: int, j: int) -> int:
    """s_lam(1^k/1^j): the semistandard fillings of lam in k + j letters.

    ``_hook_weights``' recursion with the weights summed, so the tableaux of
    s_lam(q/u) in its alphabet, and those of s_lam(1^n) at (n, 0).  With no
    u left, the hook-content formula counts them.
    """
    if not j:
        contents = prod(k + c - i for i, part in enumerate(lam) for c in range(part))
        return contents * syt_count(lam) // factorial(sum(lam))
    if len(lam) > k and lam[k] > j:
        return 0
    return sum(_tableau_count(mu, k, j - 1) for mu, _size in _strips(lam, True))


@cache
def super_schur(lam: Partition, k: int, j: int) -> QUPoly:
    """Super (hook) Schur polynomial s_lam(q/u) = sum over nu ⊆ lam of s_nu(q) s_(lam'/nu')(u).

    Built by strip branching (``_hook_weights``).  Vanishes exactly when lam
    has more than j columns past its first k rows (the hook-bound condition).
    """
    return QUPoly(k, j, _hook_weights(tuple(lam), k, j))


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
    return [lam for lam in _partitions_within(degree, n, degree) if in_Pkjn(lam, k, j, n)]


def _leading_exponent(lam: Partition, k: int, j: int) -> tuple:
    """q^(lam_1..lam_k) u^((lam_(k+1), ...)'), the lex-largest exponent of s_lam(q/u).

    Its coefficient is 1 (Berele-Regev): q_1..q_k fill the first k rows and
    u_1, u_2, ... the columns of the rest, one column each.
    """
    head = lam[:k]
    tail = conjugate(lam[k:])
    return head + (0,) * (k - len(head)) + tail + (0,) * (j - len(tail))


def expand_super_schur(poly: QUPoly, k: int, j: int, n: int) -> dict[Partition, int]:
    """Unique expansion of a polynomial in the super Schur basis over P(k,j,n).

    The basis is unitriangular: the lex-leading exponent e of what is left
    names the one shape lam whose ``_leading_exponent`` it can be, the
    coefficient of e is that of s_lam, and subtracting that multiple of
    s_lam lowers the leading exponent.  Raises NotExpressible, a ValueError,
    when e is the leading exponent of no shape of P(k,j,n); then no
    expansion exists, as for every polynomial that is not symmetric in each
    alphabet.
    """
    if (poly.k, poly.j) != (k, j):
        raise ValueError("alphabet mismatch")
    rest = dict(poly.coeffs)
    result: dict[Partition, int] = {}
    while rest:
        e = max(rest)
        lam = tuple(x for x in e[:k] if x) + conjugate(tuple(x for x in e[k:] if x))
        if (
            any(a < b for a, b in zip(lam, lam[1:]))  # q u v at k = 1: (1) + (2)
            or not in_Pkjn(lam, k, j, n)
            or _leading_exponent(lam, k, j) != e
        ):
            raise NotExpressible(f"exponent {e} leads no super Schur polynomial in P({k},{j},{n})")
        c = result[lam] = rest[e]
        for f, v in super_schur(lam, k, j).coeffs.items():
            w = rest.get(f, 0) - c * v
            if w:
                rest[f] = w
            else:
                del rest[f]
    return result


def super_cauchy_check(k: int, j: int, n: int, degree: int) -> int | None:
    """The first z-degree at which the truncated super Cauchy identity fails, or None.

    Compares prod_i [ prod_a (1 - q_a z_i)^-1 * prod_c (1 + u_c z_i) ], in an
    auxiliary n-letter alphabet z up to the given total z-degree, with the
    sum over P(k,j,n) of s_lam(q/u) s_lam(z), coefficient by coefficient in z.

    Only the coefficients at dominant z-exponents z^mu, mu a partition with
    at most n parts, are compared, each as a full (q,u) polynomial:

    - left side: prod_i f_(mu_i), where f_m is the coefficient of z^m in the
      one-letter product prod_a (1 - q_a z)^-1 prod_c (1 + u_c z); products
      are memoized by prefix of mu;
    - right side: sum over lam of K_(lam,mu) * super_schur(lam), with the
      Kostka number K_(lam,mu) from the horizontal-strip recursion
      ``_kostka``, the coefficient of z^mu in s_lam(z).

    This decides the identity exactly.  The left side is symmetric in z by
    construction.  The right side is symmetric in z whatever ``super_schur``
    returns, because s_lam(z) = sum over mu of K_(lam,mu) m_mu(z) is
    symmetric: K_(lam,mu) does not change when the parts of mu are permuted
    (Bender-Knuth), a theorem, not a property checked at run time.  Two symmetric
    polynomials agree at every z-monomial of degree d exactly when they agree
    at every z^mu with mu a partition of d, so the degree returned is that
    of the comparison at every z-monomial.  Degree 0 is a failure like any
    other, so a caller tests the result against None.  Only
    z is reduced: ``super_schur`` is what the identity checks, so its (q,u)
    side is compared in full.

    Each (q,u) polynomial is held as {key: integer}, its Kronecker image:
    a term c q^e goes to the integer c X^(e_1 mod R + R e_2), X = 2^w, under
    the key (|e|, e_1 // R, e_3, ..., e_(k+j-1)), and the total degree |e|
    gives the last exponent.  The key and the power of X give back e, so
    equal images are equal polynomials whatever ``super_schur`` returns,
    terms of the wrong degree and out-of-range exponents included, as long
    as 2^(w-1) exceeds every coefficient of the two sides' difference: its
    slots are then balanced base-X digits, all zero only if the integer is.
    The radix R is degree + 1, above every left-side exponent, so the left
    side's products are integer products.  At z^mu a left-side coefficient
    is at most (k + j)^|mu|, as (1 - z)^-(k+j) bounds f_m at q = u = 1, and
    a right-side one at most the sum over lam of f^lam (at least
    K_(lam,mu), standardizing a tableau being injective) times the absolute
    coefficient sum of s_lam; the slots hold the sum of the two bounds.
    They start at twice (k + j)^degree, what the true s_lam need: the sum
    over lam |- d of f^lam s_lam(1^k/1^j) is (k + j)^d.  A degree whose
    bound does not fit starts the check over with wider slots.  An integer
    spans at most w R (1 + e_2) bits, so the images grow with the degree
    bound, not with k + j.
    """
    for name, value in (("k", k), ("j", j), ("n", n)):
        if value < 0:
            raise ValueError(f"{name} must be a nonnegative integer, got {value}")
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    return _cauchy_first_failure(k, j, n, degree, (2 * max(k + j, 1) ** degree).bit_length() + 1)


def _slot(e: tuple, width: int, radix: int) -> tuple:
    """(key, bit offset) of the exponent e in a Cauchy image (``super_cauchy_check``)."""
    a, b = (*e, 0, 0)[:2]
    return (sum(e), a // radix, *e[2:-1]), width * (a % radix + radix * b)


def _image(coeffs: dict, width: int, radix: int) -> dict:
    """Kronecker image {key: integer} of a polynomial's coefficient dict."""
    out: dict = {}
    for e, c in coeffs.items():
        key, offset = _slot(e, width, radix)
        out[key] = out.get(key, 0) + (c << offset)
    return out


def _times(x: dict, y: dict) -> dict:
    """Product of two images whose exponents stay below the radix."""
    out: dict = {}
    for key1, v1 in x.items():
        for key2, v2 in y.items():
            key = tuple(map(add, key1, key2))
            out[key] = out.get(key, 0) + v1 * v2
    return out


def _cauchy_first_failure(k: int, j: int, n: int, degree: int, width: int) -> int | None:
    """``super_cauchy_check`` in slots of ``width`` bits, started over wider when too narrow."""
    radix = degree + 1
    nv = k + j
    # f[m], one factor at a time in place: times (1 - q_a z)^-1 the new
    # f_m is f_m + q_a * (new f_(m-1)), times (1 + u_c z) it is f_m + u_c * f_(m-1)
    f = [_image({(0,) * nv: 1}, width, radix)] + [{} for _ in range(degree)]
    for a in range(nv):
        step, shift = _slot(tuple(int(i == a) for i in range(nv)), width, radix)
        for m in range(1, degree + 1) if a < k else range(degree, 0, -1):
            for key, v in f[m - 1].items():
                key = tuple(map(add, key, step))
                f[m][key] = f[m].get(key, 0) + (v << shift)
    lhs = {(): f[0]}  # image of the coefficient of z^mu, keyed by the partition mu
    for d in range(degree + 1):
        schur = {lam: super_schur(lam, k, j).coeffs for lam in expansion_shapes(k, j, n, d)}
        right = sum(syt_count(lam) * sum(map(abs, c.values())) for lam, c in schur.items())
        bound = (k + j) ** d + right  # above every coefficient of either side at degree d
        if bound.bit_length() >= width:
            return _cauchy_first_failure(k, j, n, degree, bound.bit_length() + 1)
        images = {lam: _image(c, width, radix) for lam, c in schur.items()}
        for mu in _partitions_within(d, n, d):
            if mu:
                lhs[mu] = _times(lhs[mu[:-1]], f[mu[-1]])
            diff = {key: -v for key, v in lhs[mu].items()}  # right side minus left side
            for lam, image in images.items():
                mult = _kostka(lam, mu)
                if mult:
                    for key, v in image.items():
                        diff[key] = diff.get(key, 0) + mult * v
            if any(diff.values()):
                return d
    return None


def expansion_tableau_bound(k: int, j: int, n: int, degree: int) -> int:
    """The tableaux of the super Schur polynomials an expansion up to ``degree`` may build.

    ``expand_super_schur`` builds ``super_schur(lam, k, j)`` for shapes of
    ``expansion_shapes`` up to the polynomial's degree, each once
    (memoized), and each monomial counts at least one tableau, so this
    bounds a whole coefficient table of a ring too.
    """
    return sum(
        _tableau_count(lam, k, j)
        for d in range(degree + 1)
        for lam in expansion_shapes(k, j, n, d)
    )


def cauchy_tableau_bound(k: int, j: int, n: int, degree: int) -> int:
    """The tableaux behind the monomials ``super_cauchy_check`` builds or reads.

    Per shape lam of the check: the s_lam(1^n) tableaux of s_lam(z) in the
    n letters z, whose monomials carry the Kostka numbers the check may
    read, and the tableaux of ``super_schur(lam, k, j)``.
    """
    return sum(
        _tableau_count(lam, n, 0) + _tableau_count(lam, k, j)
        for d in range(degree + 1)
        for lam in expansion_shapes(k, j, n, d)
    )
