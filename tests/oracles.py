"""Test-only oracles: plain, independent implementations to check the engine.

Nothing here runs in production.  ``rref`` is a textbook rational
Gauss–Jordan elimination on ``Fraction`` values that shares no code with
``supercoinv.exactla``; ``bareiss_rank`` is a dense fraction-free rank;
``restricted_trace`` reads a trace off any reduced-echelon basis object;
``reynolds`` averages a polynomial over all of S_n, and
``monomial_space_dim`` counts a component's monomials in closed form.
``jacobi_trudi_perm`` expands the Jacobi–Trudi determinant as a sum over
all permutations, and ``cauchy_oracle`` runs the truncated super Cauchy
comparison on ``QUPoly`` coefficients indexed by z-exponents.
``full_invariant_scan`` is the ideal-side series scan with the invariants of
every degree among the generators, which the engine replaced above total
degree n by the degree bound and the quotient-side recursion.
``koszul_relations`` offers every super-Koszul relation of a quotient
component, with none of the engine's chain-criterion pruning.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb, gcd

from supercoinv import coinvariant, superring, superschur
from supercoinv.coinvariant import shell_multidegrees
from supercoinv.exactla import SubspaceBasis, SubspaceNotInvariant
from supercoinv.qcombinat import partitions_of
from supercoinv.snchar import class_representative, frobenius_decompose
from supercoinv.superring import act_poly, poly_add_term
from supercoinv.superschur import CauchyResult, QUPoly, _complete_homogeneous, _wmul


def _axpy(w: dict, c, row: dict) -> dict:
    """w + c * row, without stored zeros."""
    out = dict(w)
    for i, v in row.items():
        nv = out.get(i, 0) + c * v
        if nv:
            out[i] = nv
        else:
            out.pop(i, None)
    return out


def _residual(rows: dict, vec: dict) -> dict:
    w = {i: Fraction(v) for i, v in vec.items() if v}
    for p, row in rows.items():
        if w.get(p):
            w = _axpy(w, -w[p], row)
    return w


def rref(vectors, dim: int) -> dict:
    """Reduced row echelon form of the span: pivot -> row over Q.

    Each row is a dict of Fractions with value 1 at its pivot (the least
    coordinate it touches) and value 0, not stored, at every other pivot.
    """
    rows: dict = {}
    for vec in vectors:
        if any(not 0 <= i < dim for i in vec):
            raise ValueError(f"vector leaves Q^{dim}")
        w = _residual(rows, vec)
        if not w:
            continue
        p = min(w)
        w = {i: v / w[p] for i, v in w.items()}
        for q, other in rows.items():
            if other.get(p):
                rows[q] = _axpy(other, -other[p], w)
        rows[p] = w
    return rows


class OracleBasis:
    """The ``rref`` rows behind the read-only part of the basis interface."""

    def __init__(self, vectors, dim: int):
        self._rows = rref(vectors, dim)
        self.pivots = sorted(self._rows)
        self.vectors = [self._rows[p] for p in self.pivots]

    def reduce(self, vec: dict) -> dict:
        return _residual(self._rows, vec)

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def coefficients(self, vec: dict):
        if not self.contains(vec):
            return None
        return [Fraction(vec.get(p, 0)) for p in self.pivots]


def restricted_trace(basis, apply_map, check: bool = True):
    """Trace of a linear map restricted to span(basis).

    ``apply_map`` sends a sparse vector to its image.  The basis rows may
    carry any nonzero value d at their pivot; the coefficient of a row in an
    image is read as the image's pivot entry over d.  With ``check`` the image
    of every basis vector is verified to lie in the span (raising
    SubspaceNotInvariant otherwise).
    """
    total = 0
    for p, row in zip(basis.pivots, basis.vectors):
        img = apply_map(row)
        if check and basis.reduce(img):
            raise SubspaceNotInvariant(f"image of basis vector with pivot {p} leaves the subspace")
        total += Fraction(img.get(p, 0)) / row[p]
    return total


def bareiss_rank(rows) -> int:
    """Rank via dense fraction-free (Bareiss) elimination.

    Accepts any rational dense matrix; rows are scaled to integers first.
    """
    m = []
    for row in rows:
        scaled = [Fraction(v) for v in row]
        lcm = 1
        for v in scaled:
            if v.denominator != 1:
                g = gcd(lcm, v.denominator)
                lcm = lcm // g * v.denominator
        m.append([int(v * lcm) for v in scaled])
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    row = 0
    for col in range(nc):
        piv = None
        for r in range(row, nr):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        for r in range(row + 1, nr):
            for c in range(col + 1, nc):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nr:
            break
    return rank


def monomial_space_dim(n: int, k: int, j: int, r, s) -> int:
    dim = 1
    for ra in r:
        dim *= comb(ra + n - 1, n - 1)
    for sc in s:
        dim *= comb(n, sc)
    return dim


@cache
def all_perms(n: int) -> tuple:
    return tuple(permutations(range(n)))


def reynolds(n: int, poly: dict) -> dict:
    """Group average over all of S_n (exact rational coefficients)."""
    out: dict = {}
    perms = all_perms(n)
    for sigma in perms:
        for m, c in act_poly(sigma, poly).items():
            poly_add_term(out, m, c)
    scale = Fraction(1, len(perms))
    return {m: c * scale for m, c in out.items()}


def jacobi_trudi_perm(lam, nvars: int) -> dict:
    """Weight dict of s_lam via det(h_(lam_i - i + j)) summed over all ell! permutations."""
    ell = len(lam)
    if ell == 0:
        return {(0,) * nvars: 1}
    out: dict[tuple, int] = {}
    for perm in permutations(range(ell)):
        sign = 1
        for a in range(ell):
            for b in range(a + 1, ell):
                if perm[a] > perm[b]:
                    sign = -sign
        prod = {(0,) * nvars: sign}
        for i in range(ell):
            r = lam[i] - i + perm[i]
            h = _complete_homogeneous(r, nvars)
            if not h:
                prod = {}
                break
            prod = _wmul(prod, h)
        for e, c in prod.items():
            out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _unit(nv: int, idx: int, m: int) -> tuple:
    e = [0] * nv
    e[idx] = m
    return tuple(e)


def cauchy_oracle(k: int, j: int, n: int, degree: int) -> CauchyResult:
    """Truncated super Cauchy comparison with a ``QUPoly`` per z-exponent.

    Reads ``super_schur`` and ``_schur_weights`` from the module at call time,
    so a test that patches them there changes both this and the engine.
    """
    lhs: dict[tuple, QUPoly] = {(0,) * n: QUPoly.one(k, j)}

    def mul_factor(series, terms):
        # terms: list of (z-exponent increment at position i, QUPoly factor)
        out: dict[tuple, QUPoly] = {}
        for ze, coeff in series.items():
            room = degree - sum(ze)
            for (pos, m), f in terms:
                if m > room:
                    continue
                ne = list(ze)
                ne[pos] += m
                te = tuple(ne)
                cur = out.get(te)
                add = coeff * f
                out[te] = add if cur is None else cur + add
        return {e: c for e, c in out.items() if not c.is_zero()}

    for i in range(n):
        for a in range(k):
            geom = [((i, m), QUPoly.monomial(k, j, _unit(k + j, a, m))) for m in range(degree + 1)]
            lhs = mul_factor(lhs, geom)
        for c in range(j):
            fact = [((i, 0), QUPoly.one(k, j)), ((i, 1), QUPoly.variable(k, j, k + c))]
            lhs = mul_factor(lhs, fact)

    rhs: dict[tuple, QUPoly] = {}
    for d in range(degree + 1):
        for lam in superschur.expansion_shapes(k, j, n, d):
            squ = superschur.super_schur(lam, k, j)
            if squ.is_zero():
                continue
            for w in superschur._schur_weights(lam, n):
                cur = rhs.get(w)
                rhs[w] = squ if cur is None else cur + squ

    for d in range(degree + 1):
        lhs_d = {e: c for e, c in lhs.items() if sum(e) == d}
        rhs_d = {e: c for e, c in rhs.items() if sum(e) == d and not c.is_zero()}
        if lhs_d != rhs_d:
            return CauchyResult(False, d)
    return CauchyResult(True, None)


@cache
def full_invariant_scan(n: int, k: int, j: int):
    """Series of the ideal-side recursion with Inv_d at every multidegree.

    Every ideal component is the span of the variable-shifted lower
    components and the invariants, at every degree, and every character is
    the ambient trace minus the trace on the ideal, as the engine computed
    them before it stopped the ideal side at total degree n.  Returns
    (hilbert, frobenius, contained): quotient dimensions keyed by the flat
    exponent tuple, nonzero multiplicities keyed by (r, s), and for each
    multidegree of total degree above n whether its invariants already lie in
    the span of the shifted lower components, V * I_(d-1).
    """
    ideal: dict = {}
    hilbert: dict = {}
    frobenius: dict = {}
    contained: dict = {}
    total = 0
    while True:
        degs = shell_multidegrees(n, k, j, total)
        if not degs:
            break
        nonzero = False
        for deg in degs:
            r, s = deg
            basis = SubspaceBasis(len(superring.monomial_space(n, k, j, r, s)[0]))
            if total > 0:
                for g, d in enumerate(r + s):
                    if not d:
                        continue
                    if g < k:
                        kind, idx, pred = "b", g, (r[:g] + (d - 1,) + r[g + 1 :], s)
                    else:
                        c = g - k
                        kind, idx, pred = "f", c, (r, s[:c] + (d - 1,) + s[c + 1 :])
                    for pos in range(n):
                        signs, tgt = superring.shift_map(n, k, j, *pred, kind, idx, pos)
                        for row in ideal[pred].vectors:
                            vec = {tgt[i]: signs[i] * v for i, v in row.items() if signs[i]}
                            if vec:
                                basis.insert(vec)
                invariants = superring.invariant_vectors(n, k, j, r, s)[2]
                if total > n:
                    contained[deg] = all(basis.contains(vec) for vec in invariants)
                for vec in invariants:
                    basis.insert(vec)
            ideal[deg] = basis
            qdim = basis.dim - basis.rank
            if not qdim:
                continue
            nonzero = True
            hilbert[r + s] = qdim
            class_fn = {}
            for rho in partitions_of(n):
                signs, tgt = superring.permutation_action(n, k, j, r, s, class_representative(rho))
                ambient = sum(sg for i, (sg, t) in enumerate(zip(signs, tgt)) if t == i)

                def act(row, signs=signs, tgt=tgt):
                    return {tgt[i]: signs[i] * v for i, v in row.items()}

                class_fn[rho] = ambient - restricted_trace(basis, act, check=False)
            mults = frobenius_decompose(class_fn, n)
            frobenius[deg] = {mu: c for mu, c in mults.items() if c}
        if total > 0 and not nonzero:
            break
        total += 1
    return hilbert, frobenius, contained


def koszul_relations(cache, deg, below) -> SubspaceBasis:
    """The span of every super-Koszul relation of ``coinvariant._koszul_component``.

    One row per pair of variables v <= w and basis element s of
    Q_(deg - e_v - e_w): v (x) [w s] - eps w (x) [v s], eps = -1 for two odd
    variables, and v (x) [v s] for odd v, in the engine's border coordinates
    (blocks of the highest variable first).  ``below`` maps each multidegree
    of the shell below to its quotient component.
    """
    n, k = cache.n, cache.k
    preds = coinvariant._predecessors(deg, k)
    offset = {}
    ncols = 0
    for g in sorted(preds, reverse=True):
        for pos in reversed(range(n)):
            offset[g * n + pos] = ncols
            ncols += below[preds[g]].dim
    rel = SubspaceBasis(ncols)
    for v in offset:
        for w in offset:
            into_v = below[preds[v // n]].mult  # into Q_(deg - e_v)
            if w < v or w not in into_v:  # deg - e_v - e_w is not a multidegree
                continue
            odd = v // n >= k and w // n >= k
            if v == w:
                if odd:
                    for x, _dx in into_v[v]:
                        rel.insert({offset[v] + i: c for i, c in x.items()})
                continue
            eps = -1 if odd else 1
            into_w = below[preds[w // n]].mult
            for (x, dx), (y, dy) in zip(into_v[w], into_w[v]):
                row = {offset[v] + i: dy * c for i, c in x.items()}
                row.update((offset[w] + i, -eps * dx * c) for i, c in y.items())
                rel.insert(row)
    return rel
