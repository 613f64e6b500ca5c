"""Test-only oracles: plain, independent implementations to check the engine.

Nothing here runs in production.  ``rref`` is a textbook rational
Gauss–Jordan elimination on ``Fraction`` values that shares no code with
``supercoinv.exactla``; ``bareiss_rank`` is a dense fraction-free rank;
``restricted_trace`` reads a trace off any reduced-echelon basis object;
``reynolds`` averages a polynomial over all of S_n, and
``monomial_space_dim`` counts a component's monomials in closed form.
``jacobi_trudi_perm`` expands the Jacobi–Trudi determinant as a sum over
all permutations with tuple exponents (``_wmul``), and ``cauchy_oracle``
runs the truncated super Cauchy comparison on ``QUPoly`` coefficients
indexed by every z-exponent, not only the dominant ones.
``full_invariant_scan`` is the ideal-side series scan with the invariants of
every degree among the generators, which the engine replaced by the
polarized power sums and the quotient-side recursion.
``koszul_relations`` offers every super-Koszul relation of a quotient
component, with none of the engine's chain-criterion pruning.

Ring elements also have a second representation here, which the engine no
longer has: dict polynomials {monomial: coefficient} with ``poly_mul``,
``act_poly`` and ``superderivation`` (the polarization operators), the
references for the engine's signed index maps.  ``as_partition``
and ``class_size`` are small closed forms only tests use.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial, gcd

from supercoinv import coinvariant, superring, superschur
from supercoinv.coinvariant import shell_multidegrees
from supercoinv.exactla import SubspaceBasis, SubspaceNotInvariant
from supercoinv.qcombinat import partitions_of
from supercoinv.snchar import class_representative, frobenius_decompose, z_order
from supercoinv.superring import mono_mul
from supercoinv.superschur import CauchyResult, QUPoly, _complete_homogeneous


# --- dict polynomials --------------------------------------------------------
# A polynomial is {canonical monomial: coefficient} with no stored zeros, in
# the monomial layout of ``supercoinv.superring``.


def mono_one(n: int, k: int, j: int):
    return (((0,) * n,) * k, (0,) * j)


def mono_degree(m):
    """Multidegree (r, s): per-set bosonic totals and fermionic occupancies."""
    bos, fer = m
    return (tuple(sum(e) for e in bos), tuple(mask.bit_count() for mask in fer))


def act_mono(sigma, m):
    """Relabel positions by sigma: (sign, canonical monomial).

    The sign is the parity of the permutation induced on the occupied
    positions within each fermionic set (cross-set order never changes).
    """
    bos, fer = m
    n = len(sigma)
    sign = 1
    masks = []
    for mask in fer:
        images = [sigma[p] for p in range(n) if mask >> p & 1]
        sign *= (-1) ** sum(a > b for a, b in combinations(images, 2))
        masks.append(sum(1 << q for q in images))
    exps = []
    for e in bos:
        out = [0] * n
        for p, x in enumerate(e):
            out[sigma[p]] = x
        exps.append(tuple(out))
    return sign, (tuple(exps), tuple(masks))


def poly_add_term(poly: dict, mono, coeff) -> None:
    nv = poly.get(mono, 0) + coeff
    if nv:
        poly[mono] = nv
    else:
        poly.pop(mono, None)


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            prod = mono_mul(ma, mb)
            if prod is not None:
                sign, m = prod
                poly_add_term(out, m, sign * ca * cb)
    return out


def act_poly(sigma, poly: dict) -> dict:
    out: dict = {}
    for m, c in poly.items():
        sign, m2 = act_mono(sigma, m)
        poly_add_term(out, m2, sign * c)
    return out


def _fer_before(fer, c: int, pos: int) -> int:
    """Number of fermionic factors strictly before (set c, position pos)."""
    count = sum(fer[cc].bit_count() for cc in range(c))
    return count + (fer[c] & ((1 << pos) - 1)).bit_count()


def superderivation(poly: dict, target, source) -> dict:
    """Apply the polarization operator E_(target,source) = sum_p var_t(p) d/d var_s(p).

    ``target`` and ``source`` are ('b', index) or ('f', index) pairs selecting
    a bosonic or fermionic variable set.  Left superderivatives pick up the
    sign of moving past earlier fermionic factors; reinsertion of a fermionic
    factor contributes the analogous ordering sign.
    """
    tkind, ti = target
    skind, si = source
    out: dict = {}
    for m, c in poly.items():
        bos, fer = m
        if skind == "b":
            if not 0 <= si < len(bos):
                raise IndexError("bosonic source index out of range")
            exps = bos[si]
            for p, e in enumerate(exps):
                if not e:
                    continue
                nbos = list(bos)
                row = list(exps)
                row[p] = e - 1
                nbos[si] = tuple(row)
                _emit(out, (tuple(nbos), fer), c * e, tkind, ti, p)
        else:
            if not 0 <= si < len(fer):
                raise IndexError("fermionic source index out of range")
            mask = fer[si]
            for p in range(mask.bit_length()):
                if not mask >> p & 1:
                    continue
                sign = -1 if _fer_before(fer, si, p) & 1 else 1
                nfer = list(fer)
                nfer[si] = mask ^ (1 << p)
                _emit(out, (bos, tuple(nfer)), c * sign, tkind, ti, p)
    return out


def _emit(out: dict, m, coeff, tkind: str, ti: int, p: int) -> None:
    # multiply the derivative term on the left by the target variable at p
    bos, fer = m
    if tkind == "b":
        if not 0 <= ti < len(bos):
            raise IndexError("bosonic target index out of range")
        row = list(bos[ti])
        row[p] += 1
        nbos = list(bos)
        nbos[ti] = tuple(row)
        poly_add_term(out, (tuple(nbos), fer), coeff)
    else:
        if not 0 <= ti < len(fer):
            raise IndexError("fermionic target index out of range")
        if fer[ti] >> p & 1:
            return
        sign = -1 if _fer_before(fer, ti, p) & 1 else 1
        nfer = list(fer)
        nfer[ti] = fer[ti] | (1 << p)
        poly_add_term(out, (bos, tuple(nfer)), coeff * sign)


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


def _wmul(a: dict, b: dict) -> dict:
    """Product of two weight dicts keyed by exponent tuples."""
    out: dict[tuple, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


@cache
def _permutation_terms(lam) -> dict:
    """det(h_(lam_i - i + j)) as a sum over all ell! permutations.

    Each permutation contributes its sign times the product of the h's it
    picks; h's commute, so the terms are collected by the sorted tuple of
    their indices.  Products with a negative index vanish and are dropped,
    and so are the factors h_0 = 1.
    """
    ell = len(lam)
    terms: dict[tuple, int] = {}
    for perm in permutations(range(ell)):
        idx = sorted(lam[i] - i + perm[i] for i in range(ell))
        if idx and idx[0] < 0:
            continue
        idx = [r for r in idx if r]
        sign = 1
        for a in range(ell):
            for b in range(a + 1, ell):
                if perm[a] > perm[b]:
                    sign = -sign
        key = tuple(idx)
        terms[key] = terms.get(key, 0) + sign
    return terms


@cache
def _h_product(idx, nvars: int) -> dict:
    """Weight dict of h_(idx[0]) * h_(idx[1]) * ... in nvars variables."""
    if not idx:
        return {(0,) * nvars: 1}
    return _wmul(_h_product(idx[1:], nvars), _complete_homogeneous(idx[0], nvars))


def jacobi_trudi_perm(lam, nvars: int) -> dict:
    """Weight dict of s_lam via det(h_(lam_i - i + j)) summed over all ell! permutations."""
    out: dict[tuple, int] = {}
    for idx, sign in _permutation_terms(tuple(lam)).items():
        for e, c in _h_product(idx, nvars).items():
            out[e] = out.get(e, 0) + sign * c
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
    them before it had the quotient side.  Returns (hilbert, frobenius,
    contained): quotient dimensions keyed by the flat exponent tuple, nonzero
    multiplicities keyed by (r, s), and for each multidegree of positive
    degree whether its invariants lie in V * I_(d-1), the span of the shifted
    lower components, and whether they lie in V * I_(d-1) + Q * P_d, P_d
    taken as the Reynolds average of the one-position monomial at position 0.
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
            index = superring.monomial_space(n, k, j, r, s)[1]
            basis = SubspaceBasis(len(index))
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
                shifted = all(basis.contains(vec) for vec in invariants)
                if max(s, default=0) <= 1:
                    first = (tuple((e,) + (0,) * (n - 1) for e in r), tuple(s))
                    basis.insert({index[m]: c for m, c in reynolds(n, {first: 1}).items()})
                contained[deg] = (shifted, all(basis.contains(vec) for vec in invariants))
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


# --- closed forms only tests use ----------------------------------------------


def as_partition(parts):
    """Validate and normalize an iterable of parts into a partition tuple."""
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def class_size(rho) -> int:
    """Number of permutations with cycle type rho."""
    return factorial(sum(rho)) // z_order(rho)
