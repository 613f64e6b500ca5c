"""Test-only oracles: plain, independent implementations to check the engine.

Nothing here runs in production.  ``rref`` is a textbook rational
Gauss–Jordan elimination on ``Fraction`` values that shares no code with
``supercoinv.exactla``; ``bareiss_rank`` is a dense fraction-free rank;
``restricted_trace`` reads a trace off any reduced-echelon basis object;
``span_basis`` builds a ``SubspaceBasis`` from rational vectors, each
inserted with its denominators cleared (``integral``), as ``reduced`` and
``in_span`` clear those of the vectors they read;
``reynolds`` averages a polynomial over all of S_n, and
``monomial_space_dim`` counts a component's monomials in closed form.
Schur polynomials by tableau enumeration: ``schur_poly`` and
``skew_schur_poly`` list every semistandard filling (``_skew_tableau_weights``),
and ``_schur_weights`` compares each straight shape with the Jacobi–Trudi
determinant ``_jacobi_trudi`` (packed exponents, memoized minors), itself
checked against ``jacobi_trudi_perm``, the sum over all permutations with
tuple exponents (``_wmul``).  On them ``super_schur_sum`` builds
s_lam(q/u) = sum over nu of s_nu(q) s_(lam'/nu')(u) and ``kostka_count``
counts tableaux of one weight, the references for the engine's strip
branching, and ``ssyt_count`` counts a shape's tableaux by the hook-content
formula.  ``solve_columns`` expands a vector in given columns by one
linear solve, the reference for expansions read off leading monomials.
``cauchy_oracle`` runs the truncated super Cauchy comparison on ``QUPoly``
coefficients indexed by every z-exponent, not only the dominant ones,
``cauchy_dominant_oracle`` the dominant-exponent comparison on ``QUPoly``
products that the engine replaced by Kronecker integers, and
``cauchy_full_sweep`` is the Cauchy check's grid with every alphabet size nn
compared.  ``q_number``, ``q_factorial``, ``q_binomial``, ``q_stirling`` and
``sagan_swanson_sum`` build the q-analogues by ``QUPoly`` products, the
references for the engine's integer recursions.
``full_invariant_scan`` is the ideal-side series scan with the invariants of
every degree among the generators, which the engine replaced by the
polarized power sums and the quotient-side recursion.
``koszul_relations`` offers every super-Koszul relation of a quotient
component, with none of the engine's chain-criterion pruning.
``class_matrices`` writes the matrix of every non-identity class on every
stored quotient component, where the engine keeps the matrices of a few
classes and reads the other traces off products of two.

The ring itself has two representations here, which the engine no longer
has.  The monomial model: a ring element of one multidegree component is an
integer vector over the component's monomials (``monomial_space``), and
variables, permutations and superderivations act through index maps
(``shift_map``, ``permutation_action``, ``derivation_map``), with invariant
bases by orbit walks (``invariant_vectors``).  On it ``ideal_component``
builds I_d by the recursion of the generator statement, ``quotient_character``
reads characters as ambient trace minus ideal trace, and
``ideal_closure_witness`` is the ideal-side closure check the engine's
quotient-side one is compared with.  And dict polynomials
{monomial: coefficient} with ``poly_mul``, ``act_poly`` and
``superderivation`` (the polarization operators), the references for the
index maps.  ``as_partition`` and ``class_size`` are small closed forms only
tests use.
``frobenius_decompose`` and ``gl_restriction_mult`` are the character inner
products summed in ``Fraction`` arithmetic, one term over z_rho at a time:
the references for the engine's integer kernels in ``supercoinv.snchar``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import comb, factorial, gcd, lcm

from supercoinv import coinvariant, superschur
from supercoinv.coinvariant import shell_multidegrees
from supercoinv.exactla import SubspaceBasis
from supercoinv.qcombinat import _partitions_within, conjugate, partitions_of
from supercoinv.snchar import (
    _mn,
    _power_sum_on_class,
    class_representative,
    irreducible_character,
    z_order,
)
from supercoinv.superring import _compositions
from supercoinv.superschur import QUPoly


class SubspaceNotInvariant(ValueError):
    """A map sends a basis vector out of the subspace (``restricted_trace``)."""


class DimensionMismatch(ValueError):
    """A vector has a coordinate outside the ambient space of a basis (``in_span``)."""


# --- a SubspaceBasis on rational vectors (the engine takes integers only) ------


def _exact_div(a, b: int):
    """a / b as int when exact, Fraction otherwise."""
    q, r = divmod(a, b)
    return q if not r else Fraction(a, b)


def integral(vec: dict) -> tuple:
    """(den * vec, den): a rational vector times its least common denominator."""
    den = lcm(*(Fraction(v).denominator for v in vec.values()))
    return {i: int(v * den) for i, v in vec.items()}, den


def span_basis(vectors, dim: int) -> SubspaceBasis:
    """Reduced-echelon basis of the span of the given sparse rational vectors.

    Each vector is inserted with its denominators cleared.  The basis is
    unique, so the order of the vectors does not matter.
    """
    basis = SubspaceBasis(dim)
    for vec in vectors:
        basis.insert(integral(vec)[0])
    return basis


def rows_of(basis) -> list:
    """The stored primitive integer rows of a basis, in pivot order."""
    return [basis.row(p) for p in basis.pivots]


def reduced(basis, vec: dict) -> dict:
    """Residual of the rational vec after eliminating every pivot coordinate of the basis."""
    w, den = integral(vec)
    w, scale = basis.scaled_residual(w)
    scale *= den
    if scale == 1:
        return w
    return {i: _exact_div(v, scale) for i, v in w.items()}


def in_span(basis, vec: dict) -> bool:
    """Whether vec lies in the span of the basis, every coordinate checked against its space."""
    for i in vec:
        if not 0 <= i < basis.dim:
            raise DimensionMismatch(f"coordinate {i} outside ambient dimension {basis.dim}")
    return not basis.scaled_residual(integral(vec)[0])[0]


def contains(lam, nu) -> bool:
    """Young-diagram containment nu ⊆ lam."""
    if len(nu) > len(lam):
        return False
    return all(nu[i] <= lam[i] for i in range(len(nu)))


# --- the monomial model ------------------------------------------------------
# A monomial is a pair (bos, fer): ``bos`` is a k-tuple of length-n exponent
# tuples, ``fer`` a j-tuple of n-bit occupancy masks (bit p set means the
# fermionic variable of that set at position p occurs).  Monomials are always
# canonical -- fermionic factors are implicitly ordered by (set index,
# position index) ascending -- and never carry a sign themselves; all signs
# produced by reordering land in vector entries.

Monomial = tuple


def mono_mul(a: Monomial, b: Monomial):
    """Product of canonical monomials: (sign, monomial) or None when zero.

    ``shift_map`` reads the same products off the factor lists instead.  The
    sign counts the inversions needed to merge the two canonical fermionic
    factor sequences; a shared occupied slot kills the product.
    """
    abos, afer = a
    bbos, bfer = b
    if len(abos) != len(bbos) or len(afer) != len(bfer):
        raise ValueError("monomials come from different variable contexts")
    inv = 0
    lower_b = 0
    for c in range(len(afer)):
        am, bm = afer[c], bfer[c]
        if am & bm:
            return None
        inv += am.bit_count() * lower_b
        if am and bm:
            mm = bm
            while mm:
                low = mm & -mm
                pos = low.bit_length() - 1
                inv += (am >> (pos + 1)).bit_count()
                mm ^= low
        lower_b += bm.bit_count()
    bos = tuple(tuple(x + y for x, y in zip(ea, eb)) for ea, eb in zip(abos, bbos))
    fer = tuple(am | bm for am, bm in zip(afer, bfer))
    return (-1) ** inv, (bos, fer)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _act_exponents(sigma, e: tuple) -> tuple:
    out = [0] * len(e)
    for i, x in enumerate(e):
        if x:
            out[sigma[i]] = x
    return tuple(out)


def _act_mask(sigma, mask: int):
    """(sign, image mask): the sign is the parity sigma induces on the occupied positions."""
    imgs = [sigma[i] for i in _bits(mask)]
    inv = 0
    for t in range(len(imgs)):
        for u in range(t + 1, len(imgs)):
            if imgs[t] > imgs[u]:
                inv += 1
    nm = 0
    for i in imgs:
        nm |= 1 << i
    return (-1 if inv & 1 else 1), nm


@cache
def _masks(count: int, n: int) -> tuple:
    """All n-bit masks with the given popcount, ascending as integers."""
    if count < 0 or count > n:
        return ()
    out = [m for m in range(1 << n) if m.bit_count() == count]
    return tuple(out)


def _groups(n: int, r, s) -> list:
    """Per-set factor lists of a component: compositions, then masks."""
    return [_compositions(ra, n) for ra in r] + [_masks(sc, n) for sc in s]


@cache
def monomial_space(n: int, k: int, j: int, r, s):
    """Canonically ordered monomial basis of a multidegree component.

    Returns (monomials, index) where index maps monomial -> position.  The
    order is the lexicographic product of per-set composition lists and mask
    lists; it is fixed so matrix layouts and cache files are reproducible.
    The index of a monomial is therefore mixed radix in the positions of its
    per-set factors within those lists, the last set varying fastest, which
    ``_index_map`` relies on.
    """
    r = tuple(r)
    s = tuple(s)
    if len(r) != k or len(s) != j:
        raise ValueError("multidegree arity mismatch")
    if any(x < 0 for x in r) or any(x < 0 for x in s):
        raise ValueError("multidegree must be nonnegative")
    if any(x > n for x in s):
        return (), {}
    monos = []
    for combo in product(*_groups(n, r, s)):
        bos = tuple(combo[:k])
        fer = tuple(combo[k:])
        monos.append((bos, fer))
    index = {m: i for i, m in enumerate(monos)}
    return tuple(monos), index


def _index_map(factor_maps, index: dict):
    """Signed index map of a component assembled from one map per set.

    ``factor_maps[g]`` is (signs, positions, size): the factor at position d
    of the g-th per-set list goes to ``signs[d]`` times the factor at
    ``positions[d]`` of a target list of ``size`` factors, sign 0 where the
    image vanishes.  Positions combine in the mixed radix of
    ``monomial_space`` and signs multiply.  Returns (signs, targets), two
    lists over the source component; the targets are the int objects of the
    target component's ``index``, so the vectors keyed by them share them.
    """
    signs, targets = [1], [0]
    for fsigns, fpositions, size in factor_maps:
        signs = [a * b for a in signs for b in fsigns]
        targets = [a * size + b for a in targets for b in fpositions]
    canon = list(index.values())
    return signs, [canon[t] if sign else 0 for sign, t in zip(signs, targets)]


def permutation_action(n: int, k: int, j: int, r, s, sigma):
    """Signed index permutation of sigma on a component, as (signs, targets).

    Monomial i goes to ``signs[i]`` times monomial ``targets[i]``, the sign
    being the parity sigma induces on the occupied positions of each
    fermionic set; each per-set factor is acted on once, not each monomial.
    """
    maps = []
    for g, factors in enumerate(_groups(n, r, s)):
        where = {f: d for d, f in enumerate(factors)}
        if g < k:
            fsigns = [1] * len(factors)
            images = [_act_exponents(sigma, e) for e in factors]
        else:
            fsigns, images = [], []
            for mask in factors:
                sign, image = _act_mask(sigma, mask)
                fsigns.append(sign)
                images.append(image)
        maps.append((fsigns, [where[f] for f in images], len(factors)))
    return _index_map(maps, monomial_space(n, k, j, r, s)[1])


def shift_map(n: int, k: int, j: int, r, s, kind: str, set_idx: int, pos: int):
    """Signed index map of left multiplication by one variable on component (r, s).

    The variable is bosonic (``kind == "b"``) or fermionic (``"f"``), of set
    ``set_idx`` at position ``pos``.  Returns (signs, targets) over the
    component: the product with ``monos[i]`` is ``signs[i]`` times monomial
    ``targets[i]`` of the component one degree higher in that set, or zero
    where ``signs[i] == 0`` (the fermion is already present).  Entry by entry
    this is what ``mono_mul(variable, monos[i])`` gives, but it is read off
    the per-set factor lists instead of multiplying monomials.
    """
    groups = _groups(n, r, s)
    maps = [([1] * len(f), range(len(f)), len(f)) for f in groups]
    r2, s2 = list(r), list(s)
    if kind == "b":
        g = set_idx
        r2[set_idx] += 1
        target = _compositions(r2[set_idx], n)
        where = {e: d for d, e in enumerate(target)}
        fsigns = maps[g][0]
        fpositions = [where[e[:pos] + (e[pos] + 1,) + e[pos + 1 :]] for e in groups[g]]
    else:
        g = k + set_idx
        s2[set_idx] += 1
        target = _masks(s2[set_idx], n)
        where = {mask: d for d, mask in enumerate(target)}
        bit = 1 << pos
        # the new factor moves right past every fermion of the earlier sets
        # and past the lower positions of its own set
        before = sum(s[:set_idx])
        fsigns = [
            0 if mask & bit else -1 if (before + (mask & (bit - 1)).bit_count()) & 1 else 1
            for mask in groups[g]
        ]
        fpositions = [0 if mask & bit else where[mask | bit] for mask in groups[g]]
    maps[g] = (fsigns, fpositions, len(target))
    return _index_map(maps, monomial_space(n, k, j, tuple(r2), tuple(s2))[1])


def invariant_vectors(n: int, k: int, j: int, r, s):
    """Integer spanning vectors of the invariant subspace of a component.

    Each monomial orbit is walked breadth-first from its first unvisited
    monomial along the signed index maps of the adjacent transpositions,
    giving every monomial reached a sign.  Two conflicting signs for one
    monomial mean the stabilizer holds an element acting by -1, so the
    orbit's Reynolds sum cancels and the orbit contributes nothing.
    Otherwise the orbit's signed indicator is its Reynolds sum divided by
    the stabilizer order: the span, hence the reduced echelon basis, is the
    one full Reynolds sums give.  Every edge walked checks that the vector
    is fixed by that transposition; as every generator is checked on every
    orbit element, each returned vector is verified S_n-invariant, which is
    no weaker than auditing the finished vectors against the generators.
    """
    monos, index = monomial_space(n, k, j, r, s)
    gens = [permutation_action(n, k, j, r, s, tau) for tau in _adjacent_transpositions(n)]
    sign_of = [0] * len(monos)  # 0 while unvisited
    vectors = []
    for start in range(len(monos)):
        if sign_of[start]:
            continue
        sign_of[start] = 1
        orbit = [start]
        fixed = True
        for idx in orbit:  # grows while walked: breadth-first
            here = sign_of[idx]
            for signs, targets in gens:
                tgt = targets[idx]
                want = here * signs[idx]
                seen = sign_of[tgt]
                if not seen:
                    sign_of[tgt] = want
                    orbit.append(tgt)
                elif seen != want:
                    fixed = False
        if fixed:
            vectors.append({idx: sign_of[idx] for idx in orbit})
    return monos, index, vectors


def _adjacent_transpositions(n: int) -> tuple:
    gens = []
    for i in range(n - 1):
        tau = list(range(n))
        tau[i], tau[i + 1] = tau[i + 1], tau[i]
        gens.append(tuple(tau))
    return tuple(gens)


def invariant_basis(n: int, k: int, j: int, r, s) -> SubspaceBasis:
    """Reduced-echelon basis of the S_n-invariant subspace of a component."""
    monos, _index, vectors = invariant_vectors(n, k, j, r, s)
    return span_basis(vectors, len(monos))


# --- the ideal side ------------------------------------------------------------


@cache
def ideal_component(n: int, k: int, j: int, deg) -> SubspaceBasis:
    """Reduced-echelon basis of I_d: I_d = V * I_(d-1) + Q * P_d.

    The recursion of the generator statement in ``supercoinv.coinvariant``:
    every lower component times every variable of a set of positive degree
    (one signed index map per component and variable), and the polarized
    power sum P_d, the sum of the one-position monomials, when every
    fermionic degree is at most 1.
    """
    r, s = deg
    index = monomial_space(n, k, j, r, s)[1]
    vectors = []
    if sum(r) + sum(s):
        for g, pred in coinvariant._predecessors(deg, k).items():
            kind, idx = ("b", g) if g < k else ("f", g - k)
            lower = rows_of(ideal_component(n, k, j, pred))
            for pos in range(n):
                signs, tgt = shift_map(n, k, j, *pred, kind, idx, pos)
                for row in lower:
                    vec = {tgt[i]: signs[i] * v for i, v in row.items() if signs[i]}
                    if vec:
                        vectors.append(vec)
        if max(s, default=0) <= 1:
            power_sum = {}
            for p in range(n):
                bos = tuple(tuple(e if q == p else 0 for q in range(n)) for e in r)
                power_sum[index[(bos, tuple(f << p for f in s))]] = 1
            vectors.append(power_sum)
    return span_basis(vectors, len(index))


def quotient_character(n: int, k: int, j: int, deg, rho) -> Fraction:
    """Trace of a permutation of cycle type rho on R_d / I_d: ambient minus ideal trace."""
    if sum(rho) != n:
        raise ValueError(f"cycle type {rho} is not a partition of n={n}")
    signs, tgt = permutation_action(n, k, j, *deg, class_representative(rho))
    ambient = sum(sg for i, (sg, t) in enumerate(zip(signs, tgt)) if t == i)

    def act(row):
        return {tgt[i]: signs[i] * v for i, v in row.items()}

    return ambient - restricted_trace(ideal_component(n, k, j, deg), act)


def _factors(n: int, k: int, m) -> list:
    """The variables of a canonical monomial, as indices set * n + position, in order."""
    bos, fer = m
    out = [g * n + p for g, e in enumerate(bos) for p in range(n) for _ in range(e[p])]
    return out + [(k + c) * n + p for c, mask in enumerate(fer) for p in _bits(mask)]


def _variable(n: int, k: int, j: int, v: int):
    g, p = divmod(v, n)
    bos = tuple(tuple(int(g == a and q == p) for q in range(n)) for a in range(k))
    return bos, tuple(1 << p if g == k + c else 0 for c in range(j))


def derivation(n: int, k: int, j: int, m, op) -> dict:
    """A superderivation of one canonical monomial, from its variable images, as a dict polynomial.

    ``op`` has the fields of ``supercoinv.checks.Polarization``: variable
    ``v`` goes to ``op.image[v]`` (0 when absent), and ``op.odd`` is the
    parity.  The monomial v_1 ... v_m (bosons first, then fermions by set and
    position) goes to the sum over i of eps_i v_1 ... E(v_i) ... v_m, the
    product taken factor by factor with ``mono_mul``, eps_i = -1 when E is
    odd and an odd number of fermions precede v_i.
    """
    out: dict = {}
    factors = _factors(n, k, m)
    for i, v in enumerate(factors):
        if v not in op.image:
            continue
        sign, prod = 1, mono_one(n, k, j)
        for f in factors[:i] + [op.image[v]] + factors[i + 1 :]:
            step = mono_mul(prod, _variable(n, k, j, f))
            if step is None:
                break
            sign *= step[0]
            prod = step[1]
        else:
            if op.odd and sum(f // n >= k for f in factors[:i]) % 2:
                sign = -sign
            poly_add_term(out, prod, sign)
    return out


def derivation_map(n: int, k: int, j: int, deg, op):
    """Index map of ``derivation`` on component ``deg``.

    ``op.source`` and ``op.target`` are the sets of the keys and values of
    ``op.image``.  Returns (image multidegree, images), ``images[i]`` the
    image of monomial i as {coordinate: coefficient}, or None when the
    source set has degree 0 on the component.
    """
    flat = list(deg[0] + deg[1])
    if not flat[op.source]:
        return None
    flat[op.source] -= 1
    flat[op.target] += 1
    img_deg = (tuple(flat[:k]), tuple(flat[k:]))
    index = monomial_space(n, k, j, *img_deg)[1]
    images = [
        {index[m2]: c for m2, c in derivation(n, k, j, m, op).items()}
        for m in monomial_space(n, k, j, *deg)[0]
    ]
    return img_deg, images


def ideal_closure_witness(n: int, k: int, j: int, operators):
    """(multidegree, operator) of the first ideal vector an operator maps out of I, or None.

    The ideal-side closure check: every basis vector of I_d, |d| <= n, in
    the order of the shells, goes through every operator (``derivation_map``)
    and must land in the ideal component of its image degree.
    """
    for total in range(n + 1):
        for deg in sorted(shell_multidegrees(n, k, j, total)):
            basis = ideal_component(n, k, j, deg)
            if not rows_of(basis):
                continue
            for op in operators:
                mapped = derivation_map(n, k, j, deg, op)
                if mapped is None:
                    continue
                img_deg, images = mapped
                for row in rows_of(basis):
                    vec: dict = {}
                    for i, v in row.items():
                        for t, c in images[i].items():
                            poly_add_term(vec, t, c * v)
                    if vec and not in_span(ideal_component(n, k, j, img_deg), vec):
                        return deg, op
    return None


# --- dict polynomials --------------------------------------------------------
# A polynomial is {canonical monomial: coefficient} with no stored zeros, in
# the layout of the monomial model above.


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


def solve_columns(columns, rhs: dict, dim: int):
    """Exact solution c of  sum_i c[i] * columns[i] == rhs,  or None.

    The linear-solve reference for super Schur expansions: one
    ``SubspaceBasis`` of the columns, each tagged by its own coordinate past
    ``dim``.  Raises ValueError when the columns are linearly dependent.
    """
    ncols = len(columns)
    basis = SubspaceBasis(dim + ncols)
    for idx, col in enumerate(columns):
        tagged = dict(col)
        tagged[dim + idx] = 1
        basis.insert(integral(tagged)[0])
    # a column whose pivot landed in the tag block is a dependency relation
    for p in basis.pivots:
        if p >= dim:
            raise ValueError("dependent columns detected")
    resid = reduced(basis, dict(rhs))
    if any(i < dim for i in resid):
        return None
    coeffs = [0] * ncols
    for i, v in resid.items():
        coeffs[i - dim] = -v
    return coeffs


def restricted_trace(basis, apply_map, check: bool = True):
    """Trace of a linear map restricted to span(basis).

    ``apply_map`` sends a sparse vector to its image.  The basis rows may
    carry any nonzero value d at their pivot; the coefficient of a row in an
    image is read as the image's pivot entry over d.  With ``check`` the image
    of every basis vector is verified to lie in the span (raising
    SubspaceNotInvariant otherwise).
    """
    total = 0
    for p, row in zip(basis.pivots, rows_of(basis)):
        img = apply_map(row)
        if check and reduced(basis, img):
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


# --- Schur polynomials by tableau enumeration -------------------------------


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


def _skew_tableau_weights(lam, nu, nvars: int) -> tuple:
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


def _jacobi_trudi(lam, nvars: int) -> dict:
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
def _schur_weights(lam, nvars: int) -> tuple:
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
def _skew_weights(lam, nu, nvars: int) -> tuple:
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


def schur_poly(lam, slots, k: int, j: int) -> QUPoly:
    """Schur polynomial of shape lam in the variables named by slot indices.

    Returns zero when lam has more rows than variables.
    """
    lam = tuple(lam)
    slots = list(slots)
    if len(lam) > len(slots):
        return QUPoly.zero(k, j)
    return _weights_to_qupoly(_schur_weights(lam, len(slots)), slots, k, j)


def skew_schur_poly(lam, nu, slots, k: int, j: int) -> QUPoly:
    """Skew Schur polynomial of lam/nu; requires nu ⊆ lam."""
    lam, nu = tuple(lam), tuple(nu)
    if not contains(lam, nu):
        raise ValueError(f"{nu} is not contained in {lam}")
    slots = list(slots)
    return _weights_to_qupoly(_skew_weights(lam, nu, len(slots)), slots, k, j)


def super_schur_sum(lam, k: int, j: int) -> QUPoly:
    """s_lam(q/u) = sum over nu ⊆ lam of s_nu(q) * s_(lam'/nu')(u), by tableaux."""
    lam = tuple(lam)
    qslots = list(range(k))
    uslots = list(range(k, k + j))
    total = QUPoly.zero(k, j)
    for size in range(sum(lam) + 1):
        for nu in partitions_of(size):
            if contains(lam, nu):
                qpart = schur_poly(nu, qslots, k, j)
                total = total + qpart * skew_schur_poly(conjugate(lam), conjugate(nu), uslots, k, j)
    return total


def kostka_count(lam, mu, n: int) -> int:
    """Semistandard tableaux of shape lam in n letters with weight mu (padded with 0s)."""
    weight = tuple(mu) + (0,) * (n - len(mu))
    return sum(1 for w in _schur_weights(tuple(lam), n) if w == weight)


def ssyt_count(lam, n: int) -> int:
    """Semistandard tableaux of shape lam with entries <= n, by the hook-content formula.

    The product over the cells (i, c) of (n + c - i) / hook(i, c); a shape
    with more than n rows gets a zero factor in row n.
    """
    lamc = conjugate(lam)
    num = den = 1
    for i, part in enumerate(lam):
        for c in range(part):
            num *= n + c - i
            den *= part - c + lamc[c] - i - 1
    return num // den


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


def cauchy_oracle(k: int, j: int, n: int, degree: int) -> int | None:
    """Truncated super Cauchy comparison with a ``QUPoly`` per z-exponent.

    Returns the first failing z-degree, or None, as ``super_cauchy_check``.

    Reads ``super_schur`` from the engine module at call time, so a test
    that patches it there changes both this and the engine; s_lam(z) comes
    from the tableau weights of ``_schur_weights``.
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
            for w in _schur_weights(lam, n):
                cur = rhs.get(w)
                rhs[w] = squ if cur is None else cur + squ

    for d in range(degree + 1):
        lhs_d = {e: c for e, c in lhs.items() if sum(e) == d}
        rhs_d = {e: c for e, c in rhs.items() if sum(e) == d and not c.is_zero()}
        if lhs_d != rhs_d:
            return d
    return None


def cauchy_dominant_oracle(k: int, j: int, n: int, degree: int) -> int | None:
    """The dominant-exponent Cauchy comparison on ``QUPoly`` products.

    As ``superschur.super_cauchy_check`` compared before it held each side as
    a Kronecker integer: the left side at z^mu is prod_i f_(mu_i), memoized
    by prefix, and the right side sum over lam of K_(lam,mu) * super_schur(lam),
    both compared as (q,u) coefficient dicts.  Reads ``super_schur`` from the
    engine module at call time, as ``cauchy_oracle`` does.
    """
    f = [QUPoly.one(k, j)] + [QUPoly.zero(k, j)] * degree
    for a in range(k):
        q = QUPoly.variable(k, j, a)
        for m in range(1, degree + 1):
            f[m] = f[m] + q * f[m - 1]
    for c in range(j):
        u = QUPoly.variable(k, j, k + c)
        for m in range(degree, 0, -1):
            f[m] = f[m] + u * f[m - 1]
    lhs = {(): f[0]}
    for d in range(degree + 1):
        shapes = [
            (lam, superschur.super_schur(lam, k, j).coeffs)
            for lam in superschur.expansion_shapes(k, j, n, d)
        ]
        for mu in _partitions_within(d, n, d):
            if mu:
                lhs[mu] = lhs[mu[:-1]] * f[mu[-1]]
            rhs: dict[tuple, int] = {}
            for lam, coeffs in shapes:
                mult = superschur._kostka(lam, mu)
                for e, c in coeffs.items():
                    rhs[e] = rhs.get(e, 0) + mult * c
            if lhs[mu].coeffs != {e: c for e, c in rhs.items() if c}:
                return d
    return None


def q_number(d: int) -> QUPoly:
    """[d]_q = 1 + q + ... + q^(d-1); zero when d <= 0."""
    return QUPoly(1, 0, {(i,): 1 for i in range(max(d, 0))})


@cache
def q_factorial(d: int) -> QUPoly:
    """[d]_q! = [d]_q [d-1]_q ... [1]_q, by ``QUPoly`` products."""
    if d <= 0:
        return QUPoly.one(1, 0)
    return q_factorial(d - 1) * q_number(d)


@cache
def q_binomial(n: int, d: int) -> QUPoly:
    """Gaussian binomial by [n,d] = [n-1,d-1] + q^d [n-1,d]; zero outside 0 <= d <= n."""
    if d < 0 or n < 0 or d > n:
        return QUPoly.zero(1, 0)
    if d == 0 or d == n:
        return QUPoly.one(1, 0)
    return q_binomial(n - 1, d - 1) + QUPoly.monomial(1, 0, (d,)) * q_binomial(n - 1, d)


@cache
def q_stirling(n: int, d: int) -> QUPoly:
    """q-Stirling number by Stir(n,d) = [d]_q Stir(n-1,d) + Stir(n-1,d-1), Stir(0,d) = [d == 0]."""
    if n < 0 or d < 0:
        return QUPoly.zero(1, 0)
    if n == 0:
        return QUPoly.one(1, 0) if d == 0 else QUPoly.zero(1, 0)
    return q_number(d) * q_stirling(n - 1, d) + q_stirling(n - 1, d - 1)


def sagan_swanson_sum(n: int) -> QUPoly:
    """Sum over d of [d]_q! Stir_q(n,d) (-q)^(n-d), one ``QUPoly`` product per term."""
    total = QUPoly.zero(1, 0)
    for d in range(n + 1):
        sign_pow = QUPoly.monomial(1, 0, (n - d,), (-1) ** (n - d))
        total = total + q_factorial(d) * (q_stirling(n, d) * sign_pow)
    return total


def cauchy_full_sweep(n: int, kmax: int, jmax: int, degree: int) -> dict | None:
    """The witness of ``checks.check_cauchy`` from one comparison per (k, j, nn).

    Runs ``superschur.super_cauchy_check`` at every nn = 1..n of every
    (k, j), as the check did before it learned that the run at n decides the
    smaller ones; the first failure is the witness {k, j, n, first_failure}.
    """
    for k in range(kmax + 1):
        for j in range(jmax + 1):
            for nn in range(1, n + 1):
                failure = superschur.super_cauchy_check(k, j, nn, degree)
                if failure is not None:
                    return {"k": k, "j": j, "n": nn, "first_failure": failure}
    return None


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
            index = monomial_space(n, k, j, r, s)[1]
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
                        signs, tgt = shift_map(n, k, j, *pred, kind, idx, pos)
                        for row in rows_of(ideal[pred]):
                            vec = {tgt[i]: signs[i] * v for i, v in row.items() if signs[i]}
                            if vec:
                                basis.insert(vec)
                invariants = invariant_vectors(n, k, j, r, s)[2]
                shifted = all(in_span(basis, vec) for vec in invariants)
                if max(s, default=0) <= 1:
                    first = (tuple((e,) + (0,) * (n - 1) for e in r), tuple(s))
                    power_sum = {index[m]: c for m, c in reynolds(n, {first: 1}).items()}
                    basis.insert(integral(power_sum)[0])
                contained[deg] = (shifted, all(in_span(basis, vec) for vec in invariants))
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
                signs, tgt = permutation_action(n, k, j, r, s, class_representative(rho))
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


def _fraction_columns(matrix) -> list:
    """Engine columns (integer vector, denominator) as columns {row: Fraction}."""
    return [{i: Fraction(v, dx) for i, v in x.items()} for x, dx in matrix]


def _times(matrix, col: dict) -> dict:
    """A matrix (a list of columns {row: value}) times a column {row: value}."""
    out: dict = {}
    for i, c in col.items():
        for r, v in matrix[i].items():
            out[r] = out.get(r, 0) + c * v
    return {r: v for r, v in out.items() if v}


def class_matrices(n: int, k: int, j: int) -> dict:
    """deg -> {rho: matrix} on every component the scan stores, every non-identity class in full.

    The all-classes reference for ``snchar.trace_plan``: the matrix of each
    non-identity class representative sigma, written over each stored basis
    as a list of columns {row: Fraction}.  It is read off the quotient's own
    multiplication, with no elimination: basis element s is [u b], u its
    label and b its origin (a basis index, or a column where alphabet
    symmetry moved it) in the component one lower in u's set, and sigma is
    an algebra automorphism, so sigma(s) = [sigma(u) sigma(b)], the matrix
    of multiplication by sigma(u) times sigma's column of b one shell down.
    """
    identity = (1,) * n
    sigmas = {rho: class_representative(rho) for rho in partitions_of(n) if rho != identity}
    out: dict = {}
    below = None
    for shell in coinvariant._series_scan(coinvariant.IdealComponentCache(n, k, j)):
        for deg, comp in shell.items():
            if below is None:  # the unit of Q_0
                out[deg] = {rho: [{0: Fraction(1)}] for rho in sigmas}
                continue
            preds = coinvariant._predecessors(deg, k)
            mult = {v: _fraction_columns(m) for v, m in comp.mult.items()}
            out[deg] = {}
            for rho, sigma in sigmas.items():
                cols = []
                for u, b in zip(comp.labels, comp.origins):
                    lower = out[preds[u // n]][rho]
                    col = lower[b] if type(b) is int else _times(lower, _fraction_columns([b])[0])
                    cols.append(_times(mult[u - u % n + sigma[u % n]], col))
                out[deg][rho] = cols
        below = shell
    return out


# --- S_n character inner products in Fraction arithmetic ----------------------


def frobenius_decompose(class_fn, n: int) -> dict:
    """Multiplicities <f, chi^mu> of a class function over all mu of n.

    ``class_fn`` maps every cycle type (partition of n) to a rational value.
    Raises ValueError when some multiplicity fails to be an integer, which
    always signals an upstream bug.
    """
    out: dict = {}
    types = partitions_of(n)
    for mu in types:
        acc = Fraction(0)
        for rho in types:
            acc += Fraction(class_fn[rho] * irreducible_character(mu, rho), z_order(rho))
        if acc.denominator != 1:
            raise ValueError(f"non-integral multiplicity {acc} at mu={mu}")
        out[mu] = int(acc)
    return out


@cache
def gl_restriction_mult(lam, n: int) -> dict:
    """Multiplicities d_{lam,mu} of S_n-irreducibles in the GL(n)-irreducible lam.

    The trace of a permutation on the GL(n)-module is obtained from the
    power-sum expansion of the Schur function, then decomposed by characters.
    All outputs are nonnegative integers (the restriction is semisimple).
    """
    lam = tuple(lam)
    if len(lam) > n:
        raise ValueError(f"shape {lam} has more than n={n} rows")
    size = sum(lam)
    traces: dict = {}
    for tau in partitions_of(n):
        tr = Fraction(0)
        for rho in partitions_of(size):
            chi = _mn(lam, rho)
            if not chi:
                continue
            val = 1
            for r in rho:
                val *= _power_sum_on_class(r, tau)
                if not val:
                    break
            if val:
                tr += Fraction(chi * val, z_order(rho))
        if tr.denominator != 1:
            raise ValueError(f"non-integral trace {tr} at tau={tau}")
        traces[tau] = int(tr)
    mults = frobenius_decompose(traces, n)
    for mu, d in mults.items():
        if d < 0:
            raise ValueError(f"negative restriction multiplicity d[{lam},{mu}] = {d}")
    return mults


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
