"""Free superalgebra on n positions with k bosonic and j fermionic variable sets.

A monomial is a pair (bos, fer): ``bos`` is a k-tuple of length-n exponent
tuples, ``fer`` a j-tuple of n-bit occupancy masks (bit p set means the
fermionic variable of that set at position p occurs).  Monomials are always
canonical -- fermionic factors are implicitly ordered by (set index, position
index) ascending -- and never carry a sign themselves.  A ring element of one
multidegree component is an integer vector {coordinate: value} over the
component's monomials in ``monomial_space`` order, and every operation on
elements -- a variable, a permutation, a polarization operator -- is an index
map between components, so all signs produced by reordering land in vector
entries.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .exactla import SubspaceBasis, span_basis

__all__ = [
    "mono_mul",
    "monomial_space",
    "permutation_action",
    "shift_map",
    "polarization_map",
    "invariant_vectors",
    "invariant_basis",
]

Monomial = tuple


def mono_mul(a: Monomial, b: Monomial):
    """Product of canonical monomials: (sign, monomial) or None when zero.

    No engine path multiplies monomials (``shift_map`` reads products off the
    factor lists); the test oracles use this product, and the benchmark's
    tracer counts its calls.  The sign counts the inversions needed to merge
    the two canonical fermionic factor sequences; a shared occupied slot kills
    the product.
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
def _compositions(total: int, n: int) -> tuple:
    """All length-n tuples of nonnegative ints summing to total, lex order."""
    if n == 0:
        return ((),) if total == 0 else ()
    if n == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, n - 1):
            out.append((first,) + rest)
    return tuple(out)


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


def polarization_map(n: int, k: int, j: int, r, s, target, source):
    """Integer-weighted index map of E_(target,source) = sum_p t_p d/d s_p on (r, s).

    ``target`` and ``source`` are ('b', set) or ('f', set) pairs: the
    polarization operators, which span the action of gl(k|j).  Term p is
    composed from two shift maps of the component one lower in the source
    set: the transpose of the map of s_p takes that factor off with its
    ordering sign (the left superderivative), scaled by its exponent for a
    boson, and the map of t_p puts the target variable on.  Returns (image
    multidegree, images), ``images[i]`` being the image of monomial i as
    {coordinate: coefficient}, or None when the source set has degree 0 on
    the component and the operator vanishes there.
    """
    (tkind, ti), (skind, si) = target, source
    low = [list(r), list(s)]
    g = 0 if skind == "b" else 1
    if not low[g][si]:
        return None
    low[g][si] -= 1
    r0, s0 = tuple(low[0]), tuple(low[1])
    up = [list(r0), list(s0)]
    up[0 if tkind == "b" else 1][ti] += 1
    lower = monomial_space(n, k, j, r0, s0)[0]
    images = [{} for _ in monomial_space(n, k, j, r, s)[0]]
    for p in range(n):
        down_signs, sources = shift_map(n, k, j, r0, s0, skind, si, p)
        up_signs, targets = shift_map(n, k, j, r0, s0, tkind, ti, p)
        for i, (a, b) in enumerate(zip(down_signs, up_signs)):
            if a and b:
                weight = lower[i][0][si][p] + 1 if skind == "b" else 1
                # terms of different p meet only when target == source, where
                # every one is +weight: no coefficient cancels to zero
                out = images[sources[i]]
                out[targets[i]] = out.get(targets[i], 0) + a * b * weight
    return (tuple(up[0]), tuple(up[1])), images


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
