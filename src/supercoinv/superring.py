"""Free superalgebra on n positions with k bosonic and j fermionic variable sets.

A monomial is a pair (bos, fer): ``bos`` is a k-tuple of length-n exponent
tuples, ``fer`` a j-tuple of n-bit occupancy masks (bit p set means the
fermionic variable of that set at position p occurs).  Monomials are always
canonical -- fermionic factors are implicitly ordered by (set index, position
index) ascending -- and never carry a sign themselves: all signs produced by
reordering land in polynomial coefficients.  Polynomials are plain dicts
{monomial: coefficient} with no stored zeros.
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .exactla import SubspaceBasis, span_basis

__all__ = [
    "mono_one",
    "mono_degree",
    "mono_mul",
    "act_mono",
    "poly_add_term",
    "poly_mul",
    "act_poly",
    "superderivation",
    "monomial_space",
    "permutation_action",
    "shift_map",
    "invariant_vectors",
    "invariant_basis",
    "mono_to_bytes",
    "mono_from_bytes",
]

Monomial = tuple


def mono_one(n: int, k: int, j: int) -> Monomial:
    return (((0,) * n,) * k, (0,) * j)


def mono_degree(m: Monomial):
    """Multidegree (r, s): per-set bosonic totals and fermionic occupancies."""
    bos, fer = m
    return (tuple(sum(e) for e in bos), tuple(mask.bit_count() for mask in fer))


def mono_mul(a: Monomial, b: Monomial):
    """Product of canonical monomials: (sign, monomial) or None when zero.

    The sign counts the inversions needed to merge the two canonical
    fermionic factor sequences; a shared occupied slot kills the product.
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


def act_mono(sigma, m: Monomial):
    """Relabel position indices by sigma; returns (sign, canonical monomial).

    The sign is the parity of the permutation induced on the occupied
    positions within each fermionic set (cross-set order never changes).
    """
    bos, fer = m
    sign = 1
    nfer = []
    for mask in fer:
        sg, nm = _act_mask(sigma, mask)
        sign *= sg
        nfer.append(nm)
    return sign, (tuple(_act_exponents(sigma, e) for e in bos), tuple(nfer))


def poly_add_term(poly: dict, mono: Monomial, coeff) -> None:
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
            if prod is None:
                continue
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
            for p in _bits(mask):
                sign = -1 if _fer_before(fer, si, p) & 1 else 1
                nfer = list(fer)
                nfer[si] = mask ^ (1 << p)
                _emit(out, (bos, tuple(nfer)), c * sign, tkind, ti, p)
    return out


def _emit(out: dict, m: Monomial, coeff, tkind: str, ti: int, p: int) -> None:
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

    ``act_mono(sigma, monos[i]) == (signs[i], monos[targets[i]])``; each
    per-set factor is acted on once, not each monomial.
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


# --- byte encoding for the on-disk cache ------------------------------------
# bosonic exponents as unsigned bytes (set by set, position ascending), then
# each fermionic mask as ceil(n/8) little-endian bytes


def mono_to_bytes(m: Monomial, n: int) -> bytes:
    bos, fer = m
    parts = []
    for e in bos:
        if any(x > 255 for x in e):
            raise ValueError("bosonic exponent exceeds byte range")
        parts.append(bytes(e))
    width = (n + 7) // 8
    for mask in fer:
        parts.append(mask.to_bytes(width, "little"))
    return b"".join(parts)


def mono_from_bytes(data: bytes, n: int, k: int, j: int) -> Monomial:
    width = (n + 7) // 8
    if len(data) != k * n + j * width:
        raise ValueError("encoded monomial has wrong length")
    bos = tuple(tuple(data[a * n : (a + 1) * n]) for a in range(k))
    off = k * n
    fer = tuple(
        int.from_bytes(data[off + c * width : off + (c + 1) * width], "little") for c in range(j)
    )
    return (bos, fer)
