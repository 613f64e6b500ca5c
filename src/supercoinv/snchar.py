"""Symmetric group characters and restriction multiplicities.

Irreducible characters chi^lam are computed by the Murnaghan-Nakayama
border-strip recursion on beta-numbers, memoized on (shape, cycle type).
The memo tables are only ever extended (functools.cache), so concurrent
readers at worst duplicate work.
Inner products (1/N!) sum_rho f(rho) g(rho) N!/z_rho are summed in integers
and divided by N! once (Macdonald, Symmetric Functions, I.7).
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .qcombinat import Partition, conjugate, partitions_of

__all__ = [
    "z_order",
    "irreducible_character",
    "frobenius_decompose",
    "gl_restriction_mult",
    "class_representative",
    "trace_plan",
    "syt_count",
]


@cache
def z_order(rho: Partition) -> int:
    """Centralizer order z_rho = prod_i i^(m_i) m_i! over part multiplicities."""
    mult: dict[int, int] = {}
    for p in rho:
        mult[p] = mult.get(p, 0) + 1
    z = 1
    for i, m in mult.items():
        z *= i**m * factorial(m)
    return z


@cache
def _mn(lam: Partition, rho: Partition) -> int:
    # Murnaghan-Nakayama: strip off a border strip of length rho[0].
    # Beta-numbers b_i = lam_i + (len - 1 - i); removing a strip of length r
    # replaces some b by b - r (must stay distinct); the crossing count gives
    # the sign (-1)^(height-1).
    if not rho:
        return 1
    r = rho[0]
    rest = rho[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        crossed = sum(1 for c in beta if nb < c < b)
        newbeta = [c for c in beta if c != b]
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        m = len(newbeta)
        newlam = tuple(
            p for i in range(m) if (p := newbeta[i] - (m - 1 - i)) > 0
        )
        total += (-1) ** crossed * _mn(newlam, rest)
    return total


def irreducible_character(lam: Partition, rho: Partition) -> int:
    """Value of the irreducible character indexed by lam at cycle type rho."""
    if sum(lam) != sum(rho):
        raise ValueError(f"size mismatch: |{lam}| != |{rho}|")
    return _mn(tuple(lam), tuple(rho))


def frobenius_decompose(class_fn, n: int) -> dict[Partition, int]:
    """Multiplicities <f, chi^mu> of a class function over all mu of n.

    ``class_fn`` maps every cycle type (partition of n) to an int.
    Raises ValueError when some multiplicity fails to be an integer, which
    always signals an upstream bug.
    """
    out: dict[Partition, int] = {}
    types = partitions_of(n)
    order = factorial(n)
    weighted = [class_fn[rho] * (order // z_order(rho)) for rho in types]
    for mu in types:
        acc = sum(f * _mn(mu, rho) for f, rho in zip(weighted, types))
        q, rest = divmod(acc, order)
        if rest:
            raise ValueError(f"non-integral multiplicity {acc}/{order} at mu={mu}")
        out[mu] = q
    return out


@cache
def _power_sum_on_class(r: int, tau: Partition) -> int:
    # p_r evaluated at the eigenvalues of any permutation of cycle type tau:
    # a c-cycle contributes c when c divides r, else 0.
    return sum(c for c in tau if r % c == 0)


@cache
def gl_restriction_mult(lam: Partition, n: int) -> dict[Partition, int]:
    """Multiplicities d_{lam,mu} of S_n-irreducibles in the GL(n)-irreducible lam.

    The trace of a permutation on the GL(n)-module is obtained from the
    power-sum expansion of the Schur function, then decomposed by characters.
    All outputs are nonnegative integers (the restriction is semisimple).
    """
    lam = tuple(lam)
    if len(lam) > n:
        raise ValueError(f"shape {lam} has more than n={n} rows")
    size = sum(lam)
    order = factorial(size)
    traces: dict[Partition, int] = {}
    for tau in partitions_of(n):
        tr = 0
        for rho in partitions_of(size):
            val = _mn(lam, rho) * (order // z_order(rho))
            for r in rho:
                val *= _power_sum_on_class(r, tau)
            tr += val
        q, rest = divmod(tr, order)
        if rest:
            raise ValueError(f"non-integral trace {tr}/{order} at tau={tau}")
        traces[tau] = q
    mults = frobenius_decompose(traces, n)
    for mu, d in mults.items():
        if d < 0:
            raise ValueError(f"negative restriction multiplicity d[{lam},{mu}] = {d}")
    return mults


def class_representative(rho: Partition) -> tuple[int, ...]:
    """Lexicographically smallest permutation (one-line form) of cycle type rho.

    Fixed points come first, then cycles of increasing length filled with
    consecutive labels.
    """
    perm = []
    for length in sorted(rho):
        base = len(perm)
        perm.extend(base + (i + 1) % length for i in range(length))
    return tuple(perm)


def _cycle_type(perm) -> Partition:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length = 0
        while not seen[start]:
            seen[start] = True
            start = perm[start]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


@cache
def trace_plan(n: int) -> tuple[dict, dict]:
    """(sigmas, pairs): the classes whose matrices a character scan keeps, and the rest.

    ``sigmas`` maps each cycle type of a set G to its ``class_representative``;
    ``pairs`` maps every other non-identity type to a pair (a, b) of G whose
    representatives compose to that type, so its character value is the
    trace of the product of a's and b's matrices.  G is chosen greedily: each
    step adds the type that names the most types not yet named (itself and
    its products with G and with itself), the first in ``partitions_of``
    order among ties.
    """
    identity = (1,) * n
    types = [rho for rho in partitions_of(n) if rho != identity]
    reps = {rho: class_representative(rho) for rho in types}

    @cache
    def product(a: Partition, b: Partition) -> Partition:
        ra, rb = reps[a], reps[b]
        return _cycle_type([ra[i] for i in rb])

    gens: list = []
    named = set()
    while len(named) < len(types):
        best, gain = None, set()
        for rho in types:
            if rho in gens:
                continue
            new = {rho, *(product(a, rho) for a in gens + [rho])} - named - {identity}
            if len(new) > len(gain):
                best, gain = rho, new
        gens.append(best)
        named |= gain
    pairs = {}
    for i, b in enumerate(gens):
        for a in gens[: i + 1]:
            rho = product(a, b)
            if rho != identity and rho not in gens:
                pairs.setdefault(rho, (a, b))
    return {rho: reps[rho] for rho in gens}, pairs


@cache
def syt_count(lam: Partition) -> int:
    """Number of standard Young tableaux (hook length formula)."""
    if not lam:
        return 1
    conj = conjugate(lam)
    num = factorial(sum(lam))
    for i in range(len(lam)):
        for jj in range(lam[i]):
            num //= lam[i] - jj + conj[jj] - i - 1
    return num
