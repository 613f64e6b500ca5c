"""An independent Hilbert series for the bosonic rings, from a Groebner basis.

The ideal of a bosonic ring (k sets, no fermions) is generated by the
polarized power sums of total degree <= n (Weyl's theorem, see the
``coinvariant`` module docstring).  A grevlex Groebner basis of them, from
sympy, gives the standard monomials, which are a basis of the quotient.  The
generators are multihomogeneous, so the basis is too, and counting standard
monomials per multidegree gives the multigraded Hilbert series.  Nothing
here shares code with the engine.
"""

import pytest

from supercoinv.coinvariant import hilbert_series

sympy = pytest.importorskip("sympy")


def _exponent_vectors(nvars: int, total: int):
    """Every exponent vector of nvars variables with the given total, any order."""
    if nvars == 0:
        return [()] if total == 0 else []
    return [
        (first,) + rest
        for first in range(total + 1)
        for rest in _exponent_vectors(nvars - 1, total - first)
    ]


def groebner_hilbert(n: int, k: int) -> dict:
    """Multidegree (one entry per set) -> number of standard monomials."""
    sets = [sympy.symbols(f"x{a}_0:{n}") for a in range(k)]
    gens = [x for xs in sets for x in xs]
    power_sums = []
    for total in range(1, n + 1):
        for degs in _exponent_vectors(k, total):
            power_sums.append(
                sum(
                    sympy.prod(xs[p] ** d for xs, d in zip(sets, degs))
                    for p in range(n)
                )
            )
    basis = sympy.groebner(power_sums, *gens, order="grevlex")
    leading = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
    counts: dict = {}
    total = 0
    while True:
        found = 0
        for mono in _exponent_vectors(k * n, total):
            if any(all(a >= b for a, b in zip(mono, lead)) for lead in leading):
                continue
            deg = tuple(sum(mono[a * n : (a + 1) * n]) for a in range(k))
            counts[deg] = counts.get(deg, 0) + 1
            found += 1
        # standard monomials are closed under division: none at this total
        # degree means none above it
        if not found:
            return counts
        total += 1


@pytest.mark.parametrize(
    "n,k,dim",
    [(3, 1, 6), (4, 1, 24), (5, 1, 120), (3, 2, 16), (4, 2, 125)],
)
def test_groebner_hilbert_matches_engine(n, k, dim):
    counts = groebner_hilbert(n, k)
    assert sum(counts.values()) == dim
    assert counts == hilbert_series(n, k, 0).coeffs
