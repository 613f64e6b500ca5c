"""The quotient-side recursion above total degree n against the ideal side.

Above total degree n the engine builds no ideal component: it presents each
quotient component by the super-Koszul relations on the shell below.  The
oracle here runs the ideal-side recursion with the invariants of every
degree among the generators, on every ring ``verify all`` builds at its
default sizes and on a few larger mixed rings.
"""

from fractions import Fraction

import pytest

from oracles import full_invariant_scan, restricted_trace
from supercoinv import checks, cli, coinvariant, superring
from supercoinv.coinvariant import (
    IdealComponentCache,
    frobenius_series,
    hilbert_series,
    ideal_component,
    shell_multidegrees,
)
from supercoinv.exactla import span_basis
from supercoinv.qcombinat import partitions_of
from supercoinv.snchar import class_representative
from supercoinv.qcombinat import q_factorial
from supercoinv.superschur import QUPoly

EXTRA_RINGS = [(4, 2, 1), (3, 2, 2), (4, 0, 3), (5, 0, 2)]


def _envelope_rings() -> set:
    """Every (n, k, j) whose series ``verify all`` asks for at the envelope sizes."""
    rings = set()

    class Recording(checks.CheckSession):
        def frobenius(self, n, k, j):
            rings.add((n, k, j))
            return super().frobenius(n, k, j)

        def hilbert(self, n, k, j):
            rings.add((n, k, j))
            return super().hilbert(n, k, j)

    session = Recording()
    envelope = cli._load_envelope()
    for check_id in sorted(checks.REGISTRY):
        params = checks.default_params(check_id, envelope.get(check_id, 3))
        assert checks.run_check(check_id, session, params).passed, check_id
    return rings


@pytest.fixture(scope="module")
def rings():
    found = _envelope_rings()
    assert len(found) >= 10
    return sorted(found | set(EXTRA_RINGS))


def test_series_match_the_full_invariant_recursion(rings):
    for n, k, j in rings:
        hilbert, frobenius, _contained = full_invariant_scan(n, k, j)
        assert hilbert_series(n, k, j) == QUPoly(k, j, hilbert), (n, k, j)
        assert frobenius_series(n, k, j).components == frobenius, (n, k, j)


def test_invariants_above_degree_n_lie_in_the_shifted_ideal(rings):
    checked = 0
    for n, k, j in rings:
        contained = full_invariant_scan(n, k, j)[2]
        assert all(contained.values()), (n, k, j, [d for d, ok in contained.items() if not ok])
        checked += len(contained)
    assert checked > 100


def test_hilbert_710_is_the_q_factorial():
    # beyond the ceiling on the ideal side: degree 15 alone has 54 264 monomials
    want = QUPoly(1, 0, {(e,): c for e, c in q_factorial(7).coeffs.items()})
    assert hilbert_series(7, 1, 0) == want


@pytest.mark.parametrize("n,k,j", [(3, 0, 1), (3, 1, 1), (3, 0, 2), (2, 2, 2), (3, 2, 1)])
def test_koszul_presentation_at_every_degree(n, k, j):
    # R_d / (V * I_(d-1)) = (sum over v of v (x) Q_(d-e_v)) / relations holds
    # at every degree, not only above n where I_d = V * I_(d-1); below n the
    # odd squares are not implied by the other relations, so all three kinds
    # of relation are needed here
    cache = IdealComponentCache(n, k, j)
    top = frobenius_series(n, k, j, cache=cache).max_total_degree()
    sigmas = {rho: class_representative(rho) for rho in partitions_of(n)}
    checked = 0
    for total in range(1, top + 2):
        below = {
            d: coinvariant._boundary_component(cache, d, sigmas)
            for d in shell_multidegrees(n, k, j, total - 1)
        }
        for deg in shell_multidegrees(n, k, j, total):
            comp, traces = coinvariant._koszul_component(cache, deg, below, sigmas)
            vectors = []
            for g, pred in coinvariant._predecessors(deg, k).items():
                kind, idx = ("b", g) if g < k else ("f", g - k)
                ideal_component(cache, pred)
                vectors.extend(coinvariant._shifted_vectors(cache, pred, kind, idx))
            shifted = span_basis(vectors, len(cache.monomial_space(deg)[0]))
            assert comp.dim == shifted.dim - shifted.rank, deg
            for rho, sigma in sigmas.items():
                signs, tgt = superring.permutation_action(n, k, j, *deg, sigma)
                ambient = sum(sg for i, (sg, t) in enumerate(zip(signs, tgt)) if t == i)

                def act(row, signs=signs, tgt=tgt):
                    return {tgt[i]: signs[i] * v for i, v in row.items()}

                want = ambient - restricted_trace(shifted, act)
                assert traces[rho] == Fraction(want), (deg, rho)
            checked += 1
    assert checked
