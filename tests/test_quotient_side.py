"""The quotient-side recursion above total degree n against the ideal side.

Above total degree n the engine builds no ideal component: it presents each
quotient component by the super-Koszul relations on the shell below.  The
oracle here runs the ideal-side recursion with the invariants of every
degree among the generators, on every ring ``verify all`` builds at its
default sizes and on a few larger mixed rings.
"""

from fractions import Fraction

import pytest

from oracles import full_invariant_scan, koszul_relations, restricted_trace
from supercoinv import checks, cli, coinvariant, superring
from supercoinv.coinvariant import (
    IdealComponentCache,
    frobenius_series,
    hilbert_series,
    ideal_component,
    shell_multidegrees,
)
from supercoinv.exactla import SubspaceBasis, span_basis
from supercoinv.qcombinat import partitions_of
from supercoinv.snchar import class_representative
from supercoinv.qcombinat import q_factorial
from supercoinv.superschur import QUPoly

EXTRA_RINGS = [(4, 2, 1), (3, 2, 2), (4, 0, 3), (5, 0, 2)]
# rings with odd squares and mixed triples of variables for the chain criterion
CRITERION_RINGS = [(3, 1, 2), (4, 0, 3), (2, 2, 2)]


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
    want = q_factorial(7)
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


def _koszul_shells(monkeypatch, n, k, j) -> list:
    """(cache, deg, below, component, relation span) of Koszul presentations of every shell.

    Above total degree n these are the components the series scan builds; at
    every degree up to n the shell is presented over the quotient shell below
    it, as in ``test_koszul_presentation_at_every_degree``.
    """
    spans = []

    class Recording(SubspaceBasis):
        def __init__(self, dim):
            super().__init__(dim)
            spans.append(self)

    koszul = coinvariant._koszul_component
    out = []

    def recorded(cache, deg, below, sigmas):
        spans.clear()
        comp, traces = koszul(cache, deg, below, sigmas)
        (rel,) = spans
        out.append((cache, deg, below, comp, rel))
        return comp, traces

    with monkeypatch.context() as patch:
        patch.setattr(coinvariant, "SubspaceBasis", Recording)
        patch.setattr(coinvariant, "_koszul_component", recorded)
        cache = IdealComponentCache(n, k, j)
        hilbert_series(n, k, j, cache=cache)
        for total in range(1, n + 1):
            below = {
                d: coinvariant._boundary_component(cache, d, {})
                for d in shell_multidegrees(n, k, j, total - 1)
            }
            for deg in shell_multidegrees(n, k, j, total):
                recorded(cache, deg, below, {})
    return out


def _criterion_rings(rings) -> list:
    return sorted(set(rings) | set(CRITERION_RINGS))


def test_pruned_relations_span_every_relation(rings, monkeypatch):
    # the chain criterion drops rows, never the span: the relation bases of
    # the engine and of the unpruned oracle have the same pivots and rows
    checked = 0
    for n, k, j in _criterion_rings(rings):
        for cache, deg, below, _comp, rel in _koszul_shells(monkeypatch, n, k, j):
            full = koszul_relations(cache, deg, below)
            assert rel.pivots == full.pivots, ((n, k, j), deg)
            assert rel.vectors == full.vectors, ((n, k, j), deg)
            checked += 1
    assert checked > 300


def _divides(comp, s: int, u: int) -> bool:
    """Whether basis element s of comp is [u b] for some b one degree lower."""
    image = span_basis([x for x, _dx in comp.mult[u] if x], comp.dim)
    return image.contains({s: 1})


def test_every_label_divides_its_basis_element(rings, monkeypatch):
    # s = [label(s) b] for some b: on the standard monomials up to degree n
    # and on the Koszul shells built above them
    checked = 0
    for n, k, j in _criterion_rings(rings):
        unit = (k + j) * n
        cache = IdealComponentCache(n, k, j)
        boundary = {
            deg: coinvariant._boundary_component(cache, deg, {})
            for total in range(n + 1)
            for deg in shell_multidegrees(n, k, j, total)
        }
        for deg, comp in boundary.items():
            for g, pred in coinvariant._predecessors(deg, k).items():
                assert comp.source_labels[g] == boundary[pred].labels, ((n, k, j), deg, g)
        koszul = [(deg, comp) for _c, deg, _b, comp, _r in _koszul_shells(monkeypatch, n, k, j)]
        for deg, comp in list(boundary.items()) + koszul:
            assert len(comp.labels) == comp.dim, ((n, k, j), deg)
            for s, u in enumerate(comp.labels):
                if u == unit:
                    assert deg == ((0,) * k, (0,) * j) and s == 0, ((n, k, j), deg)
                else:
                    assert _divides(comp, s, u), ((n, k, j), deg, s, u)
                checked += 1
    assert checked > 1000
