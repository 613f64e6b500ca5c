"""The quotient-side recursion against the ideal side.

The series scan builds no ideal component: it presents each quotient
component by the super-Koszul relations on the shell below and, up to total
degree n, the lift of the polarized power sum P_d.  The oracle here runs the
ideal-side recursion with the invariants of every degree among the
generators, on every ring ``verify all`` builds at its default sizes and on
a few larger mixed rings.
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
)
from supercoinv.exactla import SubspaceBasis, span_basis
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


@pytest.fixture(scope="module")
def scans(rings):
    return {ring: full_invariant_scan(*ring) for ring in rings}


def test_series_match_the_full_invariant_recursion(scans):
    for (n, k, j), (hilbert, frobenius, _contained) in scans.items():
        assert hilbert_series(n, k, j) == QUPoly(k, j, hilbert), (n, k, j)
        assert frobenius_series(n, k, j).components == frobenius, (n, k, j)


def test_invariants_above_degree_n_lie_in_the_shifted_ideal(scans):
    checked = 0
    for (n, k, j), (_h, _f, contained) in scans.items():
        above = {d: shifted for d, (shifted, _) in contained.items() if sum(d[0]) + sum(d[1]) > n}
        assert all(above.values()), (n, k, j, [d for d, ok in above.items() if not ok])
        checked += len(above)
    assert checked > 100


def test_invariants_lie_in_the_shifted_ideal_plus_the_power_sum(scans):
    # Inv_d in V * I_(d-1) + Q * P_d at every multidegree, the generator
    # statement the quotient side rests on; P_d alone is needed at some
    # degree <= n of every ring with a variable, and at a multidegree with
    # s_c >= 2 P_d = 0 and V * I_(d-1) holds every invariant
    checked = squares = 0
    for (n, k, j), (_h, _f, contained) in scans.items():
        assert all(with_power for _shifted, with_power in contained.values()), (n, k, j)
        if n and k + j:
            assert not all(shifted for shifted, _ in contained.values()), (n, k, j)
        squares += sum(max(d[1], default=0) >= 2 for d in contained)
        checked += len(contained)
    assert checked > 300 and squares > 50


def test_hilbert_710_is_the_q_factorial():
    # beyond the ceiling on the ideal side: degree 15 alone has 54 264 monomials
    want = q_factorial(7)
    assert hilbert_series(7, 1, 0) == want


def _koszul_shells(monkeypatch, n, k, j, frobenius=False) -> list:
    """(cache, deg, below, component, traces, relation span) of every shell the scan builds.

    The scan is the Hilbert one, or with ``frobenius`` the Frobenius one,
    which also builds the matrices and traces of every cycle type.
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
        out.append((cache, deg, below, comp, traces, rel))
        return comp, traces

    with monkeypatch.context() as patch:
        patch.setattr(coinvariant, "SubspaceBasis", Recording)
        patch.setattr(coinvariant, "_koszul_component", recorded)
        cache = IdealComponentCache(n, k, j)
        if frobenius:
            frobenius_series(n, k, j, cache=cache)
        else:
            hilbert_series(n, k, j, cache=cache)
    return out


@pytest.mark.parametrize("n,k,j", [(3, 0, 1), (3, 1, 1), (3, 0, 2), (2, 2, 2), (3, 2, 1)])
def test_koszul_presentation_at_every_degree(n, k, j, monkeypatch):
    # every shell the scan builds from Q_0 = span{1}, through the super-Koszul
    # relations and, up to degree n, the lift of P_d, is R_d / I_d on the
    # ideal side: the same dimension and the same character
    shells = _koszul_shells(monkeypatch, n, k, j, frobenius=True)
    checked = 0
    for cache, deg, _below, comp, traces, _rel in shells:
        ideal = ideal_component(cache, deg)
        assert comp.dim == ideal.dim - ideal.rank, deg
        for rho, trace in traces.items():
            signs, tgt = superring.permutation_action(n, k, j, *deg, class_representative(rho))
            ambient = sum(sg for i, (sg, t) in enumerate(zip(signs, tgt)) if t == i)

            def act(row, signs=signs, tgt=tgt):
                return {tgt[i]: signs[i] * v for i, v in row.items()}

            assert trace == Fraction(ambient - restricted_trace(ideal, act)), (deg, rho)
        checked += len(traces)
    assert checked


def _criterion_rings(rings) -> list:
    return sorted(set(rings) | set(CRITERION_RINGS))


def test_pruned_relations_span_every_relation(rings, monkeypatch):
    # the chain criterion drops rows, never the span: above degree n the
    # relation bases of the engine and of the unpruned oracle have the same
    # pivots and rows; up to degree n the engine's span also holds the lift
    # of P_d, so it holds every relation and has at most one row more
    checked = 0
    for n, k, j in _criterion_rings(rings):
        for cache, deg, below, _comp, _traces, rel in _koszul_shells(monkeypatch, n, k, j):
            full = koszul_relations(cache, deg, below)
            if sum(deg[0]) + sum(deg[1]) > n:
                assert rel.pivots == full.pivots, ((n, k, j), deg)
                assert rel.vectors == full.vectors, ((n, k, j), deg)
            else:
                assert all(rel.contains(row) for row in full.vectors), ((n, k, j), deg)
                assert rel.rank - full.rank in (0, 1), ((n, k, j), deg)
            checked += 1
    assert checked > 300


def _divides(comp, s: int, u: int) -> bool:
    """Whether basis element s of comp is [u b] for some b one degree lower."""
    image = span_basis([x for x, _dx in comp.mult[u] if x], comp.dim)
    return image.contains({s: 1})


def test_every_label_divides_its_basis_element(rings, monkeypatch):
    # s = [label(s) b] for some b on every shell of positive degree; the unit
    # of Q_0 carries the label above every variable
    checked = 0
    for n, k, j in _criterion_rings(rings):
        unit = (k + j) * n
        shells = _koszul_shells(monkeypatch, n, k, j)
        zero = ((0,) * k, (0,) * j)
        for _cache, _deg, below, *_rest in shells[:1]:
            assert below[zero].labels == [unit], (n, k, j)
            checked += 1
        for _cache, deg, below, comp, _traces, _rel in shells:
            for g, pred in coinvariant._predecessors(deg, k).items():
                assert comp.source_labels[g] == below[pred].labels, ((n, k, j), deg, g)
            assert len(comp.labels) == comp.dim, ((n, k, j), deg)
            for s, u in enumerate(comp.labels):
                assert u < unit and _divides(comp, s, u), ((n, k, j), deg, s, u)
                checked += 1
    assert checked > 900
