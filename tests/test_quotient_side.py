"""The quotient-side recursion and closure check against the ideal side.

The series scan builds no ideal component: it presents each quotient
component by the super-Koszul relations on the shell below and, up to total
degree n, the lift of the polarized power sum P_d.  The oracle here runs the
ideal-side recursion with the invariants of every degree among the
generators, on every ring ``verify all`` builds at its default sizes and on
a few larger mixed rings.  The closure check runs the Leibniz rule on the
quotient shells; the oracle's ideal-side loop must pass and fail with it.
"""

from fractions import Fraction

import pytest

from oracles import (
    full_invariant_scan,
    ideal_closure_witness,
    ideal_component,
    koszul_relations,
    quotient_character,
)
from supercoinv import checks, cli, coinvariant
from supercoinv.coinvariant import (
    IdealComponentCache,
    frobenius_series,
    hilbert_series,
    quotient_shells,
)
from supercoinv.exactla import SubspaceBasis, span_basis
from supercoinv.qcombinat import q_factorial
from supercoinv.superschur import QUPoly

EXTRA_RINGS = [(4, 2, 1), (3, 2, 2), (4, 0, 3), (5, 0, 2)]
# rings with odd squares and mixed triples of variables for the chain criterion
CRITERION_RINGS = [(3, 1, 2), (4, 0, 3), (2, 2, 2)]


def _envelope_rings() -> set:
    """Every (n, k, j) whose series ``verify all`` asks for at the envelope sizes."""
    rings = set()

    class Recording(checks.CheckSession):
        def ring(self, n, k, j):
            rings.add((n, k, j))
            return super().ring(n, k, j)

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
            cache.frobenius()
        else:
            cache.hilbert()
    return out


@pytest.mark.parametrize("n,k,j", [(3, 0, 1), (3, 1, 1), (3, 0, 2), (2, 2, 2), (3, 2, 1)])
def test_koszul_presentation_at_every_degree(n, k, j, monkeypatch):
    # every shell the scan builds from Q_0 = span{1}, through the super-Koszul
    # relations and, up to degree n, the lift of P_d, is R_d / I_d on the
    # ideal side: the same dimension and the same character
    shells = _koszul_shells(monkeypatch, n, k, j, frobenius=True)
    checked = 0
    for _cache, deg, _below, comp, traces, _rel in shells:
        ideal = ideal_component(n, k, j, deg)
        assert comp.dim == ideal.dim - ideal.rank, deg
        for rho, trace in traces.items():
            assert trace == Fraction(quotient_character(n, k, j, deg, rho)), (deg, rho)
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
    # s = [label(s) b] for some b on every shell of positive degree, and b is
    # the recorded origin; the unit of Q_0 carries the label above every
    # variable
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
            assert len(comp.labels) == len(comp.origins) == comp.dim, ((n, k, j), deg)
            for s, (u, b) in enumerate(zip(comp.labels, comp.origins)):
                assert u < unit and _divides(comp, s, u), ((n, k, j), deg, s, u)
                assert comp.mult[u][b] == ({s: 1}, 1), ((n, k, j), deg, s, u)
                checked += 1
    assert checked > 900


# --- the closure check against the ideal side --------------------------------

# every ring with n + k + j <= 6 and a variable set
SMALL_RINGS = [
    (n, k, total - n - k)
    for total in range(2, 7)
    for n in range(1, total)
    for k in range(total - n + 1)
]


def _closure_witnesses(n, k, j, operators):
    """(quotient-side, ideal-side) witnesses, each (deg, operator label) or None."""
    shells = quotient_shells(IdealComponentCache(n, k, j))
    found = (checks._closure_witness(shells, n, k, operators), ideal_closure_witness(n, k, j, operators))
    return [None if w is None else (w[0], w[1].label(k)) for w in found]


def _moved_first_variable(operators, n, which):
    """The operators with E(s_0) sent to t_1 instead of t_0 in operator ``which``."""
    out = list(operators)
    op = out[which]
    out[which] = op._replace(image={**op.image, op.source * n: op.target * n + 1})
    return out


def test_closure_check_agrees_with_the_ideal_side_on_small_rings():
    # the Leibniz rule on Q holds on every border column up to degree n
    # exactly when the ideal-side loop finds every E(I_d) inside I
    for n, k, j in SMALL_RINGS:
        quotient, ideal = _closure_witnesses(n, k, j, checks._polarization_operators(n, k, j))
        assert quotient == ideal is None, (n, k, j)


def test_closure_check_and_the_ideal_side_fail_alike_on_a_moved_variable():
    # E(s_0) = t_1 still defines a superderivation, which no longer maps I
    # into I: both sides fail, at the same multidegree and operator
    checked = 0
    for n, k, j in SMALL_RINGS:
        if n < 2:
            continue
        operators = checks._polarization_operators(n, k, j)
        for which in range(len(operators)):
            quotient, ideal = _closure_witnesses(n, k, j, _moved_first_variable(operators, n, which))
            assert quotient == ideal and quotient is not None, (n, k, j, which)
            checked += 1
    assert checked > 50


def test_closure_check_and_the_ideal_side_fail_alike_without_the_sign():
    # E_(b0,f0) at (3,1,1) with the superderivation sign dropped: on Q the
    # rule E([u b]) = [E(u) b] + u E(b), on the monomials the same sum over
    # factors without the sign of the fermions passed; both fail first at
    # r=(0) s=(2), where theta_p theta_q has two odd factors
    n, k, j = 3, 1, 1
    operators = checks._polarization_operators(n, k, j)
    (which,) = [i for i, op in enumerate(operators) if op.label(k) == [["b", 0], ["f", 0]]]
    operators[which] = operators[which]._replace(odd=False)
    quotient, ideal = _closure_witnesses(n, k, j, operators)
    assert quotient == ideal == (((0,), (2,)), [["b", 0], ["f", 0]])

