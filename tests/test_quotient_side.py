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
    class_matrices,
    full_invariant_scan,
    ideal_closure_witness,
    ideal_component,
    in_span,
    koszul_relations,
    quotient_character,
    rows_of,
    span_basis,
)
from supercoinv import checks, coinvariant
from supercoinv.coinvariant import (
    IdealComponentCache,
    frobenius_series,
    hilbert_series,
    quotient_shells,
)
from supercoinv.exactla import SubspaceBasis
from supercoinv.qcombinat import partitions_of, q_factorial
from supercoinv.snchar import trace_plan
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
    for check_id in sorted(checks.REGISTRY):
        params = checks.default_params(check_id)
        assert checks.run_check(check_id, session, params)["status"] == "pass", check_id
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
    """(cache, deg, below, component, traces, relation span) of every stored component.

    Every component of positive degree the scan stores, with the shell below
    it, and the components it builds on the all-zero shell where it stops.
    The scan is the Hilbert one, or with ``frobenius`` the Frobenius
    one, which also builds the matrices and traces of its trace plan.  A
    component ``_koszul_component`` built comes with the span it eliminated;
    one carried by alphabet symmetry, with the span of a direct build at its
    multidegree from the same stored shell below.
    """
    spans = []

    class Recording(SubspaceBasis):
        def __init__(self, dim):
            super().__init__(dim)
            self.least_columns = []  # of the rows offered, in order
            spans.append(self)

        def insert(self, vec):
            self.least_columns.append(min(vec))
            return super().insert(vec)

    koszul = coinvariant._koszul_component
    built = {}

    def recorded(cache, deg, below, plan):
        spans.clear()
        comp = koszul(cache, deg, below, plan)
        (rel,) = spans
        built[deg] = (cache, deg, below, comp, comp.traces, rel)
        return comp

    out = []
    with monkeypatch.context() as patch:
        patch.setattr(coinvariant, "SubspaceBasis", Recording)
        patch.setattr(coinvariant, "_koszul_component", recorded)
        cache = IdealComponentCache(n, k, j)
        below = None
        identity = (1,) * n
        plan = trace_plan(n) if frobenius else None
        for shell in coinvariant._series_scan(cache, plan):
            for deg, comp in shell.items():
                if below is None:
                    continue  # the unit of Q_0
                if deg in built:
                    rel = built.pop(deg)[-1]
                else:
                    spans.clear()
                    koszul(cache, deg, below, None)
                    (rel,) = spans
                traces = {**comp.traces, identity: comp.dim} if frobenius else comp.traces
                out.append((cache, deg, below, comp, traces, rel))
            below = shell
    return out + list(built.values())


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


@pytest.mark.parametrize("n,k,j", [(3, 1, 1), (3, 0, 2), (4, 1, 0), (3, 2, 1)])
def test_relation_rows_are_offered_by_descending_least_column(n, k, j, monkeypatch):
    # chain-criterion rows, odd squares and the lift of P_d alike, so that a
    # new pivot nearly always lies left of every stored row
    offered = 0
    for *_built, rel in _koszul_shells(monkeypatch, n, k, j):
        assert rel.least_columns == sorted(rel.least_columns, reverse=True)
        offered += len(rel.least_columns)
    assert offered


# every ring with a symmetric alphabet (k >= 2 or j >= 2) and n + k + j <= 7
SYMMETRIC_RINGS = [
    (n, k, j)
    for n in range(1, 6)
    for k in range(8 - n)
    for j in range(8 - n - k)
    if k >= 2 or j >= 2
]


def test_transported_components_match_a_direct_build():
    # each component carried by alphabet symmetry from its dominant one has
    # the dimension and the characters of a direct build at its multidegree
    # from the same stored shell below, at every non-identity cycle type
    checked = 0
    for n, k, j in SYMMETRIC_RINGS:
        identity = (1,) * n
        types = {rho for rho in partitions_of(n) if rho != identity}
        plan = trace_plan(n)
        cache = IdealComponentCache(n, k, j)
        below = None
        for shell in coinvariant._series_scan(cache, plan):
            for deg, comp in shell.items():
                if coinvariant._sorting(deg, k)[0] == deg:
                    continue
                direct = coinvariant._koszul_component(cache, deg, below, plan)
                assert comp.dim == direct.dim, ((n, k, j), deg)
                assert set(comp.traces) == types, ((n, k, j), deg)
                assert comp.traces == direct.traces, ((n, k, j), deg)
                checked += comp.dim > 0
            below = shell
    assert (3, 3, 0) in SYMMETRIC_RINGS and (3, 0, 3) in SYMMETRIC_RINGS
    assert checked > 300


def test_every_trace_matches_the_all_classes_oracle(rings):
    # on every stored component, the trace of each class of the trace plan,
    # off its diagonal, and of every other class, off the product of two of
    # those matrices, is the trace of the oracle's matrix of that class; the
    # component keeps the plan's matrices only, and they are the oracle's
    checked = 0
    for n, k, j in sorted(set(rings) | set(SYMMETRIC_RINGS)):
        sigmas = trace_plan(n)[0]
        full = class_matrices(n, k, j)
        stored = {}
        for shell in coinvariant._series_scan(IdealComponentCache(n, k, j), trace_plan(n)):
            stored.update(shell)
        assert stored.keys() == full.keys(), (n, k, j)
        for deg, comp in stored.items():
            assert comp.action.keys() == sigmas.keys(), ((n, k, j), deg)
            for rho, matrix in full[deg].items():
                trace = sum(col.get(q, 0) for q, col in enumerate(matrix))
                assert comp.traces[rho] == trace, ((n, k, j), deg, rho)
                if rho in sigmas:
                    kept = comp.action[rho]
                    assert [{i: Fraction(v, dx) for i, v in x.items()} for x, dx in kept] == matrix, (
                        (n, k, j), deg, rho
                    )
                checked += comp.dim > 0
    assert checked > 2000


def test_every_transposition_matrix_is_an_involution_commuting_with_s_n():
    # each swap t exchanges two tied sets of one parity on a dominant
    # component: t t = 1 on every basis element, and t commutes with the
    # class representatives of the trace plan, which generate S_n
    # (test_snchar), so t is an automorphism that commutes with S_n
    checked = 0
    for n, k, j in SYMMETRIC_RINGS:
        for shell in coinvariant._series_scan(IdealComponentCache(n, k, j), trace_plan(n)):
            for deg, comp in shell.items():
                for i, swap in comp.swaps.items():
                    for b in range(comp.dim):
                        unit = ({b: 1}, 1)
                        where = ((n, k, j), deg, i, b)
                        image = coinvariant._apply(swap, unit)
                        assert coinvariant._apply(swap, image) == unit, where
                        for rho, action in comp.action.items():
                            moved = coinvariant._apply(swap, coinvariant._apply(action, unit))
                            assert moved == coinvariant._apply(action, image), where + (rho,)
                        checked += 1
    assert checked > 400


def test_transported_multiplications_supercommute():
    # v w s = eps w v s (eps = -1 for two odd variables) and v v s = 0 for odd
    # v, read off the multiplication matrices of every component carried by
    # alphabet symmetry: with their frame changes they are written in the
    # bases the shell below stores
    checked = 0
    for n, k, j in SYMMETRIC_RINGS:
        shells = list(coinvariant._series_scan(IdealComponentCache(n, k, j)))
        for below, shell in zip(shells, shells[1:]):
            for deg, comp in shell.items():
                if coinvariant._sorting(deg, k)[0] == deg or not comp.dim:
                    continue
                preds = coinvariant._predecessors(deg, k)
                for v in comp.mult:
                    for w in comp.mult:
                        into_v = below[preds[v // n]].mult  # into the source of comp.mult[v]
                        if w < v or w not in into_v:
                            continue
                        vw = [coinvariant._apply(comp.mult[v], col) for col in into_v[w]]
                        odd = v // n >= k and w // n >= k
                        if v == w:
                            assert not (odd and any(x for x, _dx in vw)), ((n, k, j), deg, v)
                            continue
                        into_w = below[preds[w // n]].mult
                        wv = [coinvariant._apply(comp.mult[w], col) for col in into_w[v]]
                        if odd:
                            wv = [({i: -c for i, c in x.items()}, dx) for x, dx in wv]
                        assert vw == wv, ((n, k, j), deg, v, w)
                        checked += 1
    assert checked > 1000


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
                assert rows_of(rel) == rows_of(full), ((n, k, j), deg)
            else:
                assert all(in_span(rel, row) for row in rows_of(full)), ((n, k, j), deg)
                assert rel.rank - full.rank in (0, 1), ((n, k, j), deg)
            checked += 1
    assert checked > 300


def _divides(comp, s: int, u: int) -> bool:
    """Whether basis element s of comp is [u b] for some b one degree lower."""
    image = span_basis([x for x, _dx in comp.mult[u] if x], comp.dim)
    return in_span(image, {s: 1})


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
                # b is a basis index, or a column where alphabet symmetry moved it
                image = checks._column(comp.mult[u], b)
                assert image == ({s: 1}, 1), ((n, k, j), deg, s, u)
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


def test_a_non_integral_trace_is_refused(monkeypatch):
    # halving every class read off the relation span halves the trace of the
    # 3-cycle on Q_1 of (3,1,0), the standard representation, to -1/2
    class_of = coinvariant._class_of

    def halved(basis, vec, where, den=1):
        return class_of(basis, vec, where, 2 * den)

    monkeypatch.setattr(coinvariant, "_class_of", halved)
    with pytest.raises(AssertionError, match=r"trace of \(3,\) at multidegree \(\(1,\), \(\)\)"):
        frobenius_series(3, 1, 0)
