import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercoinv.checks import _polarization_operators

from oracles import (
    act_mono,
    act_poly,
    all_perms,
    derivation,
    invariant_basis,
    invariant_vectors,
    mono_degree,
    mono_mul,
    mono_one,
    monomial_space,
    monomial_space_dim,
    permutation_action,
    poly_add_term,
    poly_mul,
    reynolds,
    rows_of,
    shift_map,
    superderivation,
)

SEED = 31415


def _mono(n, k, j, bos=(), fer=()):
    m = [list(e) for e in mono_one(n, k, j)[0]]
    for (a, p, e) in bos:
        m[a][p] += e
    masks = [0] * j
    for (c, p) in fer:
        masks[c] |= 1 << p
    return (tuple(tuple(e) for e in m), tuple(masks))


def _theta(n, j, c, p):
    return _mono(n, 0, j, fer=[(c, p)])


def test_fermionic_square_is_zero():
    t = _theta(2, 1, 0, 0)
    assert mono_mul(t, t) is None


def test_fermionic_anticommute():
    t1 = _theta(2, 1, 0, 0)
    t2 = _theta(2, 1, 0, 1)
    sign_a, prod_a = mono_mul(t1, t2)
    sign_b, prod_b = mono_mul(t2, t1)
    assert prod_a == prod_b
    assert sign_a == 1 and sign_b == -1


def test_cross_set_anticommute():
    n, j = 2, 2
    ta = _mono(n, 0, j, fer=[(0, 0)])
    tb = _mono(n, 0, j, fer=[(1, 0)])
    sign_ab, prod = mono_mul(ta, tb)
    sign_ba, prod2 = mono_mul(tb, ta)
    assert prod == prod2
    assert sign_ab == 1 and sign_ba == -1


def test_commuting_product():
    n, k = 2, 1
    x1 = {_mono(n, k, 0, bos=[(0, 0, 1)]): 1}
    x2 = {_mono(n, k, 0, bos=[(0, 1, 1)]): 1}
    splus = {m: c for m, c in x1.items()}
    for m, c in x2.items():
        poly_add_term(splus, m, c)
    sminus = {m: c for m, c in x1.items()}
    for m, c in x2.items():
        poly_add_term(sminus, m, -c)
    prod = poly_mul(splus, sminus)
    want = {}
    poly_add_term(want, _mono(n, k, 0, bos=[(0, 0, 2)]), 1)
    poly_add_term(want, _mono(n, k, 0, bos=[(0, 1, 2)]), -1)
    assert prod == want


def test_act_examples():
    n = 2
    swap = (1, 0)
    x1 = _mono(n, 1, 0, bos=[(0, 0, 1)])
    sign, img = act_mono(swap, x1)
    assert sign == 1 and img == _mono(n, 1, 0, bos=[(0, 1, 1)])
    t12 = _mono(n, 0, 1, fer=[(0, 0), (0, 1)])
    sign, img = act_mono(swap, t12)
    assert img == t12 and sign == -1


def test_act_three_cycle_on_top_wedge():
    n = 3
    cycle = (1, 2, 0)  # even permutation
    top = _mono(n, 0, 1, fer=[(0, 0), (0, 1), (0, 2)])
    sign, img = act_mono(cycle, top)
    assert img == top and sign == 1
    swap = (1, 0, 2)
    sign, img = act_mono(swap, top)
    assert img == top and sign == -1


def _random_poly(rng, n, k, j, terms=4, max_exp=2):
    poly = {}
    for _ in range(terms):
        bos = tuple(tuple(rng.randint(0, max_exp) for _ in range(n)) for _ in range(k))
        fer = tuple(rng.randint(0, (1 << n) - 1) for _ in range(j))
        poly_add_term(poly, (bos, fer), rng.choice((-3, -2, -1, 1, 2, 3)))
    return poly


def test_action_is_group_action_and_ring_hom():
    rng = random.Random(SEED)
    for n in (2, 3, 4):
        k, j = 2, 2
        perms = list(permutations(range(n)))
        for _ in range(6):
            p = _random_poly(rng, n, k, j)
            q = _random_poly(rng, n, k, j)
            sigma = rng.choice(perms)
            tau = rng.choice(perms)
            composed = tuple(sigma[tau[i]] for i in range(n))
            assert act_poly(composed, p) == act_poly(sigma, act_poly(tau, p))
            assert act_poly(sigma, poly_mul(p, q)) == poly_mul(
                act_poly(sigma, p), act_poly(sigma, q)
            )


def test_derivation_examples():
    n = 2
    x1 = {_mono(n, 1, 1, bos=[(0, 0, 1)]): 1}
    t1 = {_mono(n, 1, 1, fer=[(0, 0)]): 1}
    # polarization bosonic -> fermionic and back
    assert superderivation(x1, ("f", 0), ("b", 0)) == {_mono(n, 1, 1, fer=[(0, 0)]): 1}
    assert superderivation(t1, ("b", 0), ("f", 0)) == {_mono(n, 1, 1, bos=[(0, 0, 1)]): 1}
    # Euler operator: x1*x2 has q-degree 2
    x1x2 = {_mono(n, 1, 1, bos=[(0, 0, 1), (0, 1, 1)]): 1}
    assert superderivation(x1x2, ("b", 0), ("b", 0)) == {
        _mono(n, 1, 1, bos=[(0, 0, 1), (0, 1, 1)]): 2
    }


def test_fermionic_euler_operator():
    n, j = 3, 1
    top = {_mono(n, 0, j, fer=[(0, 0), (0, 1), (0, 2)]): 1}
    assert superderivation(top, ("f", 0), ("f", 0)) == {
        _mono(n, 0, j, fer=[(0, 0), (0, 1), (0, 2)]): 3
    }


def test_gl11_anticommutator_is_euler():
    # {E_(b<-f), E_(f<-b)} acts as total degree on the (1,1) superring
    rng = random.Random(SEED + 1)
    n, k, j = 3, 1, 1
    for _ in range(10):
        p = _random_poly(rng, n, k, j, terms=1)
        if not p:
            continue
        mono = next(iter(p))
        r, s = mono_degree(mono)
        e_bf = lambda q: superderivation(q, ("b", 0), ("f", 0))
        e_fb = lambda q: superderivation(q, ("f", 0), ("b", 0))
        first = e_bf(e_fb(p))
        second = e_fb(e_bf(p))
        total = {}
        for m, c in first.items():
            poly_add_term(total, m, c)
        for m, c in second.items():
            poly_add_term(total, m, c)
        want = {m: c * (r[0] + s[0]) for m, c in p.items() if r[0] + s[0]}
        assert total == want


def test_derivations_preserve_total_degree():
    rng = random.Random(SEED + 2)
    n, k, j = 3, 2, 2
    kinds = [("b", 0), ("b", 1), ("f", 0), ("f", 1)]
    for _ in range(10):
        mono = next(iter(_random_poly(rng, n, k, j, terms=1) or {mono_one(n, k, j): 1}))
        p = {mono: 1}
        r, s = mono_degree(mono)
        total = sum(r) + sum(s)
        for target in kinds:
            for source in kinds:
                img = superderivation(p, target, source)
                for m in img:
                    r2, s2 = mono_degree(m)
                    assert sum(r2) + sum(s2) == total


def test_derivations_commute_with_action():
    rng = random.Random(SEED + 3)
    for n in (2, 3, 4):
        k, j = 2, 2
        perms = list(permutations(range(n)))
        kinds = [("b", 0), ("b", 1), ("f", 0), ("f", 1)]
        for _ in range(6):
            p = _random_poly(rng, n, k, j)
            sigma = rng.choice(perms)
            target = rng.choice(kinds)
            source = rng.choice(kinds)
            a = act_poly(sigma, superderivation(p, target, source))
            b = superderivation(act_poly(sigma, p), target, source)
            assert a == b, (n, sigma, target, source)


def test_monomial_space_dims():
    for n in (2, 3, 4):
        for k, j in ((1, 0), (1, 1), (2, 1)):
            for r0 in range(3):
                for s0 in range(n + 1):
                    r = (r0,) * k
                    s = (s0,) * j
                    monos, index = monomial_space(n, k, j, r, s)
                    expected = monomial_space_dim(n, k, j, r, s)
                    assert len(monos) == expected
                    assert len(index) == len(monos)
                    for m in monos:
                        assert mono_degree(m) == (r, s)


def test_monomial_space_rejects_bad_degree():
    with pytest.raises(ValueError):
        monomial_space(2, 1, 0, (1, 1), ())


def test_reynolds_idempotent_and_fixed():
    rng = random.Random(SEED + 4)
    for n in (2, 3):
        p = _random_poly(rng, n, 1, 1)
        avg = reynolds(n, p)
        assert reynolds(n, avg) == avg
        for sigma in all_perms(n):
            assert act_poly(sigma, avg) == avg


def test_invariant_basis_hand_cases():
    # n=2 bosonic degree 1: the line x1 + x2
    basis = invariant_basis(2, 1, 0, (1,), ())
    assert basis.rank == 1
    monos, index = monomial_space(2, 1, 0, (1,), ())
    row = rows_of(basis)[0]
    assert row == {0: 1, 1: 1}
    # n=2 both fermionic slots: the swap negates the top wedge, no invariants
    assert invariant_basis(2, 0, 1, (), (2,)).rank == 0
    # n=3 single fermionic slot: the diagonal line
    basis = invariant_basis(3, 0, 1, (), (1,))
    assert basis.rank == 1
    assert rows_of(basis)[0] == {0: 1, 1: 1, 2: 1}


def _components_upto(n, k, j, top):
    """Every multidegree (r, s) of total degree at most top."""
    degs = [((), ())]
    for _ in range(k):
        degs = [(r + (a,), s) for r, s in degs for a in range(top + 1)]
    for _ in range(j):
        degs = [(r, s + (c,)) for r, s in degs for c in range(top + 1)]
    return [(r, s) for r, s in degs if sum(r) + sum(s) <= top]


def test_shift_maps_match_mono_mul():
    # every entry of every variable's map is the product mono_mul gives,
    # a killed product included
    for n, k, j in [(3, 2, 0), (3, 1, 1), (3, 0, 2), (2, 2, 2)]:
        for r, s in _components_upto(n, k, j, 4):
            monos, _index = monomial_space(n, k, j, r, s)
            variables = [("b", a, p) for a in range(k) for p in range(n)]
            variables += [("f", c, p) for c in range(j) for p in range(n)]
            for kind, i, p in variables:
                if kind == "b":
                    var = _mono(n, k, j, bos=[(i, p, 1)])
                    r2, s2 = r[:i] + (r[i] + 1,) + r[i + 1 :], s
                else:
                    var = _mono(n, k, j, fer=[(i, p)])
                    r2, s2 = r, s[:i] + (s[i] + 1,) + s[i + 1 :]
                targets_monos, _ = monomial_space(n, k, j, r2, s2)
                signs, targets = shift_map(n, k, j, r, s, kind, i, p)
                assert len(signs) == len(targets) == len(monos)
                for idx, m in enumerate(monos):
                    prod = mono_mul(var, m)
                    if prod is None:
                        assert signs[idx] == 0
                    else:
                        assert (signs[idx], targets_monos[targets[idx]]) == prod


def test_permutation_action_matches_act_mono():
    for n, k, j in [(3, 2, 0), (3, 1, 1), (3, 0, 2), (2, 2, 2)]:
        for r, s in _components_upto(n, k, j, 3):
            monos, _index = monomial_space(n, k, j, r, s)
            for sigma in all_perms(n):
                signs, targets = permutation_action(n, k, j, r, s, sigma)
                assert [(sg, monos[t]) for sg, t in zip(signs, targets)] == [
                    act_mono(sigma, m) for m in monos
                ]


def test_invariant_vectors_match_full_reynolds():
    # spanning vectors agree with averaging every monomial separately
    from oracles import span_basis

    shapes = [
        (3, 1, 0, (2,), ()),
        (3, 0, 2, (), (1, 1)),
        (2, 1, 1, (1,), (1,)),
        # orbits whose Reynolds sums cancel: odd stabilizer elements
        (3, 0, 2, (), (2, 2)),
        (4, 1, 1, (2,), (2,)),
        (2, 0, 1, (), (2,)),
        # two bosonic sets
        (3, 2, 0, (2, 1), ()),
    ]
    for n, k, j, r, s in shapes:
        monos, index, vectors = invariant_vectors(n, k, j, r, s)
        direct = []
        for m in monos:
            avg = reynolds(n, {m: 1})
            vec = {index[m2]: c for m2, c in avg.items()}
            if vec:
                direct.append(vec)
        a = span_basis(vectors, len(monos))
        b = span_basis(direct, len(monos))
        assert a.pivots == b.pivots and rows_of(a) == rows_of(b)
        for vec in vectors:
            poly = {monos[i]: c for i, c in vec.items()}
            for sigma in all_perms(n):
                assert act_poly(sigma, poly) == poly


def _polarize(n, k, j, r, s, target, source, vec):
    """E_(target,source) of a component vector, as a dict polynomial.

    The operator is the engine's (variable images and parity), applied by
    the oracle's ``derivation``.
    """
    (op,) = [
        op for op in _polarization_operators(n, k, j) if op.label(k) == [list(target), list(source)]
    ]
    monos = monomial_space(n, k, j, r, s)[0]
    out = {}
    for i, v in vec.items():
        for m, c in derivation(n, k, j, monos[i], op).items():
            poly_add_term(out, m, c * v)
    return out


def _sets(k, j):
    return [("b", a) for a in range(k)] + [("f", c) for c in range(j)]


def test_polarization_maps_match_superderivation_exhaustively():
    # all four operator families, the cross-set fermionic pairs included, on
    # every monomial of every component up to total degree 3: the engine's
    # operators (variable images and parity) through the oracle's
    # derivation map are the polarization operators
    for n, k, j in [(2, 2, 2), (3, 1, 2), (3, 2, 1)]:
        for r, s in _components_upto(n, k, j, 3):
            monos, _index = monomial_space(n, k, j, r, s)
            for target in _sets(k, j):
                for source in _sets(k, j):
                    for i, m in enumerate(monos):
                        want = superderivation({m: 1}, target, source)
                        assert _polarize(n, k, j, r, s, target, source, {i: 1}) == want


@st.composite
def _component_vectors(draw):
    """An operator, a vector of a component and a permutation; n <= 4, k, j <= 2."""
    n = draw(st.integers(1, 4))
    k, j = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]))
    r = tuple(draw(st.integers(0, 3)) for _ in range(k))
    s = tuple(draw(st.integers(0, n)) for _ in range(j))
    target = draw(st.sampled_from(_sets(k, j)))
    source = draw(st.sampled_from(_sets(k, j)))
    dim = len(monomial_space(n, k, j, r, s)[0])
    coords = draw(st.lists(st.integers(0, dim - 1), max_size=6, unique=True))
    vec = {i: draw(st.integers(-5, 5).filter(bool)) for i in coords}
    sigma = tuple(draw(st.permutations(range(n))))
    return (n, k, j, r, s), target, source, vec, sigma


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_component_vectors())
def test_polarization_maps_match_superderivation(case):
    (n, k, j, r, s), target, source, vec, sigma = case
    monos, _index = monomial_space(n, k, j, r, s)
    poly = {monos[i]: v for i, v in vec.items()}
    image = _polarize(n, k, j, r, s, target, source, vec)
    assert image == superderivation(poly, target, source)
    # E commutes with sigma: E(sigma v) == sigma(E v)
    signs, targets = permutation_action(n, k, j, r, s, sigma)
    moved = {targets[i]: signs[i] * v for i, v in vec.items()}
    assert _polarize(n, k, j, r, s, target, source, moved) == act_poly(sigma, image)


@st.composite
def _shift_cases(draw):
    """A component vector, one variable and two permutations; n <= 4, k, j <= 2."""
    n = draw(st.integers(1, 4))
    k, j = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2), (2, 2)]))
    r = tuple(draw(st.integers(0, 3)) for _ in range(k))
    s = tuple(draw(st.integers(0, n)) for _ in range(j))
    kind, idx = draw(st.sampled_from(_sets(k, j)))
    pos = draw(st.integers(0, n - 1))
    dim = len(monomial_space(n, k, j, r, s)[0])
    coords = draw(st.lists(st.integers(0, dim - 1), max_size=6, unique=True))
    vec = {i: draw(st.integers(-5, 5).filter(bool)) for i in coords}
    sigma = tuple(draw(st.permutations(range(n))))
    tau = tuple(draw(st.permutations(range(n))))
    return (n, k, j, r, s), (kind, idx, pos), vec, sigma, tau


def _as_poly(n, k, j, r, s, vec):
    monos = monomial_space(n, k, j, r, s)[0]
    return {monos[i]: c for i, c in vec.items() if c}


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_shift_cases())
def test_shift_map_matches_poly_mul(case):
    (n, k, j, r, s), (kind, idx, pos), vec, _sigma, _tau = case
    if kind == "b":
        var = _mono(n, k, j, bos=[(idx, pos, 1)])
        r2, s2 = r[:idx] + (r[idx] + 1,) + r[idx + 1 :], s
    else:
        var = _mono(n, k, j, fer=[(idx, pos)])
        r2, s2 = r, s[:idx] + (s[idx] + 1,) + s[idx + 1 :]
    signs, targets = shift_map(n, k, j, r, s, kind, idx, pos)
    image = {}
    for i, v in vec.items():
        if signs[i]:
            image[targets[i]] = image.get(targets[i], 0) + signs[i] * v
    want = poly_mul({var: 1}, _as_poly(n, k, j, r, s, vec))
    assert _as_poly(n, k, j, r2, s2, image) == want


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_shift_cases())
def test_permutation_action_matches_act_poly(case):
    (n, k, j, r, s), _var, vec, sigma, tau = case
    signs, targets = permutation_action(n, k, j, r, s, sigma)
    moved = {targets[i]: signs[i] * v for i, v in vec.items()}
    poly = _as_poly(n, k, j, r, s, vec)
    assert _as_poly(n, k, j, r, s, moved) == act_poly(sigma, poly)
    # a group action: tau after sigma is the action of their composite
    tsigns, ttargets = permutation_action(n, k, j, r, s, tau)
    twice = {ttargets[i]: tsigns[i] * v for i, v in moved.items()}
    composite = tuple(tau[sigma[p]] for p in range(n))
    csigns, ctargets = permutation_action(n, k, j, r, s, composite)
    assert twice == {ctargets[i]: csigns[i] * v for i, v in vec.items()}
