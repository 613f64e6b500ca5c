from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from supercoinv.qcombinat import partitions_of
from supercoinv.snchar import (
    class_representative,
    frobenius_decompose,
    gl_restriction_mult,
    irreducible_character,
    syt_count,
    trace_plan,
    z_order,
)
from oracles import class_size, ssyt_count


def _cycle_type(perm):
    n = len(perm)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        jj = i
        while not seen[jj]:
            seen[jj] = True
            jj = perm[jj]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def test_class_sizes_sum_to_group_order():
    for n in range(1, 8):
        assert sum(class_size(rho) for rho in partitions_of(n)) == factorial(n)


def test_class_size_matches_enumeration():
    for n in range(1, 6):
        counts = {}
        for perm in permutations(range(n)):
            rho = _cycle_type(perm)
            counts[rho] = counts.get(rho, 0) + 1
        for rho, cnt in counts.items():
            assert class_size(rho) == cnt
            assert z_order(rho) == factorial(n) // cnt


def test_trivial_and_sign_characters():
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert irreducible_character((n,), rho) == 1
            assert irreducible_character((1,) * n, rho) == (-1) ** (n - len(rho))


def test_standard_character_values():
    assert irreducible_character((2, 1), (3,)) == -1
    assert irreducible_character((2, 1), (1, 1, 1)) == 2
    assert irreducible_character((2, 1), (2, 1)) == 0


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        irreducible_character((2, 1), (2, 2))


def test_orthogonality():
    for n in range(1, 8):
        shapes = partitions_of(n)
        for a, lam in enumerate(shapes):
            for mu in shapes[a:]:
                total = sum(
                    class_size(rho)
                    * irreducible_character(lam, rho)
                    * irreducible_character(mu, rho)
                    for rho in shapes
                )
                assert total == (factorial(n) if lam == mu else 0), (lam, mu)


def test_identity_value_is_syt_count():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert irreducible_character(lam, (1,) * n) == syt_count(lam)


def test_frobenius_decompose_regular_rep():
    for n in range(1, 6):
        regular = {rho: 0 for rho in partitions_of(n)}
        regular[(1,) * n] = factorial(n)
        mults = frobenius_decompose(regular, n)
        for mu, c in mults.items():
            assert c == syt_count(mu)


def test_frobenius_decompose_unit_vector():
    for n in range(3, 7):
        target = (2, 1) + (1,) * (n - 3)
        chi = {rho: irreducible_character(target, rho) for rho in partitions_of(n)}
        mults = frobenius_decompose(chi, n)
        assert all(mults[mu] == (1 if mu == target else 0) for mu in partitions_of(n))


def test_frobenius_decompose_permutation_character():
    # brute-force oracle: traces of the 3x3 permutation matrices
    traces = {}
    for perm in permutations(range(3)):
        rho = _cycle_type(perm)
        traces[rho] = sum(1 for i in range(3) if perm[i] == i)
    mults = frobenius_decompose(traces, 3)
    assert mults == {(3,): 1, (2, 1): 1, (1, 1, 1): 0}


def test_frobenius_decompose_flags_non_integral():
    bad = {rho: Fraction(1, 2) for rho in partitions_of(3)}
    bad[(1, 1, 1)] = Fraction(1, 3)
    with pytest.raises(ValueError):
        frobenius_decompose(bad, 3)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_decomposition_matches_the_fraction_oracle(data):
    # three kinds of integer class function: a combination of irreducible
    # characters, multiples of n! (both with integral multiplicities), and
    # arbitrary values, where the two must refuse the same inputs
    n = data.draw(st.integers(1, 6), label="n")
    types = partitions_of(n)
    kind = data.draw(st.sampled_from(["characters", "multiples", "any"]), label="kind")
    values = data.draw(st.lists(st.integers(-1000, 1000), min_size=len(types), max_size=len(types)))
    if kind == "characters":
        class_fn = {
            rho: sum(c * irreducible_character(mu, rho) for c, mu in zip(values, types))
            for rho in types
        }
    else:
        scale = factorial(n) if kind == "multiples" else 1
        class_fn = {rho: scale * v for rho, v in zip(types, values)}
    try:
        want = oracles.frobenius_decompose(class_fn, n)
    except ValueError:
        with pytest.raises(ValueError):
            frobenius_decompose(class_fn, n)
        return
    got = frobenius_decompose(class_fn, n)
    assert got == want
    assert all(type(c) is int for c in got.values())
    if kind == "characters":
        assert got == dict(zip(types, values))


def test_gl_restriction_matches_the_fraction_oracle():
    for n in range(1, 6):
        for size in range(7):
            for lam in partitions_of(size):
                if len(lam) > n:
                    with pytest.raises(ValueError):
                        gl_restriction_mult(lam, n)
                    continue
                assert gl_restriction_mult(lam, n) == oracles.gl_restriction_mult(lam, n), (lam, n)


def test_gl_restriction_defining_rep():
    for n in range(2, 6):
        d = gl_restriction_mult((1,), n)
        for mu in partitions_of(n):
            expected = 1 if mu in ((n,), (n - 1, 1)) else 0
            assert d.get(mu, 0) == expected


def test_gl_restriction_empty_shape():
    for n in range(1, 6):
        d = gl_restriction_mult((), n)
        assert all(c == (1 if mu == (n,) else 0) for mu, c in d.items())


def test_gl_restriction_sym2_brute_force():
    # Sym^2(C^2) restricted to S_2: explicit 3x3 matrices on e1^2, e1e2, e2^2
    # identity trace 3; swap maps e1^2 <-> e2^2, fixes e1e2: trace 1
    # decomposition: 2 * trivial + 1 * sign
    d = gl_restriction_mult((2,), 2)
    assert d == {(2,): 2, (1, 1): 1}


def test_gl_restriction_dimension_consistency():
    for n in range(1, 5):
        for size in range(7):
            for lam in partitions_of(size):
                if len(lam) > n:
                    continue
                d = gl_restriction_mult(lam, n)
                assert all(c >= 0 for c in d.values())
                total = sum(c * syt_count(mu) for mu, c in d.items())
                assert total == ssyt_count(lam, n), (lam, n)


def test_class_representative():
    assert class_representative((1, 1, 1)) == (0, 1, 2)
    assert class_representative((2, 1)) == (0, 2, 1)
    assert class_representative((3,)) == (1, 2, 0)
    for n in range(1, 7):
        for rho in partitions_of(n):
            assert _cycle_type(class_representative(rho)) == rho


@pytest.mark.parametrize("n", range(11))
def test_trace_plan_names_every_class(n):
    # every non-identity cycle type is one of the plan's classes, or named by
    # one pair of them whose representatives compose to that type
    identity = (1,) * n
    sigmas, pairs = trace_plan(n)
    assert set(sigmas).isdisjoint(pairs)
    assert set(sigmas) | set(pairs) == {rho for rho in partitions_of(n) if rho != identity}
    assert all(sigma == class_representative(rho) for rho, sigma in sigmas.items())
    for rho, (a, b) in pairs.items():
        assert a in sigmas and b in sigmas, rho
        assert _cycle_type([sigmas[a][i] for i in sigmas[b]]) == rho, (rho, a, b)


def test_trace_plan_keeps_few_classes():
    assert [len(trace_plan(n)[0]) for n in range(4, 9)] == [2, 3, 4, 6, 7]
    assert [len(partitions_of(n)) - 1 for n in range(4, 9)] == [4, 6, 10, 14, 21]
    # the 4-cycle names the double transposition, and with the transposition the 3-cycle
    assert list(trace_plan(4)[0]) == [(4,), (2, 1, 1)]
    assert trace_plan(4)[1] == {(2, 2): ((4,), (4,)), (3, 1): ((4,), (2, 1, 1))}


@pytest.mark.parametrize("n", range(1, 8))
def test_trace_plan_classes_generate_s_n(n):
    # so a matrix that commutes with the plan's class representatives
    # commutes with all of S_n
    gens = list(trace_plan(n)[0].values())
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        fresh = []
        for perm in frontier:
            for g in gens:
                product = tuple(perm[i] for i in g)
                if product not in group:
                    group.add(product)
                    fresh.append(product)
        frontier = fresh
    assert len(group) == factorial(n)


def test_hook_formulas():
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert ssyt_count((2,), 2) == 3
    assert ssyt_count((1, 1, 1), 2) == 0
    assert ssyt_count((2, 1), 3) == 8
