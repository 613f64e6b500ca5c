from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from supercoinv.qcombinat import partitions_of
from supercoinv.snchar import (
    class_representative,
    frobenius_decompose,
    gl_restriction_mult,
    irreducible_character,
    syt_count,
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


def test_hook_formulas():
    assert syt_count((2, 1)) == 2
    assert syt_count((2, 2)) == 2
    assert ssyt_count((2,), 2) == 3
    assert ssyt_count((1, 1, 1), 2) == 0
    assert ssyt_count((2, 1), 3) == 8
