from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from supercoinv.qcombinat import (
    QUPoly,
    conjugate,
    contains,
    in_Pkjn,
    partition_sort_key,
    partitions_of,
    q_binomial,
    q_factorial,
    q_number,
    q_stirling,
    rectangle_coeff,
    sagan_swanson_sum,
)

from oracles import as_partition


def _q(coeffs):
    """The one-variable polynomial sum c q^e of {e: c}."""
    return QUPoly(1, 0, {(e,): c for e, c in coeffs.items()})


ONE = QUPoly.one(1, 0)


def _count_partitions(n, max_part):
    # independent counting oracle: plain recursion, no shared code path
    if n == 0:
        return 1
    if n < 0 or max_part == 0:
        return 0
    return _count_partitions(n - max_part, max_part) + _count_partitions(n, max_part - 1)


def test_partitions_of_small():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))


def test_partitions_of_seven_count():
    assert len(partitions_of(7)) == 15
    for n in range(11):
        assert len(partitions_of(n)) == _count_partitions(n, n)


def test_partitions_descending_lex_and_valid():
    for n in range(9):
        parts = partitions_of(n)
        assert len(set(parts)) == len(parts)
        for lam in parts:
            assert sum(lam) == n
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        assert list(parts) == sorted(parts, reverse=True)


def test_as_partition_rejects_bad_input():
    import pytest

    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, 0))


def test_conjugate_involution():
    for n in range(9):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam
            assert sum(conjugate(lam)) == n
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_contains_matches_cellwise():
    for n in range(7):
        for lam in partitions_of(n):
            cells_lam = {(i, c) for i, p in enumerate(lam) for c in range(p)}
            for m in range(n + 1):
                for nu in partitions_of(m):
                    cells_nu = {(i, c) for i, p in enumerate(nu) for c in range(p)}
                    assert contains(lam, nu) == (cells_nu <= cells_lam)


def test_in_Pkjn_examples():
    assert in_Pkjn((1, 1, 1), 0, 1, 4)
    assert not in_Pkjn((2, 2), 1, 1, 4)
    assert in_Pkjn((5, 1, 1), 1, 2, 3)
    assert not in_Pkjn((1, 1, 1, 1), 1, 2, 3)  # too long
    assert in_Pkjn((), 0, 0, 1)


def test_partition_sort_key_orders_tables():
    lams = [(2, 1), (3,), (1, 1, 1), (1,), ()]
    assert sorted(lams, key=partition_sort_key) == [(), (1,), (3,), (2, 1), (1, 1, 1)]


def test_qpoly_ring_ops():
    q = QUPoly.monomial(1, 0, (1,))
    one = ONE
    assert (one + q) * (one - q) == one - q * q
    assert (q + one) - (q + one) == QUPoly.zero(1, 0)
    assert q_number(3) == _q({0: 1, 1: 1, 2: 1})
    assert q_number(0).is_zero()
    assert q_number(4).evaluate((1,)) == 4


def test_q_factorial_degree_and_value():
    assert q_factorial(0) == ONE
    assert q_factorial(3) == _q({0: 1, 1: 2, 2: 2, 3: 1})
    for d in range(8):
        assert q_factorial(d).evaluate((1,)) == __import__("math").factorial(d)
        assert max(map(sum, q_factorial(d).coeffs)) == d * (d - 1) // 2


def test_q_binomial_specializes_to_binomial():
    for n in range(13):
        for d in range(n + 1):
            assert q_binomial(n, d).evaluate((1,)) == comb(n, d)
    assert q_binomial(4, 2) == _q({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
    assert q_binomial(3, 5).is_zero()
    assert q_binomial(-1, 0).is_zero()


def test_q_binomial_pascal_variant():
    # [n-2, d] + q^(n-d-1) [n-2, d-1] == [n-1, d]
    for n in range(2, 13):
        for d in range(n):
            lhs = q_binomial(n - 2, d)
            if n - d - 1 >= 0 and d >= 1:
                lhs = lhs + QUPoly.monomial(1, 0, (n - d - 1,)) * q_binomial(n - 2, d - 1)
            assert lhs == q_binomial(n - 1, d), (n, d)


def test_q_stirling_values():
    assert q_stirling(0, 0) == ONE
    assert q_stirling(3, 2) == _q({0: 2, 1: 1})  # 2 + q, by unrolling
    for n in range(1, 8):
        assert q_stirling(n, 0).is_zero()
        assert q_stirling(n, n) == ONE


def test_sagan_swanson_sum_is_one():
    for n in range(16):
        assert sagan_swanson_sum(n) == ONE, n


def test_sagan_swanson_hand_n2():
    # (-q) * Stir(2,1) + [2]! = -q + (1+q) = 1
    assert q_stirling(2, 1) == ONE
    assert q_factorial(2) == _q({0: 1, 1: 1})


def _rect_partition_count(i, height, width):
    # brute force: partitions of i with at most `height` parts, each <= width
    def rec(remaining, bound, rows):
        if remaining == 0:
            return 1
        if rows == 0 or bound == 0:
            return 0
        return sum(rec(remaining - first, first, rows - 1) for first in range(1, min(bound, remaining) + 1))

    if width < 0 or height < 0:
        return 1 if i == 0 else 0
    return rec(i, width, height)


def test_rectangle_coeff_counts_partitions():
    for n in range(2, 11):
        for d in range(n - 1):
            width = n - 2 - d
            for i in range(d * max(width, 0) + 2):
                expected = _rect_partition_count(i, d, width) if width >= 0 else (1 if i == 0 and d == 0 else 0)
                assert rectangle_coeff(i, d, n) == expected, (i, d, n)


def test_qpoly_exact_evaluation():
    p = q_binomial(6, 3)
    assert p.evaluate((Fraction(1, 2),)) == sum(Fraction(c, 2**e) for (e,), c in p.coeffs.items())


@st.composite
def _qupoly_pairs(draw):
    k, j = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    terms = st.dictionaries(
        st.tuples(*[st.integers(0, 6)] * (k + j)), st.integers(-4, 4), max_size=6
    )
    return QUPoly(k, j, draw(terms)), QUPoly(k, j, draw(terms))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_qupoly_pairs())
def test_qupoly_product_matches_termwise_product(pair):
    # the product packs exponent vectors into integers; this is the plain
    # term-by-term product it must equal
    a, b = pair
    want = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            want[e] = want.get(e, 0) + c1 * c2
    assert (a * b).coeffs == {e: c for e, c in want.items() if c}
