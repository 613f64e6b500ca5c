import oracles
import pytest
from oracles import (
    cauchy_oracle,
    jacobi_trudi_perm,
    kostka_count,
    schur_poly,
    skew_schur_poly,
    super_schur_sum,
)

from supercoinv import superschur
from supercoinv.qcombinat import conjugate, in_Pkjn, partitions_of
from supercoinv.superschur import (
    NotExpressible,
    QUPoly,
    expand_super_schur,
    expansion_shapes,
    specialize,
    ssyt_count,
    super_cauchy_check,
    super_schur,
)


def test_qupoly_ring_ops():
    q = QUPoly.variable(1, 1, 0)
    u = QUPoly.variable(1, 1, 1)
    one = QUPoly.one(1, 1)
    assert (q + u) * (q - u) == q * q - u * u
    assert (q + one).scale(2) == q.scale(2) + one + one
    assert (q * u).total_degree() == 2
    p = q * q + q * u + u
    assert p.homogeneous_component(2) == q * q + q * u
    assert p.coeff((1, 1)) == 1
    assert p.evaluate((1, 1)) == 3
    assert p.evaluate((2, -1)) == 4 - 2 - 1


def test_qupoly_pretty_names():
    p = QUPoly(2, 2, {(1, 0, 0, 0): 1, (0, 1, 0, 0): 2, (0, 0, 1, 1): 1})
    assert p.pretty() == "q + 2t + uv"
    h = QUPoly(1, 0, {(0,): 1, (1,): 2, (2,): 2, (3,): 1})
    assert h.pretty() == "1 + 2q + 2q^2 + q^3"


def test_qupoly_json_roundtrip():
    p = QUPoly(1, 1, {(3, 0): 1, (1, 1): -2})
    assert QUPoly.from_json(1, 1, p.to_json()) == p


def test_schur_poly_examples():
    two = [0, 1]
    s1 = schur_poly((1,), two, 2, 0)
    assert s1 == QUPoly(2, 0, {(1, 0): 1, (0, 1): 1})
    assert schur_poly((1, 1, 1), two, 2, 0).is_zero()
    s21 = schur_poly((2, 1), two, 2, 0)
    assert s21 == QUPoly(2, 0, {(2, 1): 1, (1, 2): 1})


def test_schur_agrees_with_dimension_counts():
    for size in range(7):
        for lam in partitions_of(size):
            for m in range(1, 5):
                poly = schur_poly(lam, list(range(m)), m, 0)
                assert poly.evaluate((1,) * m) == ssyt_count(lam, m), (lam, m)


def test_skew_schur_examples():
    assert skew_schur_poly((2,), (2,), [0], 0, 1) == QUPoly.one(0, 1)
    assert skew_schur_poly((2,), (1,), [0], 0, 1) == QUPoly.variable(0, 1, 0)
    got = skew_schur_poly((2, 1), (1,), [0, 1], 0, 2)
    assert got == QUPoly(0, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    with pytest.raises(ValueError):
        skew_schur_poly((2,), (3,), [0], 0, 1)


def test_super_schur_hooks():
    # single bosonic + single fermionic variable: hooks give two monomials
    for a in range(1, 5):
        for b in range(0, 4):
            lam = (a,) + (1,) * b
            got = super_schur(lam, 1, 1)
            want = QUPoly(1, 1, {(a, b): 1, (a - 1, b + 1): 1})
            assert got == want, lam
    assert super_schur((), 1, 1) == QUPoly.one(1, 1)
    assert super_schur((2, 2), 1, 1).is_zero()
    assert super_schur((1,), 1, 1) == QUPoly(1, 1, {(1, 0): 1, (0, 1): 1})


def test_super_schur_vanishing_is_hook_bound():
    for size in range(7):
        for lam in partitions_of(size):
            for k in range(3):
                for j in range(3):
                    vanishes = super_schur(lam, k, j).is_zero()
                    part = lam[k] if k < len(lam) else 0
                    assert vanishes == (part > j), (lam, k, j)


def test_super_schur_pure_cases():
    for size in range(7):
        for lam in partitions_of(size):
            for k in range(1, 4):
                assert super_schur(lam, k, 0) == schur_poly(lam, list(range(k)), k, 0)
            for j in range(1, 4):
                assert super_schur(lam, 0, j) == schur_poly(
                    conjugate(lam), list(range(j)), 0, j
                )


def test_super_schur_matches_the_tableau_sum():
    # strip branching against sum over nu of s_nu(q) s_(lam'/nu')(u) by tableaux
    for size in range(9):
        for lam in partitions_of(size):
            for k in range(4):
                for j in range(4):
                    assert super_schur(lam, k, j) == super_schur_sum(lam, k, j), (lam, k, j)


def test_kostka_matches_tableau_counts():
    # the horizontal-strip recursion against tableaux counted at dominant weights
    for size in range(10):
        for lam in partitions_of(size):
            for n in range(1, 6):
                for mu in partitions_of(size):
                    if len(mu) <= n:
                        got = superschur._kostka(lam, mu)
                        assert got == kostka_count(lam, mu, n), (lam, mu, n)


def test_super_schur_duality():
    # s_lam(q/u) on (k,j) equals s_lam'(u/q) on (j,k)
    for size in range(7):
        for lam in partitions_of(size):
            for k in range(3):
                for j in range(3):
                    a = super_schur(lam, k, j)
                    b = super_schur(conjugate(lam), j, k)
                    swapped = QUPoly(
                        k, j, {(e[j:] + e[:j]): c for e, c in b.coeffs.items()}
                    )
                    assert a == swapped, (lam, k, j)


def test_super_schur_cancellation():
    for size in range(7):
        for lam in partitions_of(size):
            for k in range(1, 3):
                for j in range(1, 3):
                    full = super_schur(lam, k, j)
                    dropped = specialize(full, {k - 1: (k + j - 1, -1)})
                    small = super_schur(lam, k - 1, j - 1).reindex(k, j)
                    assert dropped == small, (lam, k, j)


def test_super_schur_restriction():
    for size in range(6):
        for lam in partitions_of(size):
            for k in range(1, 3):
                for j in range(0, 3):
                    got = specialize(super_schur(lam, k, j), {k - 1: None})
                    want = super_schur(lam, k - 1, j).reindex(k, j, qshift=0)
                    assert got == want, (lam, k, j, "q")
            for k in range(0, 3):
                for j in range(1, 3):
                    got = specialize(super_schur(lam, k, j), {k + j - 1: None})
                    want = super_schur(lam, k, j - 1).reindex(k, j)
                    assert got == want, (lam, k, j, "u")


def test_specialize_identity_and_errors():
    p = super_schur((2, 1), 1, 1)
    assert specialize(p, {}) == p
    with pytest.raises(ValueError):
        specialize(p, {0: (0, 1)})
    with pytest.raises(ValueError):
        specialize(p, {5: None})


def test_expand_trivial_and_hand_cases():
    one = QUPoly.one(1, 1)
    assert expand_super_schur(one, 1, 1, 2) == {(): 1}
    hilb2 = QUPoly(1, 1, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert expand_super_schur(hilb2, 1, 1, 2) == {(): 1, (1,): 1}
    sign3 = QUPoly(1, 1, {(3, 0): 1, (2, 1): 1, (1, 1): 1, (0, 2): 1})
    assert expand_super_schur(sign3, 1, 1, 3) == {(3,): 1, (1, 1): 1}


def test_expand_rejects_asymmetric():
    p = QUPoly.variable(2, 0, 0)
    with pytest.raises(ValueError):
        expand_super_schur(p, 2, 0, 2)


def test_expand_not_expressible():
    qu = QUPoly(1, 1, {(1, 1): 1})
    with pytest.raises(NotExpressible):
        expand_super_schur(qu, 1, 1, 3)


def test_expand_degree_bound_validates():
    p = QUPoly(1, 1, {(2, 0): 1, (1, 1): 1, (0, 2): 0})
    with pytest.raises(ValueError):
        expand_super_schur(p, 1, 1, 3, degree_bound=1)


def test_super_schur_linear_independence():
    # monomial-coordinate vectors of a degree slice have full rank
    from supercoinv.exactla import span_basis

    for (k, j, n) in [(1, 1, 3), (2, 1, 3), (0, 2, 4), (2, 2, 2)]:
        for d in range(9):
            shapes = expansion_shapes(k, j, n, d)
            if not shapes:
                continue
            polys = [super_schur(lam, k, j) for lam in shapes]
            keys = {}
            for poly in polys:
                for e in poly.coeffs:
                    keys.setdefault(e, len(keys))
            vectors = [{keys[e]: c for e, c in poly.coeffs.items()} for poly in polys]
            assert span_basis(vectors, len(keys)).rank == len(shapes), (k, j, n, d)


def test_expansion_shapes_respect_index_set():
    for d in range(7):
        for lam in expansion_shapes(1, 1, 4, d):
            assert in_Pkjn(lam, 1, 1, 4)


def test_super_cauchy_trivial_cases():
    assert super_cauchy_check(1, 0, 1, 3).passed
    assert super_cauchy_check(0, 1, 2, 3).passed
    assert super_cauchy_check(0, 0, 2, 3).passed


def test_super_cauchy_mixed():
    assert super_cauchy_check(1, 1, 2, 5).passed
    assert super_cauchy_check(2, 1, 2, 4).passed


def test_cauchy_result_reports_failure_degree():
    from supercoinv.superschur import CauchyResult

    res = CauchyResult(False, 4)
    assert not res
    assert "4" in repr(res)


def test_jacobi_trudi_matches_permutation_sum():
    # the packed-exponent minors against the tuple-exponent permutation sum,
    # shapes with more rows than letters (a zero determinant) included
    for size in range(9):
        for lam in partitions_of(size):
            for m in range(7):
                assert oracles._jacobi_trudi(lam, m) == jacobi_trudi_perm(lam, m), (lam, m)


def _outcome(result):
    return result.passed, result.first_failure


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("j", range(3))
def test_super_cauchy_matches_oracle(k, j):
    # the dominant-exponent comparison against the one at every z-exponent
    for n in range(5):
        for degree in range(8):
            got = _outcome(super_cauchy_check(k, j, n, degree))
            assert got == _outcome(cauchy_oracle(k, j, n, degree)), (k, j, n, degree)


def test_super_cauchy_matches_oracle_at_benchmark_size():
    assert _outcome(super_cauchy_check(2, 2, 4, 8)) == _outcome(cauchy_oracle(2, 2, 4, 8))


def test_super_cauchy_fails_on_a_wrong_super_schur(monkeypatch):
    right = superschur.super_schur

    def wrong(lam, k, j):
        # one extra q^3 in every basis element of size 3
        extra = QUPoly.monomial(k, j, (3,) + (0,) * (k + j - 1))
        return right(lam, k, j) + extra if sum(lam) == 3 else right(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", wrong)
    for k, j, n, degree in [(1, 0, 1, 4), (1, 1, 2, 5), (2, 2, 3, 6)]:
        assert _outcome(super_cauchy_check(k, j, n, degree)) == (False, 3)
        assert _outcome(cauchy_oracle(k, j, n, degree)) == (False, 3)


def test_super_cauchy_fails_on_a_non_dominant_qu_term(monkeypatch):
    # q_2^3 alone is not a dominant (q,u)-exponent: only z is reduced to
    # dominant exponents, so the (q,u) side must still see it
    right = superschur.super_schur

    def wrong(lam, k, j):
        extra = QUPoly.monomial(k, j, (0, 3) + (0,) * (k + j - 2))
        return right(lam, k, j) + extra if sum(lam) == 3 else right(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", wrong)
    for j, n, degree in [(0, 1, 4), (1, 2, 5), (2, 3, 6), (2, 4, 7)]:
        assert _outcome(super_cauchy_check(2, j, n, degree)) == (False, 3)
        assert _outcome(cauchy_oracle(2, j, n, degree)) == (False, 3)


def test_super_cauchy_fails_on_a_wrong_column(monkeypatch):
    # s_(1^n)(z) = z_1 ... z_n has the one dominant weight (1^n): an error in
    # super_schur((1^n)) shows only at the z-exponent with n parts
    right = superschur.super_schur

    def wrong(lam, k, j):
        extra = QUPoly.monomial(k, j, (1,) * (k + j))
        return right(lam, k, j) + extra if lam == (1, 1, 1) else right(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", wrong)
    for k, j in [(1, 2), (2, 1)]:
        assert _outcome(super_cauchy_check(k, j, 3, 5)) == (False, 3)
        assert _outcome(cauchy_oracle(k, j, 3, 5)) == (False, 3)


def test_cauchy_tableau_bound_covers_the_tableaux():
    # the tableaux enumerated: s_lam(1^n) in z, and the super Schur terms;
    # k = 0 is where s_lam(1^(k+j)) would undercount
    for k in range(3):
        for j in range(3):
            for n in range(5):
                for degree in range(7):
                    count = 0
                    for d in range(degree + 1):
                        for lam in expansion_shapes(k, j, n, d):
                            count += ssyt_count(lam, n)
                            count += super_schur(lam, k, j).evaluate((1,) * (k + j))
                    bound = superschur.cauchy_tableau_bound(k, j, n, degree)
                    assert count <= bound, (k, j, n, degree)
    assert superschur.cauchy_tableau_bound(2, 2, 4, 8) == 20896
    assert superschur.cauchy_tableau_bound(2, 2, 3, 6) == 2462


@pytest.fixture
def fresh_weight_caches():
    memoized = (oracles._schur_weights, oracles._skew_weights)
    for fn in memoized:
        fn.cache_clear()
    yield
    for fn in memoized:
        fn.cache_clear()


def test_schur_weights_cross_check_fires(monkeypatch, fresh_weight_caches):
    right = oracles._skew_tableau_weights
    # drop the first semistandard tableau of every shape
    monkeypatch.setattr(
        oracles, "_skew_tableau_weights", lambda lam, nu, nvars: right(lam, nu, nvars)[1:]
    )
    for lam, nvars in [((1,), 1), ((2, 1), 3), ((3, 2, 1), 4)]:
        with pytest.raises(AssertionError, match="Jacobi-Trudi"):
            oracles._schur_weights(lam, nvars)


def test_mono_mul_context_mismatch():
    import pytest

    from oracles import mono_mul, mono_one

    with pytest.raises(ValueError):
        mono_mul(mono_one(2, 1, 0), mono_one(2, 2, 0))
