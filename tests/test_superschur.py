import os
import random
import subprocess
import sys
from itertools import permutations, product
from math import comb
from pathlib import Path

import oracles
import pytest
from oracles import (
    cauchy_oracle,
    jacobi_trudi_perm,
    kostka_count,
    schur_poly,
    skew_schur_poly,
    solve_columns,
    ssyt_count,
    super_schur_sum,
)

from supercoinv import superschur
from supercoinv.coinvariant import frobenius_series
from supercoinv.qcombinat import conjugate, in_Pkjn, partitions_of
from supercoinv.superschur import (
    NotExpressible,
    QUPoly,
    expand_super_schur,
    expansion_shapes,
    specialize,
    super_cauchy_check,
    super_schur,
)


def test_qupoly_ring_ops():
    q = QUPoly.variable(1, 1, 0)
    u = QUPoly.variable(1, 1, 1)
    one = QUPoly.one(1, 1)
    assert (q + u) * (q - u) == q * q - u * u
    assert (q + one).scale(2) == q.scale(2) + one + one
    p = q * q + q * u + u
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
                    want = super_schur(lam, k - 1, j).reindex(k, j)
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


def test_super_schur_leading_monomial():
    # the one lex-largest exponent is q^(lam_1..lam_k) u^((lam_(k+1), ...)'),
    # with coefficient 1 (Berele-Regev)
    for size in range(9):
        for lam in partitions_of(size):
            for k in range(4):
                for j in range(4):
                    poly = super_schur(lam, k, j)
                    if poly.is_zero():
                        continue
                    head = tuple(lam[i] if i < len(lam) else 0 for i in range(k))
                    tail = conjugate(lam[k:])
                    lead = head + tail + (0,) * (j - len(tail))
                    assert max(poly.coeffs) == lead, (lam, k, j)
                    assert poly.coeffs[lead] == 1, (lam, k, j)


def _solved_expansion(poly, k, j, n):
    """The super Schur expansion by one linear solve per degree, or None."""
    result = {}
    for d in sorted({sum(e) for e in poly.coeffs}):
        component = {e: c for e, c in poly.coeffs.items() if sum(e) == d}
        shapes = expansion_shapes(k, j, n, d)
        basis = [super_schur(lam, k, j).coeffs for lam in shapes]
        keys = {}
        for coeffs in basis + [component]:
            for e in coeffs:
                keys.setdefault(e, len(keys))
        cols = [{keys[e]: c for e, c in coeffs.items()} for coeffs in basis]
        rhs = {keys[e]: c for e, c in component.items()}
        solution = solve_columns(cols, rhs, len(keys))
        if solution is None:
            return None
        result.update((lam, c) for lam, c in zip(shapes, solution) if c)
    return result


def _peeled_expansion(poly, k, j, n):
    try:
        return expand_super_schur(poly, k, j, n)
    except NotExpressible:
        return None


def test_expand_matches_the_linear_solve_on_every_small_ring():
    for n in range(1, 8):
        for k in range(8 - n):
            for j in range(8 - n - k):
                series = frobenius_series(n, k, j)
                for mu in partitions_of(n):
                    poly = series.mu_polynomial(mu)
                    want = _solved_expansion(poly, k, j, n)
                    assert want is not None, (n, k, j, mu)
                    assert expand_super_schur(poly, k, j, n) == want, (n, k, j, mu)


def _random_combination(rng, k, j, n):
    """A random integer combination of super Schurs of degree <= 6, as (poly, coefficients)."""
    poly = QUPoly.zero(k, j)
    coeffs = {}
    for d in range(7):
        for lam in expansion_shapes(k, j, n, d):
            c = rng.choice([0, 0, 0, 1, -1, 2, -3])
            if c:
                coeffs[lam] = c
                poly = poly + super_schur(lam, k, j).scale(c)
    return poly, coeffs


def test_expand_matches_the_linear_solve_on_random_combinations():
    rng = random.Random(20261019)
    for _ in range(60):
        k, j, n = rng.randrange(4), rng.randrange(4), rng.randrange(1, 5)
        poly, coeffs = _random_combination(rng, k, j, n)
        assert expand_super_schur(poly, k, j, n) == coeffs, (k, j, n)
        assert _solved_expansion(poly, k, j, n) == coeffs, (k, j, n)


def test_expand_refuses_in_a_bounded_number_of_steps(monkeypatch):
    # each peeling step lowers the leading exponent, so a polynomial outside
    # the span is refused after at most one step per exponent of its degrees
    right = superschur.super_schur
    rng = random.Random(20261020)
    cases = [
        (QUPoly.variable(2, 0, 1), 2, 0, 2),
        (QUPoly.variable(1, 1, 1), 1, 1, 1),
        (QUPoly(1, 1, {(1, 1): 1}), 1, 1, 3),
        (QUPoly(1, 2, {(1, 1, 1): 1}), 1, 2, 3),  # (1) + (2)' is no partition
    ]
    for _ in range(40):
        k, j, n = rng.randrange(4), rng.randrange(1, 4), rng.randrange(1, 5)
        poly, _coeffs = _random_combination(rng, k, j, n)
        stray = tuple(rng.randrange(3) for _ in range(k + j))
        cases.append((poly + QUPoly.monomial(k, j, stray), k, j, n))
    calls, steps = [], [0]

    def counted(lam, k, j):
        calls.append(lam)
        assert len(calls) <= steps[0], f"no refusal after {steps[0]} steps"
        return right(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", counted)
    for poly, k, j, n in cases:
        calls.clear()
        steps[0] = sum(comb(d + k + j - 1, k + j - 1) for d in {sum(e) for e in poly.coeffs})
        assert _peeled_expansion(poly, k, j, n) == _solved_expansion(poly, k, j, n)


def test_super_schur_linear_independence():
    # monomial-coordinate vectors of a degree slice have full rank
    from oracles import span_basis

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


def test_cauchy_at_degree_60_enumerates_only_partitions_of_at_most_n_parts():
    # p(60) = 966 467, but the shape and mu loops of n = 3 need the 331
    # partitions of 60 into at most 3 parts: under a 512 MB address-space
    # limit the check runs, and the ceiling guard refuses (1, 1) before it
    code = (
        "import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29)); "
        "from supercoinv.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(superschur.__file__).parent.parent)}

    def cauchy(kj):
        argv = ["cauchy", "--n", "3", "--k", kj, "--j", kj, "--degree-bound", "60"]
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv, "--format", "text"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    assert cauchy("0") == (0, "cauchy k=0 j=0 n=3: pass\n", "")
    assert cauchy("1") == (
        2,
        "",
        "resource ceiling exceeded: the Cauchy check at k=1 j=1 n=3 degree 60 has 148036"
        " tableaux, exceeding the ceiling of 50000\n",
    )


def test_expansion_shapes_respect_index_set():
    for d in range(7):
        for lam in expansion_shapes(1, 1, 4, d):
            assert in_Pkjn(lam, 1, 1, 4)


def test_super_cauchy_trivial_cases():
    assert super_cauchy_check(1, 0, 1, 3) is None
    assert super_cauchy_check(0, 1, 2, 3) is None
    assert super_cauchy_check(0, 0, 2, 3) is None


def test_super_cauchy_mixed():
    assert super_cauchy_check(1, 1, 2, 5) is None
    assert super_cauchy_check(2, 1, 2, 4) is None


def test_cauchy_result_reports_failure_degree(monkeypatch):
    # the result of a failing comparison is its first failing degree, read
    # alike by the engine and the oracle
    real = superschur.super_schur

    def doubled_at_4(lam, k, j):
        return real(lam, k, j).scale(2) if sum(lam) == 4 else real(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", doubled_at_4)
    assert super_cauchy_check(1, 1, 2, 6) == 4
    assert cauchy_oracle(1, 1, 2, 6) == 4


def test_jacobi_trudi_matches_permutation_sum():
    # the packed-exponent minors against the tuple-exponent permutation sum,
    # shapes with more rows than letters (a zero determinant) included
    for size in range(9):
        for lam in partitions_of(size):
            for m in range(7):
                assert oracles._jacobi_trudi(lam, m) == jacobi_trudi_perm(lam, m), (lam, m)


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("j", range(3))
def test_super_cauchy_matches_oracle(k, j):
    # the dominant-exponent comparison against the one at every z-exponent
    for n in range(5):
        for degree in range(8):
            got = super_cauchy_check(k, j, n, degree)
            assert got == cauchy_oracle(k, j, n, degree), (k, j, n, degree)


def test_super_cauchy_matches_oracle_at_benchmark_size():
    assert super_cauchy_check(2, 2, 4, 8) == cauchy_oracle(2, 2, 4, 8)


def test_super_cauchy_fails_on_a_wrong_super_schur(monkeypatch):
    right = superschur.super_schur

    def wrong(lam, k, j):
        # one extra q^3 in every basis element of size 3
        extra = QUPoly.monomial(k, j, (3,) + (0,) * (k + j - 1))
        return right(lam, k, j) + extra if sum(lam) == 3 else right(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", wrong)
    for k, j, n, degree in [(1, 0, 1, 4), (1, 1, 2, 5), (2, 2, 3, 6)]:
        assert super_cauchy_check(k, j, n, degree) == 3
        assert cauchy_oracle(k, j, n, degree) == 3


def test_super_cauchy_fails_on_a_non_dominant_qu_term(monkeypatch):
    # q_2^3 alone is not a dominant (q,u)-exponent: only z is reduced to
    # dominant exponents, so the (q,u) side must still see it
    right = superschur.super_schur

    def wrong(lam, k, j):
        extra = QUPoly.monomial(k, j, (0, 3) + (0,) * (k + j - 2))
        return right(lam, k, j) + extra if sum(lam) == 3 else right(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", wrong)
    for j, n, degree in [(0, 1, 4), (1, 2, 5), (2, 3, 6), (2, 4, 7)]:
        assert super_cauchy_check(2, j, n, degree) == 3
        assert cauchy_oracle(2, j, n, degree) == 3


def test_super_cauchy_fails_on_a_wrong_column(monkeypatch):
    # s_(1^n)(z) = z_1 ... z_n has the one dominant weight (1^n): an error in
    # super_schur((1^n)) shows only at the z-exponent with n parts
    right = superschur.super_schur

    def wrong(lam, k, j):
        extra = QUPoly.monomial(k, j, (1,) * (k + j))
        return right(lam, k, j) + extra if lam == (1, 1, 1) else right(lam, k, j)

    monkeypatch.setattr(superschur, "super_schur", wrong)
    for k, j in [(1, 2), (2, 1)]:
        assert super_cauchy_check(k, j, 3, 5) == 3
        assert cauchy_oracle(k, j, 3, 5) == 3


@pytest.mark.parametrize("k", range(3))
@pytest.mark.parametrize("j", range(3))
def test_super_cauchy_matches_both_oracles_at_degree_8(k, j):
    # the Kronecker comparison against the one at every z-exponent and the
    # dominant-exponent one on QUPoly products, at the grid's top degree
    for n in range(5):
        got = super_cauchy_check(k, j, n, 8)
        assert got == cauchy_oracle(k, j, n, 8) == oracles.cauchy_dominant_oracle(k, j, n, 8)


def _with_first(k, j, exponent):
    """The exponent vector of the first variable to that power."""
    return (exponent,) + (0,) * (k + j - 1)


def _wrong_degree(poly, lam, k, j, degree):
    # q^4 in a shape of size 3: a term of the wrong total degree
    return poly + QUPoly.monomial(k, j, _with_first(k, j, 4)) if sum(lam) == 3 else poly


def _negative(poly, lam, k, j, degree):
    # the lex-leading coefficient of a shape of size 3 negated
    if sum(lam) != 3 or poly.is_zero():
        return poly
    return poly - QUPoly.monomial(k, j, max(poly.coeffs), 2 * poly.coeffs[max(poly.coeffs)])


def _above_degree(poly, lam, k, j, degree):
    # an exponent two above the degree bound, in a shape of size 1
    extra = QUPoly.monomial(k, j, _with_first(k, j, degree + 2))
    return poly + extra if sum(lam) == 1 else poly


def _plus_one(poly, lam, k, j, degree):
    # +1 on the lex-smallest coefficient of a shape of size 2
    if sum(lam) != 2 or poly.is_zero():
        return poly
    return poly + QUPoly.monomial(k, j, min(poly.coeffs))


@pytest.mark.parametrize("perturb", [_wrong_degree, _negative, _above_degree, _plus_one])
def test_super_cauchy_fails_where_the_oracles_fail(perturb, monkeypatch):
    right = superschur.super_schur
    cases = [(1, 0, 2, 5), (0, 1, 3, 5), (1, 1, 2, 6), (2, 1, 3, 6), (2, 2, 4, 7), (1, 2, 1, 5)]
    for k, j, n, degree in cases:

        def wrong(lam, kk, jj, degree=degree):
            return perturb(right(lam, kk, jj), lam, kk, jj, degree)

        monkeypatch.setattr(superschur, "super_schur", wrong)
        want = cauchy_oracle(k, j, n, degree)
        assert want is not None, (perturb.__name__, k, j, n, degree)
        assert super_cauchy_check(k, j, n, degree) == want, (perturb.__name__, k, j, n, degree)
        assert oracles.cauchy_dominant_oracle(k, j, n, degree) == want


def test_super_cauchy_widens_its_slots_for_any_coefficient_size(monkeypatch):
    # +2^w on one term of s_(2) and -1 on another of the same degree: where
    # the second term's image sits one slot of w bits above the first's, the
    # two cancel, so the check must size its slots from what super_schur
    # returns, for every w and every pair of terms
    right = superschur.super_schur
    degree_two = [e for e in product(range(3), repeat=3) if sum(e) == 2]
    for low, high in permutations(degree_two, 2):
        for w in range(1, 41):

            def carried(lam, kk, jj, low=low, high=high, w=w):
                poly = right(lam, kk, jj)
                return poly + QUPoly(2, 1, {low: 1 << w, high: -1}) if lam == (2,) else poly

            monkeypatch.setattr(superschur, "super_schur", carried)
            assert super_cauchy_check(2, 1, 2, 4) == 2, (low, high, w)
        assert cauchy_oracle(2, 1, 2, 4) == 2


def test_super_cauchy_tells_apart_exponents_above_the_degree_bound(monkeypatch):
    # +1 and -1 on two terms of degree 5 in s_(2), at degree bound 4: no
    # two exponent vectors may share an image, out of range as they are
    right = superschur.super_schur
    degree_five = [e for e in product(range(6), repeat=3) if sum(e) == 5]
    for plus, minus in permutations(degree_five, 2):

        def outside(lam, kk, jj, plus=plus, minus=minus):
            poly = right(lam, kk, jj)
            return poly + QUPoly(2, 1, {plus: 1, minus: -1}) if lam == (2,) else poly

        monkeypatch.setattr(superschur, "super_schur", outside)
        assert super_cauchy_check(2, 1, 2, 4) == 2, (plus, minus)
    assert cauchy_oracle(2, 1, 2, 4) == 2


def test_super_cauchy_images_stay_small_in_a_large_alphabet():
    # k + j = 10: the images hold two exponents, so this takes well under a
    # second where images in all k + j - 1 exponents would span gigabytes
    env = {**os.environ, "PYTHONPATH": str(Path(superschur.__file__).parents[1])}
    argv = ["cauchy", "--n", "1", "--k", "5", "--j", "5", "--degree-bound", "8"]
    code = "import sys; from supercoinv.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert '"status": "pass"' in proc.stdout
    assert super_cauchy_check(3, 3, 2, 8) is None


def test_cauchy_tableau_bound_covers_the_tableaux():
    # the tableaux enumerated, counted exactly: s_lam(1^n) in z, and the
    # super Schur terms; k = 0 is where s_lam(1^(k+j)) would undercount
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
                    assert count == bound, (k, j, n, degree)
    assert superschur.cauchy_tableau_bound(2, 2, 4, 8) == 6704
    assert superschur.cauchy_tableau_bound(2, 2, 3, 6) == 896


def test_tableau_count_matches_the_tableau_sum_and_hook_content():
    for size in range(8):
        for lam in partitions_of(size):
            for k in range(4):
                for j in range(4):
                    ones = (1,) * (k + j)
                    got = superschur._tableau_count(lam, k, j)
                    assert got == super_schur_sum(lam, k, j).evaluate(ones), (lam, k, j)
            for n in range(7):
                assert superschur._tableau_count(lam, n, 0) == ssyt_count(lam, n), (lam, n)


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
