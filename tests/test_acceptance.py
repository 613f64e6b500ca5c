"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Heavy series are shared through a module-level session, so the large rings
are built exactly once per pytest run.  Each test prints one summary line.
"""

import random
from itertools import permutations
from math import factorial

from supercoinv.checks import CheckSession, run_check
from supercoinv.qcombinat import (
    conjugate,
    partitions_of,
    q_factorial,
    sagan_swanson_sum,
)
from supercoinv.superschur import QUPoly, specialize, super_cauchy_check, super_schur

from oracles import act_poly, poly_add_term, poly_mul, superderivation

SESSION = CheckSession()


def _line(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS  [{text}]")


def test_criterion_01_artin_hilbert():
    for n in range(1, 7):
        got = SESSION.ring(n, 1, 0).hilbert()
        want = q_factorial(n)
        assert got == want, n
        assert got.evaluate((1,)) == factorial(n)
    assert SESSION.ring(6, 1, 0).hilbert().evaluate((1,)) == 720
    _line(1, "Hilb(n,1,0) = [n]_q!, dim n!, n <= 6")


def test_criterion_02_exterior_frobenius():
    for n in range(1, 7):
        series = SESSION.ring(n, 0, 1).frobenius()
        expected = {((), (d,)): {(n - d,) + (1,) * d: 1} for d in range(n)}
        assert series.components == expected, n
    _line(2, "Frob(n,0,1) = sum_d u^d s_(n-d,1^d), n <= 6")


def test_criterion_03_hilb11_and_sign_slice():
    SESSION.ring(5, 1, 1).frobenius()  # warm the cache; the Hilbert series derives from it
    for n in range(1, 6):
        rep = run_check("hilb11", SESSION, {"n": n})
        assert rep["status"] == "pass", rep["witness"]
        rep = run_check("sign_coeffs", SESSION, {"n": n})
        assert rep["status"] == "pass", rep["witness"]
    _line(3, "Hilb(n,1,1) q-Stirling form and sign slice, n <= 5")


def test_criterion_04_two_bosonic_dimensions():
    for n, want in ((2, 3), (3, 16), (4, 125)):
        assert SESSION.ring(n, 2, 0).hilbert().evaluate((1, 1)) == want
    _line(4, "dim R_n^(2,0) = (n+1)^(n-1), n <= 4")


def test_criterion_05_two_fermionic_classification():
    for n in range(1, 6):
        rep = run_check("parts_le_two", SESSION, {"n": n})
        assert rep["status"] == "pass", (n, rep["witness"])
    _line(5, "(0,2) table matches the parts-<=2 classification, n <= 5")


def test_criterion_06_sign_column():
    for n in range(1, 6):
        rep = run_check("sign_coeffs", SESSION, {"n": n})
        assert rep["status"] == "pass", (n, rep["witness"])
    _line(6, "(1,1) sign column matches rectangle counts on hooks, n <= 5")


def test_criterion_07_universality():
    for n in range(1, 6):
        configs = [(1, 0), (0, 1), (1, 1), (0, 2)]
        if n <= 3:
            configs += [(2, 0), (2, 1)]
        rep = run_check("universality", SESSION, {"n": n, "configs": configs})
        assert rep["status"] == "pass", (n, rep["witness"])
    _line(7, "pairwise table agreement on shared support, n <= 5 (+extras n <= 3)")


def test_criterion_08_cancellation_and_restriction():
    for n in range(1, 6):
        rep = run_check("cancellation", SESSION, {"n": n, "k": 1, "j": 1, "m": 1})
        assert rep["status"] == "pass", (n, rep["witness"])
        collapsed = specialize(
            SESSION.ring(n, 1, 1).frobenius().mu_polynomial((n,)), {0: (1, -1)}
        )
        assert collapsed == QUPoly.one(1, 1), n
    rep = run_check("cancellation", SESSION, {"n": 3, "k": 2, "j": 1, "m": 1})
    assert rep["status"] == "pass", rep["witness"]
    for n, k, j in (
        [(n, 1, 1) for n in range(1, 6)]
        + [(n, 0, 2) for n in range(1, 6)]
        + [(3, 2, 1), (3, 2, 0), (4, 2, 0)]
    ):
        rep = run_check("restriction", SESSION, {"n": n, "k": k, "j": j})
        assert rep["status"] == "pass", ((n, k, j), rep["witness"])
    _line(8, "cancellation collapses, restriction consistent across configs")


def test_criterion_09_bound_and_closure():
    from supercoinv.snchar import gl_restriction_mult

    # the tables the session's stores hold from the criteria before this one
    stores = SESSION._rings.items()
    tables = [(ring, store._held["table"]) for ring, store in stores if "table" in store._held]
    for (n, k, j), table in tables:
        for (lam, mu), c in table.entries.items():
            assert 0 <= c <= gl_restriction_mult(lam, n).get(mu, 0), (n, k, j, lam, mu)
    for n, k, j in [(4, 1, 1), (5, 0, 2), (3, 2, 0), (3, 2, 1)]:
        rep = run_check("bound_closure", SESSION, {"n": n, "k": k, "j": j})
        assert rep["status"] == "pass", ((n, k, j), rep["witness"])
    _line(9, "c <= d bound on all tables; derivation closure of cached ideals")


def test_criterion_10_cauchy_and_alternating_sum():
    for k in range(3):
        for j in range(3):
            for n in range(1, 4):
                failure = super_cauchy_check(k, j, n, 6)
                assert failure is None, (k, j, n, failure)
    for n in range(16):
        assert sagan_swanson_sum(n) == QUPoly.one(1, 0), n
    _line(10, "super Cauchy truncations (k,j <= 2, n <= 3, deg <= 6); alternating sum")


def test_criterion_11_property_suites():
    # Schur via tableaux agrees with the determinant construction
    from oracles import _jacobi_trudi, _schur_weights

    for size in range(7):
        for lam in partitions_of(size):
            for m in range(1, 5):
                weights = _schur_weights(lam, m)  # raises if the two disagree
                tableau = {}
                for w in weights:
                    tableau[w] = tableau.get(w, 0) + 1
                assert tableau == _jacobi_trudi(lam, m) or not weights

    # super Schur cancellation / restriction / duality
    for size in range(7):
        for lam in partitions_of(size):
            for k in range(1, 3):
                for j in range(1, 3):
                    assert specialize(
                        super_schur(lam, k, j), {k - 1: (k + j - 1, -1)}
                    ) == super_schur(lam, k - 1, j - 1).reindex(k, j)
                    assert specialize(super_schur(lam, k, j), {k - 1: None}) == super_schur(
                        lam, k - 1, j
                    ).reindex(k, j)
            for k in range(3):
                for j in range(3):
                    dual = super_schur(conjugate(lam), j, k)
                    swapped = QUPoly(k, j, {(e[j:] + e[:j]): c for e, c in dual.coeffs.items()})
                    assert super_schur(lam, k, j) == swapped

    # character orthogonality up to n = 7
    from supercoinv.snchar import irreducible_character

    from oracles import class_size

    for n in range(1, 8):
        shapes = partitions_of(n)
        for lam in shapes:
            for mu in shapes:
                total = sum(
                    class_size(rho)
                    * irreducible_character(lam, rho)
                    * irreducible_character(mu, rho)
                    for rho in shapes
                )
                assert total == (factorial(n) if lam == mu else 0)

    # action / ring-homomorphism / commutation properties, fixed seed
    rng = random.Random(987654321)
    for n in (2, 3, 4):
        k = j = 2
        perms = list(permutations(range(n)))
        kinds = [("b", 0), ("b", 1), ("f", 0), ("f", 1)]
        for _ in range(8):
            p = {}
            q = {}
            for _t in range(4):
                bos = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(k))
                fer = tuple(rng.randint(0, (1 << n) - 1) for _ in range(j))
                poly_add_term(p, (bos, fer), rng.choice((-2, -1, 1, 2)))
                bos = tuple(tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(k))
                fer = tuple(rng.randint(0, (1 << n) - 1) for _ in range(j))
                poly_add_term(q, (bos, fer), rng.choice((-2, -1, 1, 2)))
            sigma = rng.choice(perms)
            tau = rng.choice(perms)
            comp = tuple(sigma[tau[i]] for i in range(n))
            assert act_poly(comp, p) == act_poly(sigma, act_poly(tau, p))
            assert act_poly(sigma, poly_mul(p, q)) == poly_mul(act_poly(sigma, p), act_poly(sigma, q))
            target, source = rng.choice(kinds), rng.choice(kinds)
            assert act_poly(sigma, superderivation(p, target, source)) == superderivation(
                act_poly(sigma, p), target, source
            )
    _line(11, "Schur dual construction, super Schur identities, orthogonality, actions")
