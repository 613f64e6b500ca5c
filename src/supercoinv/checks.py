"""Verification suite: every reproducible structural claim as a named check.

Each check returns its witness, the first discrepancy found, or None when it
passes.  ``REGISTRY`` holds each check with the size ``verify`` runs it at
and the rings it reads; ``run_check`` times a check and reports it as a
plain dict, which ``read_report`` reads back, and ``default_params`` holds
every check's defaults.  Checks only share state through a CheckSession,
which keeps one store per ring so a suite run never recomputes a quotient,
and builds the rings that several checks read before any of them runs;
``ring_groups`` splits a run into groups of checks that share no ring.
"""

from __future__ import annotations

import time
from math import comb, factorial
from typing import NamedTuple

from . import coinvariant, snchar
from .coinvariant import CeilingExceeded, IdealComponentCache, _apply, _combine, quotient_shells
from .qcombinat import (
    QUPoly,
    _factorial,
    _kronecker,
    _stirling,
    in_Pkjn,
    partition_counts,
    partition_sort_key,
    partitions_of,
    q_binomial,
    q_factorial,
    rectangle_coeff,
    sagan_swanson_sum,
)
from .superschur import (
    cauchy_tableau_bound,
    specialize,
    super_cauchy_check,
    super_schur,
)

__all__ = [
    "CheckSession",
    "REGISTRY",
    "ring_reads",
    "ring_groups",
    "run_check",
    "default_params",
    "cauchy_ceiling_guard",
]


class CheckSession:
    """One ``IdealComponentCache`` per ring, shared by every check of a run.

    Each ring's store holds its series and its coefficient table, and reads
    and writes its series in the session's cache directory, so a suite run
    computes each once.
    """

    def __init__(self, ceiling: int = coinvariant.DEFAULT_CEILING, cache_dir=None):
        self.ceiling = ceiling
        self.cache_dir = cache_dir
        self._rings: dict = {}

    def ring(self, n: int, k: int, j: int) -> IdealComponentCache:
        """The ring's one store, made on first request."""
        key = (n, k, j)
        if key not in self._rings:
            self._rings[key] = IdealComponentCache(n, k, j, self.ceiling, self.cache_dir)
        return self._rings[key]

    def build_shared(self, jobs) -> None:
        """Build the Frobenius series of each ring that two or more of the jobs read.

        The jobs are (check id, params) pairs.  The series serves the ring's
        Hilbert series and its table, so none of them scans the ring again.
        A build that raises leaves its ring unbuilt: the first check that
        reads it raises the same error in its turn.
        """
        reads = [ring for check_id, params in jobs for ring in ring_reads(check_id, params)]
        for ring in sorted({ring for ring in reads if reads.count(ring) > 1}):
            try:
                self.ring(*ring).frobenius()
            except Exception:
                pass  # reported by the check that reads the ring first


# ---------------------------------------------------------------------------


def check_universality(session: CheckSession, n: int, configs) -> dict | None:
    """Tables from different (k,j) agree wherever both determine a coefficient."""
    configs = [tuple(c) for c in configs]
    tables = {cfg: session.ring(n, *cfg).table() for cfg in configs}
    for a in range(len(configs)):
        for b in range(a + 1, len(configs)):
            ca, cb = configs[a], configs[b]
            ta, tb = tables[ca], tables[cb]
            keys = set(ta.entries) | set(tb.entries)
            for lam, mu in sorted(keys, key=lambda km: (partition_sort_key(km[0]), km[1])):
                if not (in_Pkjn(lam, *ca, n) and in_Pkjn(lam, *cb, n)):
                    continue
                va = ta.coeff(lam, mu)
                vb = tb.coeff(lam, mu)
                if va != vb:
                    return {
                        "configs": [list(ca), list(cb)],
                        "lambda": list(lam),
                        "mu": list(mu),
                        "values": [va, vb],
                    }
    return None


def check_cancellation(session: CheckSession, n: int, k: int, j: int, m: int) -> dict | None:
    """Setting q_(k-i) = -u_(j-i), i < m, collapses (k,j) onto (k-m, j-m)."""
    if not 0 <= m <= min(k, j):
        raise ValueError("need 0 <= m <= min(k, j)")
    assignment = {k - 1 - i: (k + j - 1 - i, -1) for i in range(m)}
    fa = session.ring(n, k, j).frobenius()
    fb = session.ring(n, k - m, j - m).frobenius()
    for mu in partitions_of(n):
        got = specialize(fa.mu_polynomial(mu), assignment)
        want = fb.mu_polynomial(mu).reindex(k, j)
        if got != want:
            return {"mu": list(mu), "specialized": got.pretty(), "direct": want.pretty()}
    got_h = specialize(session.ring(n, k, j).hilbert(), assignment)
    want_h = session.ring(n, k - m, j - m).hilbert().reindex(k, j)
    if got_h != want_h:
        return {"hilbert": [got_h.pretty(), want_h.pretty()]}
    return None


def check_restriction(session: CheckSession, n: int, k: int, j: int) -> dict | None:
    """Killing the last variable of either alphabet restricts the ring."""
    jobs = []
    if k > 0:
        jobs.append(({k - 1: None}, (n, k - 1, j), "q"))
    if j > 0:
        jobs.append(({k + j - 1: None}, (n, k, j - 1), "u"))
    for assignment, target, label in jobs:
        tn, tk, tj = target
        # the Frobenius series first, so that each Hilbert series is read off it
        fa = session.ring(n, k, j).frobenius()
        fb = session.ring(tn, tk, tj).frobenius()
        got = specialize(session.ring(n, k, j).hilbert(), assignment)
        want = session.ring(tn, tk, tj).hilbert().reindex(k, j)
        if got != want:
            return {"killed": label, "hilbert": [got.pretty(), want.pretty()]}
        for mu in partitions_of(n):
            gotp = specialize(fa.mu_polynomial(mu), assignment)
            wantp = fb.mu_polynomial(mu).reindex(k, j)
            if gotp != wantp:
                return {"killed": label, "mu": list(mu), "values": [gotp.pretty(), wantp.pretty()]}
    return None


def _two_column_families(n: int) -> dict:
    """Expected unit coefficients of the two-fermionic-alphabet table.

    Families (iii)-(v) reproduce the published classification; the second
    shape of the hook family is (2, 1^(kk-1)) and the hook family stops at
    kk = n-2, matching the closed forms the classification is derived from.
    """
    fam: dict = {}
    fam[((), (n,))] = 1
    if n >= 1:
        fam[((1,) * (n - 1), (1,) * n)] = 1
    for kk in range(1, n - 1):
        mu = (n - kk,) + (1,) * kk
        fam[((1,) * kk, mu)] = 1
        fam[((2,) + (1,) * (kk - 1), mu)] = 1
    # two equal leading parts
    for mu1 in range(2, n // 2 + 1):
        for ell in range(0, (n - 2 * mu1) // 2 + 1):
            rest = n - 2 * ell - 2 * mu1
            mu = (mu1, mu1) + (2,) * ell + (1,) * rest
            for twos, ones in (
                (ell + mu1, rest - 1),
                (ell + mu1 - 1, rest + 1),
                (ell + mu1 - 1, rest),
            ):
                if ones >= 0:
                    fam[((2,) * twos + (1,) * ones, mu)] = 1
    # two distinct leading parts >= 2
    for mu1 in range(3, n + 1):
        for mu2 in range(2, mu1):
            if mu1 + mu2 > n:
                continue
            for ell in range(0, (n - mu1 - mu2) // 2 + 1):
                rest = n - 2 * ell - mu1 - mu2
                mu = (mu1, mu2) + (2,) * ell + (1,) * rest
                for twos, ones in (
                    (ell + mu2, rest),
                    (ell + mu2 - 1, rest + 1),
                    (ell + mu2, rest - 1),
                    (ell + mu2 - 1, rest),
                ):
                    if ones >= 0:
                        fam[((2,) * twos + (1,) * ones, mu)] = 1
    return fam


def check_parts_le_two(session: CheckSession, n: int) -> dict | None:
    """The (0,2) table is exactly the published parts-at-most-2 classification."""
    table = session.ring(n, 0, 2).table()
    expected = _two_column_families(n)
    keys = set(table.entries) | set(expected)
    for lam, mu in sorted(keys, key=lambda km: (partition_sort_key(km[0]), km[1])):
        want = expected.get((lam, mu), 0)
        got = table.coeff(lam, mu)
        if want != got:
            return {"lambda": list(lam), "mu": list(mu), "expected": want, "computed": got}
    return None


def _sign_formula(n: int) -> QUPoly:
    """Closed form of the sign-isotypic slice of the (1,1) ring."""
    out = QUPoly.zero(1, 1)
    for d in range(n):
        base = comb(n - d, 2)
        for (e,), c in q_binomial(n - 1, d).coeffs.items():
            out = out + QUPoly.monomial(1, 1, (base + e, d), c)
    return out


def check_sign_coeffs(session: CheckSession, n: int) -> dict | None:
    """Sign-character slice of the (1,1) ring: three-way agreement.

    (a) slice of the computed Frobenius series, (b) the closed form,
    (c) the rectangle-count coefficients against hook super Schurs, plus the
    coefficient table's sign column entry by entry.
    """
    sign_mu = (1,) * n
    slice_a = session.ring(n, 1, 1).frobenius().mu_polynomial(sign_mu)
    formula_b = _sign_formula(n)
    if slice_a != formula_b:
        return {"stage": "series-vs-closed-form", "values": [slice_a.pretty(), formula_b.pretty()]}
    # the sign column: the hook (C(n-d, 2) + i, 1^d) -> rectangle_coeff(i, d, n),
    # nonzero only for d <= n-2 and i <= d(n-2-d), and the empty shape at n = 1
    expected = {(): 1} if n == 1 else {}
    for d in range(n - 1):
        for i in range(d * (n - 2 - d) + 1):
            g = rectangle_coeff(i, d, n)
            if g:
                expected[(comb(n - d, 2) + i,) + (1,) * d] = g
    hooks_c = QUPoly.zero(1, 1)
    for lam, g in expected.items():
        hooks_c = hooks_c + super_schur(lam, 1, 1).scale(g)
    if hooks_c != formula_b:
        return {"stage": "hook-expansion", "values": [hooks_c.pretty(), formula_b.pretty()]}
    table = session.ring(n, 1, 1).table()
    lams = set(expected) | {lam for lam, mu in table.entries if mu == sign_mu}
    for lam in sorted(lams, key=partition_sort_key):
        want = expected.get(lam, 0)
        got = table.coeff(lam, sign_mu)
        if want != got:
            return {"stage": "table-column", "lambda": list(lam), "expected": want, "computed": got}
    return None


def hilb11_formula(n: int) -> QUPoly:
    """q-Stirling form of the (1,1) Hilbert series: [d]_q! Stir_q(n,d) at u^(n-d)."""
    out = {}
    for d in range(n + 1):
        poly = _kronecker(lambda x: _factorial(d, x) * _stirling(n, d, x))
        for (e,), c in poly.coeffs.items():
            out[(e, n - d)] = c  # d fixes the u-exponent, so each key comes once
    return QUPoly(1, 1, out)


def check_hilb11(session: CheckSession, n: int) -> dict | None:
    """The (1,1) Hilbert series equals its q-Stirling closed form."""
    got = session.ring(n, 1, 1).hilbert()
    want = hilb11_formula(n)
    if got != want:
        return {"computed": got.pretty(), "formula": want.pretty()}
    collapsed = specialize(want, {0: (1, -1)})
    # a failing alternating sum is reported over a failing collapse
    if sagan_swanson_sum(n) != QUPoly.one(1, 0):
        return {"stage": "alternating-sum", "n": n}
    if collapsed != QUPoly.one(1, 1):
        return {"stage": "cancellation", "value": collapsed.pretty()}
    return None


class Polarization(NamedTuple):
    """A superderivation E of R by its values on the variables.

    Variables are indexed set * n + position, bosonic sets first.  E sends
    each key of ``image`` to its value and every other variable to 0;
    ``target`` and ``source`` are the sets of those values and keys, and
    ``odd`` is the parity of E.
    """

    target: int
    source: int
    image: dict
    odd: bool

    def label(self, k: int) -> list:
        """[[kind, set], [kind, set]] of target and source, as witnesses name them."""
        return [["b", g] if g < k else ["f", g - k] for g in (self.target, self.source)]


def _polarization_operators(n: int, k: int, j: int) -> list:
    """Every E_(t,s) = sum_p t_p d/d s_p, targets then sources bosonic first."""
    sets = {"b": range(k), "f": range(k, k + j)}
    return [
        Polarization(t, s, {s * n + p: t * n + p for p in range(n)}, (t < k) != (s < k))
        for tkind in "bf"
        for skind in "bf"
        for t in sets[tkind]
        for s in sets[skind]
    ]


def _column(matrix: list, b):
    """Column b of the matrix, or the matrix times b when b is itself a column."""
    return matrix[b] if type(b) is int else _apply(matrix, b)


def _closure_witness(shells, n: int, k: int, operators) -> tuple | None:
    """(multidegree, operator) of the first border column that breaks the Leibniz rule, or None.

    ``shells`` is any iterable of the quotient shells from degree 0, each
    read once; the rule and its proof are in ``check_bound_and_closure``.
    """
    below = [{} for _ in operators]  # per operator: multidegree -> columns of E
    for shell in shells:  # E vanishes on degree 0: its shell adds no columns
        here = [{} for _ in operators]
        for deg in sorted(shell):
            comp = shell[deg]
            preds = coinvariant._predecessors(deg, k)
            # an origin that is a column, not a basis index, makes no column standard
            standard = {(u, b) for u, b in zip(comp.labels, comp.origins) if type(b) is int}
            for op, lower, hat in zip(operators, below, here):
                flat = list(deg[0] + deg[1])
                if not flat[op.source]:
                    continue  # E vanishes on the component
                flat[op.source] -= 1
                flat[op.target] += 1
                target = shell.get((tuple(flat[:k]), tuple(flat[k:])))
                if target is None:
                    continue  # a fermionic degree above n: E maps into Q = 0

                def leibniz(v: int, b):
                    """E(v) b + (-1)^(|E||v|) v E(b), b a basis index or column of Q_(deg - e_v)."""
                    terms = []
                    w = op.image.get(v)
                    if w is not None:
                        terms.append((1, _column(target.mult[w], b)))
                    low = lower.get(preds[v // n])
                    if low is not None:
                        below_b = _column(low, b)
                        if below_b[0]:
                            sign = -1 if op.odd and v // n >= k else 1
                            terms.append((sign, _apply(target.mult[v], below_b)))
                    return _combine(terms)

                cols = hat[deg] = [leibniz(u, b) for u, b in zip(comp.labels, comp.origins)]
                for v, matrix in comp.mult.items():
                    for b, col in enumerate(matrix):
                        if (v, b) not in standard and _apply(cols, col) != leibniz(v, b):
                            return deg, op
        below = here
    return None


def check_bound_and_closure(session: CheckSession, n: int, k: int, j: int) -> dict | None:
    """Restriction-multiplicity bound on the table; closure of I under polarization.

    Closure is decided on the quotient shells of total degree <= n, by the
    Leibniz rule on their multiplication matrices (``_closure_witness``).
    Let E be a superderivation with E(v) in V for each variable v (zero
    outside the source set), pi: R -> Q the projection, and define E^ on Q
    by E^(1) = 0 and E^([u b]) = [E(u) b] + (-1)^(|E||u|) u E^(b) for each
    basis element s = [u b] (its label u, its origin b, a basis element or,
    on a component carried by alphabet symmetry, a column, as both sides are
    linear in b).  The rule at a
    border column v (x) b of Q_d, b a basis element of Q_(d - e_v), is

        E^(v b) = E(v) b + (-1)^(|E||v|) v E^(b),

    both sides computed with the multiplication matrices; at the standard
    columns (label, origin) it is the definition.  Claim: the rule holds at
    every border column of every shell of total degree <= m if and only if
    E(I_d) lies in I for every |d| <= m.

    If.  E(I_d) in I for |d| <= m makes E^ the map E induces on those
    shells: both vanish on 1 and obey the same recursion on the basis.  The
    induced map obeys the rule, because E(v f) = E(v) f + (-1)^(|E||v|) v E(f)
    in R, so E^ does.

    Only if.  Induction over the monomials, by degree, shows
    E^(pi(f)) = pi(E(f)) for |deg f| <= m: it holds for 1, and a monomial is
    v f' with f' of lower degree; writing pi(f') = sum_b c_b b, the rule at
    each column v (x) b gives
    E^(pi(v f')) = sum_b c_b E^(v b) = E(v) pi(f') + (-1)^(|E||v|) v E^(pi(f'))
    = pi(E(v) f' + (-1)^(|E||v|) v E(f')) = pi(E(v f')).  So f in I_d gives
    pi(E(f)) = E^(0) = 0, that is E(f) in I.

    The induction is per multidegree, given the lower total degrees, so the
    first (multidegree, operator) that fails is the first at which E maps
    part of I_d out of I: the witness of the ideal-side check.  Degree n is
    enough: above it I_d = V * I_(d-1) (the generator statement in
    ``coinvariant``), and for f = sum v f_v, E(f) = sum E(v) f_v +- v E(f_v)
    lies in I once every E(f_v) does, by induction on the degree.
    """
    table = session.ring(n, k, j).table()
    for (lam, mu), c in table.sorted_entries():
        bound = snchar.gl_restriction_mult(lam, n).get(mu, 0)
        if not 0 <= c <= bound:
            return {"stage": "bound", "lambda": list(lam), "mu": list(mu), "c": c, "d": bound}
    shells = quotient_shells(session.ring(n, k, j))
    found = _closure_witness(shells, n, k, _polarization_operators(n, k, j))
    if found is None:
        return None
    (r, s), op = found
    return {"stage": "closure", "deg": {"r": list(r), "s": list(s)}, "operator": op.label(k)}


def check_n_le_kj(session: CheckSession, n: int, k: int, j: int) -> dict | None:
    """For n <= k+j the purely bosonic table reconstructs the mixed series."""
    if n > k + j:
        raise ValueError("requires n <= k + j")
    table = session.ring(n, k + j, 0).table()
    direct = session.ring(n, k, j).frobenius()
    for mu in partitions_of(n):
        rebuilt = QUPoly.zero(k, j)
        for (lam, lmu), c in table.entries.items():
            if lmu != mu:
                continue
            term = super_schur(lam, k, j)
            if not term.is_zero():
                rebuilt = rebuilt + term.scale(c)
        if rebuilt != direct.mu_polynomial(mu):
            return {
                "mu": list(mu),
                "rebuilt": rebuilt.pretty(),
                "direct": direct.mu_polynomial(mu).pretty(),
            }
    return None


def check_witnesses(session: CheckSession, n: int) -> dict | None:
    """Spot checks of the nonzero coefficients separating small alphabets."""
    claims = []
    t02 = session.ring(n, 0, 2).table()
    claims.append((t02, (1,) * (n - 1), (1,) * n, "column"))
    if n >= 5:
        claims.append((t02, (2, 2) + (1,) * (n - 5), (2, 2) + (1,) * (n - 4), "two-row"))
    t11 = session.ring(n, 1, 1).table()
    if n >= 2:
        claims.append((t11, (comb(n, 2),), (1,) * n, "top-sign"))
    if n >= 4:
        claims.append((t11, (comb(n - 2, 2), 1, 1), (1,) * n, "hook-sign"))
    for table, lam, mu, label in claims:
        if table.coeff(lam, mu) != 1:
            return {
                "claim": label,
                "lambda": list(lam),
                "mu": list(mu),
                "computed": table.coeff(lam, mu),
            }
    return None


def check_artin(session: CheckSession, n: int) -> dict | None:
    """Single bosonic alphabet: Hilbert series [n]_q! and dimension n!."""
    got = session.ring(n, 1, 0).hilbert()
    want = q_factorial(n)
    if got != want:
        return {"computed": got.pretty(), "formula": want.pretty()}
    if got.evaluate((1,)) != factorial(n):
        return {"dimension": got.evaluate((1,))}
    return None


def check_exterior(session: CheckSession, n: int) -> dict | None:
    """Single fermionic alphabet: hook decomposition, one per degree."""
    series = session.ring(n, 0, 1).frobenius()
    expected = {}
    for d in range(n):
        expected[((), (d,))] = {(n - d,) + (1,) * d: 1}
    if series.components != expected:
        return {"computed": series.to_json()["components"], "expected degrees": list(range(n))}
    return None


def check_haiman(session: CheckSession, n: int) -> dict | None:
    """Two bosonic alphabets: total dimension (n+1)^(n-1)."""
    dim = session.ring(n, 2, 0).hilbert().evaluate((1, 1))
    if dim != (n + 1) ** (n - 1):
        return {"computed": dim, "expected": (n + 1) ** (n - 1)}
    return None


def cauchy_ceiling_guard(k: int, j: int, n: int, degree: int, ceiling: int) -> None:
    """Refuse a Cauchy check over the ceiling, before it starts.

    It bounds the z^mu comparisons (one left-side product each), mu a
    partition of 0..degree with at most n parts, and then the tableaux,
    whose count enumerates shapes of at most n parts: counting the
    comparisons first bounds that enumeration by the ceiling.
    """
    where = f"the Cauchy check at k={k} j={j} n={n} degree {degree}"
    comparisons = sum(partition_counts(degree, n))
    if comparisons > ceiling:
        raise CeilingExceeded(None, comparisons, ceiling, where, "z^mu comparisons")
    tableaux = cauchy_tableau_bound(k, j, n, degree)
    if tableaux > ceiling:
        raise CeilingExceeded(None, tableaux, ceiling, where, "tableaux")


def check_cauchy(session: CheckSession, n: int, kmax: int, jmax: int, degree: int) -> dict | None:
    """Truncated super Cauchy identity over a grid of alphabet sizes.

    The witness names the first (k, j, nn), nn = 1..n, at which the identity
    fails, but each (k, j) is checked once, at n; the sizes below n are swept
    only to name a failure.  That run decides every smaller one: it compares
    the two sides at z^mu for every partition mu of at most n parts, and the
    comparison at z^mu is the same at every nn >= len(mu).  Its left side does
    not depend on nn, and on its right side K_(lam,mu) = 0 when lam has more
    parts than mu, so only shapes of at most len(mu) <= nn parts contribute,
    and those lie in P(k,j,nn) exactly when they lie in P(k,j,n).
    """
    # the bound grows with k, j and n, so the largest call bounds every call
    cauchy_ceiling_guard(kmax, jmax, n, degree, session.ceiling)
    for k in range(kmax + 1):
        for j in range(jmax + 1):
            if super_cauchy_check(k, j, n, degree) is None:
                continue
            for nn in range(1, n + 1):
                failure = super_cauchy_check(k, j, nn, degree)
                if failure is not None:
                    return {"k": k, "j": j, "n": nn, "first_failure": failure}
    return None


def check_sagan_swanson(session: CheckSession, n: int) -> dict | None:
    """The alternating q-Stirling sum telescopes to 1 for every size up to n."""
    for m in range(n + 1):
        value = sagan_swanson_sum(m)
        if value != QUPoly.one(1, 0):
            return {"n": m, "value": value.pretty()}
    return None


# ---------------------------------------------------------------------------
# registry: each check with the size ``verify`` runs it at without --n, and
# a function of its parameters listing the (n, k, j) of the rings it reads


def _restriction_reads(n: int, k: int, j: int) -> list:
    """The ring and each ring with one alphabet killed, when there is one."""
    smaller = [(n, k - 1, j)] * (k > 0) + [(n, k, j - 1)] * (j > 0)
    return [(n, k, j)] + smaller if smaller else []


def _reads_nothing(**params) -> list:
    return []


REGISTRY = {
    "universality": (check_universality, 4, lambda n, configs: [(n, *c) for c in configs]),
    "cancellation": (check_cancellation, 4, lambda n, k, j, m: [(n, k, j), (n, k - m, j - m)]),
    "restriction": (check_restriction, 4, _restriction_reads),
    "parts_le_two": (check_parts_le_two, 5, lambda n: [(n, 0, 2)]),
    "sign_coeffs": (check_sign_coeffs, 4, lambda n: [(n, 1, 1)]),
    "hilb11": (check_hilb11, 4, lambda n: [(n, 1, 1)]),
    "bound_closure": (check_bound_and_closure, 3, lambda n, k, j: [(n, k, j)]),
    "n_le_kj": (check_n_le_kj, 3, lambda n, k, j: [(n, k + j, 0), (n, k, j)]),
    "witnesses": (check_witnesses, 4, lambda n: [(n, 0, 2), (n, 1, 1)]),
    "artin": (check_artin, 5, lambda n: [(n, 1, 0)]),
    "exterior": (check_exterior, 5, lambda n: [(n, 0, 1)]),
    "haiman": (check_haiman, 3, lambda n: [(n, 2, 0)]),
    "cauchy": (check_cauchy, 3, _reads_nothing),
    "sagan_swanson": (check_sagan_swanson, 15, _reads_nothing),
}


def ring_reads(check_id: str, params: dict) -> set:
    """The (n, k, j) of every ring the check reads at ``params``."""
    return set(REGISTRY[check_id][2](**params))


def ring_groups(jobs) -> list:
    """The indices of the (check id, params) jobs, in groups that share no ring, heaviest first.

    Two jobs share a group when they read a common ring, transitively, so a
    ring's checks all run in the process that builds it.  A group weighs
    the sum of (k + j + 1)^n over its rings (a ring-free group weighs 0),
    and ties go to the group with the least job index; each group lists its
    jobs in index order.
    """
    groups = []  # (rings, job indices)
    for i, (check_id, params) in enumerate(jobs):
        rings, members = ring_reads(check_id, params), [i]
        for other in [g for g in groups if g[0] & rings]:
            groups.remove(other)
            rings |= other[0]
            members += other[1]
        groups.append((rings, sorted(members)))

    def order(group) -> tuple:
        rings, members = group
        return -sum((k + j + 1) ** n for n, k, j in rings), members[0]

    return [members for _rings, members in sorted(groups, key=order)]


def default_params(check_id: str, n=None, k=None, j=None, m=None, degree_bound=None) -> dict:
    """Parameter dict for a registry check at size n, by default its registered size."""
    if n is None:
        n = REGISTRY[check_id][1]
    k = 1 if k is None else k
    if check_id == "cancellation":
        j = 1 if j is None else j
        return {"n": n, "k": k, "j": j, "m": min(k, j) if m is None else m}
    if check_id in ("restriction", "bound_closure"):
        return {"n": n, "k": k, "j": 1 if j is None else j}
    if check_id == "n_le_kj":
        nn = min(n, 3)
        j = max(nn - k, 1) if j is None else j
        return {"n": min(nn, k + j), "k": k, "j": j}
    if check_id == "cauchy":
        degree = 6 if degree_bound is None else degree_bound
        return {"n": min(n, 3), "kmax": 2, "jmax": 2, "degree": degree}
    if check_id == "universality":
        extra = [[2, 0], [2, 1]] if n <= 3 else []
        return {"n": n, "configs": [[1, 0], [0, 1], [1, 1], [0, 2]] + extra}
    return {"n": n}


def run_check(check_id: str, session: CheckSession, params: dict) -> dict:
    """Run one registry check and report it: it passes when it returns no witness.

    The report is {"id", "params", "status", "witness", "seconds"}, the
    seconds rounded to 6 places, as ``verify`` prints it.
    """
    if check_id not in REGISTRY:
        raise KeyError(f"unknown check id: {check_id}")
    started = time.perf_counter()
    witness = REGISTRY[check_id][0](session, **params)
    return {
        "id": check_id,
        "params": params,
        "status": "pass" if witness is None else "fail",
        "witness": witness,
        "seconds": round(time.perf_counter() - started, 6),
    }


def read_report(rec) -> dict:
    """A saved report record, once each of its fields is checked as ``run_check`` writes it."""
    if type(rec) is not dict or sorted(rec) != ["id", "params", "seconds", "status", "witness"]:
        raise ValueError(f"report {rec!r} does not have exactly the fields of a report")
    status, witness, seconds = rec["status"], rec["witness"], rec["seconds"]
    if type(rec["id"]) is not str:
        raise ValueError(f"report id {rec['id']!r} is not a string")
    if type(rec["params"]) is not dict:
        raise ValueError(f"report params {rec['params']!r} is not an object")
    if status not in ("pass", "fail"):
        raise ValueError(f"report status {status!r} is neither pass nor fail")
    if not (witness is None if status == "pass" else type(witness) is dict):
        raise ValueError(f"report witness {witness!r} does not fit status {status}")
    if type(seconds) not in (int, float) or not seconds >= 0:
        raise ValueError(f"report seconds {seconds!r} is not a nonnegative number")
    return rec
