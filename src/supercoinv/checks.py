"""Verification suite: every reproducible structural claim as a named check.

Each check returns a CheckReport; a failing report always carries a minimal
witness (the first discrepancy found).  Checks only share state through a
CheckSession, which keeps one store per ring so a suite run never recomputes
a quotient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import comb, factorial, gcd, lcm
from typing import NamedTuple

from . import coinvariant, snchar
from .coinvariant import CeilingExceeded, IdealComponentCache, quotient_shells
from .qcombinat import (
    QUPoly,
    in_Pkjn,
    partition_sort_key,
    partitions_of,
    q_binomial,
    q_factorial,
    q_stirling,
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
    "CheckReport",
    "CheckSession",
    "REGISTRY",
    "run_check",
    "default_params",
    "cauchy_ceiling_guard",
]


@dataclass
class CheckReport:
    id: str
    params: dict
    status: str
    witness: object
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "seconds": round(self.seconds, 6),
        }


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

    def frobenius(self, n: int, k: int, j: int):
        return self.ring(n, k, j).frobenius()

    def hilbert(self, n: int, k: int, j: int) -> QUPoly:
        return self.ring(n, k, j).hilbert()

    def table(self, n: int, k: int, j: int):
        return self.ring(n, k, j).table()


def _report(check_id: str, params: dict, witness, started: float) -> CheckReport:
    status = "pass" if witness is None else "fail"
    return CheckReport(check_id, params, status, witness, time.perf_counter() - started)


def _fmt_partition(lam) -> list:
    return list(lam)


# ---------------------------------------------------------------------------


def check_universality(session: CheckSession, n: int, configs=None) -> CheckReport:
    """Tables from different (k,j) agree wherever both determine a coefficient."""
    started = time.perf_counter()
    if configs is None:
        configs = default_universality_configs(n)
    params = {"n": n, "configs": [list(c) for c in configs]}
    tables = {cfg: session.table(n, *cfg) for cfg in configs}
    witness = None
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
                    witness = {
                        "configs": [list(ca), list(cb)],
                        "lambda": _fmt_partition(lam),
                        "mu": _fmt_partition(mu),
                        "values": [va, vb],
                    }
                    return _report("universality", params, witness, started)
    return _report("universality", params, witness, started)


def default_universality_configs(n: int):
    configs = [(1, 0), (0, 1), (1, 1), (0, 2)]
    if n <= 3:
        configs += [(2, 0), (2, 1)]
    return configs


def check_cancellation(session: CheckSession, n: int, k: int, j: int, m: int) -> CheckReport:
    """Setting q_(k-i) = -u_(j-i), i < m, collapses (k,j) onto (k-m, j-m)."""
    started = time.perf_counter()
    params = {"n": n, "k": k, "j": j, "m": m}
    if not 0 <= m <= min(k, j):
        raise ValueError("need 0 <= m <= min(k, j)")
    assignment = {k - 1 - i: (k + j - 1 - i, -1) for i in range(m)}
    fa = session.frobenius(n, k, j)
    fb = session.frobenius(n, k - m, j - m)
    witness = None
    for mu in partitions_of(n):
        got = specialize(fa.mu_polynomial(mu), assignment)
        want = fb.mu_polynomial(mu).reindex(k, j)
        if got != want:
            witness = {
                "mu": _fmt_partition(mu),
                "specialized": got.pretty(),
                "direct": want.pretty(),
            }
            return _report("cancellation", params, witness, started)
    got_h = specialize(session.hilbert(n, k, j), assignment)
    want_h = session.hilbert(n, k - m, j - m).reindex(k, j)
    if got_h != want_h:
        witness = {"hilbert": [got_h.pretty(), want_h.pretty()]}
    return _report("cancellation", params, witness, started)


def check_restriction(session: CheckSession, n: int, k: int, j: int) -> CheckReport:
    """Killing the last variable of either alphabet restricts the ring."""
    started = time.perf_counter()
    params = {"n": n, "k": k, "j": j}
    witness = None
    jobs = []
    if k > 0:
        jobs.append(({k - 1: None}, (n, k - 1, j), "q"))
    if j > 0:
        jobs.append(({k + j - 1: None}, (n, k, j - 1), "u"))
    for assignment, target, label in jobs:
        tn, tk, tj = target
        got = specialize(session.hilbert(n, k, j), assignment)
        want = session.hilbert(tn, tk, tj).reindex(k, j)
        if got != want:
            witness = {"killed": label, "hilbert": [got.pretty(), want.pretty()]}
            return _report("restriction", params, witness, started)
        fa = session.frobenius(n, k, j)
        fb = session.frobenius(tn, tk, tj)
        for mu in partitions_of(n):
            gotp = specialize(fa.mu_polynomial(mu), assignment)
            wantp = fb.mu_polynomial(mu).reindex(k, j)
            if gotp != wantp:
                witness = {
                    "killed": label,
                    "mu": _fmt_partition(mu),
                    "values": [gotp.pretty(), wantp.pretty()],
                }
                return _report("restriction", params, witness, started)
    return _report("restriction", params, witness, started)


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


def check_parts_le_two(session: CheckSession, n: int) -> CheckReport:
    """The (0,2) table is exactly the published parts-at-most-2 classification."""
    started = time.perf_counter()
    params = {"n": n}
    table = session.table(n, 0, 2)
    expected = _two_column_families(n)
    witness = None
    keys = set(table.entries) | set(expected)
    for lam, mu in sorted(keys, key=lambda km: (partition_sort_key(km[0]), km[1])):
        want = expected.get((lam, mu), 0)
        got = table.coeff(lam, mu)
        if want != got:
            witness = {
                "lambda": _fmt_partition(lam),
                "mu": _fmt_partition(mu),
                "expected": want,
                "computed": got,
            }
            break
    return _report("parts_le_two", params, witness, started)


def _sign_formula(n: int) -> QUPoly:
    """Closed form of the sign-isotypic slice of the (1,1) ring."""
    out = QUPoly.zero(1, 1)
    for d in range(n):
        base = comb(n - d, 2)
        for (e,), c in q_binomial(n - 1, d).coeffs.items():
            out = out + QUPoly.monomial(1, 1, (base + e, d), c)
    return out


def _expected_sign_coeff(lam, n: int) -> int:
    if lam == ():
        return 1 if n == 1 else 0
    d = len(lam) - 1
    if any(p != 1 for p in lam[1:]):
        return 0
    i = lam[0] - comb(n - d, 2)
    if i < 0:
        return 0
    return rectangle_coeff(i, d, n)


def check_sign_coeffs(session: CheckSession, n: int) -> CheckReport:
    """Sign-character slice of the (1,1) ring: three-way agreement.

    (a) slice of the computed Frobenius series, (b) the closed form,
    (c) the rectangle-count coefficients against hook super Schurs, plus the
    coefficient table's sign column entry by entry.
    """
    started = time.perf_counter()
    params = {"n": n}
    sign_mu = (1,) * n
    slice_a = session.frobenius(n, 1, 1).mu_polynomial(sign_mu)
    formula_b = _sign_formula(n)
    witness = None
    if slice_a != formula_b:
        witness = {"stage": "series-vs-closed-form", "values": [slice_a.pretty(), formula_b.pretty()]}
        return _report("sign_coeffs", params, witness, started)
    hooks_c = QUPoly.zero(1, 1)
    for d in range(n):
        base = comb(n - d, 2)
        for i in range(0, max(comb(n, 2) - base, 0) + 1):
            g = rectangle_coeff(i, d, n)
            if not g or base + i < 1:
                continue
            lam = (base + i,) + (1,) * d
            hooks_c = hooks_c + super_schur(lam, 1, 1).scale(g)
    if n == 1:
        hooks_c = hooks_c + QUPoly.one(1, 1)
    if hooks_c != formula_b:
        witness = {"stage": "hook-expansion", "values": [hooks_c.pretty(), formula_b.pretty()]}
        return _report("sign_coeffs", params, witness, started)
    table = session.table(n, 1, 1)
    lams = {lam for lam, mu in table.entries if mu == sign_mu}
    for d in range(n + 1):
        base = comb(n - d, 2)
        for i in range(comb(n, 2) + 1):
            if base + i >= 1 and rectangle_coeff(i, d, n):
                lams.add((base + i,) + (1,) * d)
    for lam in sorted(lams, key=partition_sort_key):
        want = _expected_sign_coeff(lam, n)
        got = table.coeff(lam, sign_mu)
        if want != got:
            witness = {
                "stage": "table-column",
                "lambda": _fmt_partition(lam),
                "expected": want,
                "computed": got,
            }
            break
    return _report("sign_coeffs", params, witness, started)


def hilb11_formula(n: int) -> QUPoly:
    """q-Stirling form of the (1,1) Hilbert series."""
    out = QUPoly.zero(1, 1)
    for d in range(n + 1):
        poly = q_factorial(d) * q_stirling(n, d)
        for (e,), c in poly.coeffs.items():
            out = out + QUPoly.monomial(1, 1, (e, n - d), c)
    return out


def check_hilb11(session: CheckSession, n: int) -> CheckReport:
    """The (1,1) Hilbert series equals its q-Stirling closed form."""
    started = time.perf_counter()
    params = {"n": n}
    got = session.hilbert(n, 1, 1)
    want = hilb11_formula(n)
    witness = None
    if got != want:
        witness = {"computed": got.pretty(), "formula": want.pretty()}
        return _report("hilb11", params, witness, started)
    collapsed = specialize(want, {0: (1, -1)})
    if collapsed != QUPoly.one(1, 1):
        witness = {"stage": "cancellation", "value": collapsed.pretty()}
    if sagan_swanson_sum(n) != QUPoly.one(1, 0):
        witness = {"stage": "alternating-sum", "n": n}
    return _report("hilb11", params, witness, started)


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


def _combine(terms, den: int = 1):
    """sum of c * x / dx over the terms (c, (x, dx)), over den, as a column in lowest terms."""
    common = lcm(*(dx for _c, (_x, dx) in terms))
    out = {}
    for c, (x, dx) in terms:
        f = c * (common // dx)
        for i, v in x.items():
            out[i] = out.get(i, 0) + f * v
    out = {i: v for i, v in out.items() if v}
    den *= common
    g = gcd(den, *out.values())
    return {i: v // g for i, v in out.items()}, den // g


def _apply(matrix: list, col):
    """The matrix (a list of columns) times a column, both as (vector, denominator)."""
    x, dx = col
    return _combine([(c, matrix[i]) for i, c in x.items()], dx)


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
            standard = set(zip(comp.labels, comp.origins))
            for op, lower, hat in zip(operators, below, here):
                flat = list(deg[0] + deg[1])
                if not flat[op.source]:
                    continue  # E vanishes on the component
                flat[op.source] -= 1
                flat[op.target] += 1
                target = shell.get((tuple(flat[:k]), tuple(flat[k:])))
                if target is None:
                    continue  # a fermionic degree above n: E maps into Q = 0

                def leibniz(v: int, b: int):
                    """E(v) b + (-1)^(|E||v|) v E(b), b a basis element of Q_(deg - e_v)."""
                    terms = []
                    w = op.image.get(v)
                    if w is not None:
                        terms.append((1, target.mult[w][b]))
                    low = lower.get(preds[v // n])
                    if low is not None and low[b][0]:
                        sign = -1 if op.odd and v // n >= k else 1
                        terms.append((sign, _apply(target.mult[v], low[b])))
                    return _combine(terms)

                cols = hat[deg] = [leibniz(u, b) for u, b in zip(comp.labels, comp.origins)]
                for v, matrix in comp.mult.items():
                    for b, col in enumerate(matrix):
                        if (v, b) not in standard and _apply(cols, col) != leibniz(v, b):
                            return deg, op
        below = here
    return None


def check_bound_and_closure(session: CheckSession, n: int, k: int, j: int) -> CheckReport:
    """Restriction-multiplicity bound on the table; closure of I under polarization.

    Closure is decided on the quotient shells of total degree <= n, by the
    Leibniz rule on their multiplication matrices (``_closure_witness``).
    Let E be a superderivation with E(v) in V for each variable v (zero
    outside the source set), pi: R -> Q the projection, and define E^ on Q
    by E^(1) = 0 and E^([u b]) = [E(u) b] + (-1)^(|E||u|) u E^(b) for each
    basis element s = [u b] (its label u, its origin b).  The rule at a
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
    started = time.perf_counter()
    params = {"n": n, "k": k, "j": j}
    table = session.table(n, k, j)
    witness = None
    for (lam, mu), c in table.sorted_entries():
        bound = snchar.gl_restriction_mult(lam, n).get(mu, 0)
        if not 0 <= c <= bound:
            witness = {
                "stage": "bound",
                "lambda": _fmt_partition(lam),
                "mu": _fmt_partition(mu),
                "c": c,
                "d": bound,
            }
            return _report("bound_closure", params, witness, started)
    shells = quotient_shells(session.ring(n, k, j))
    found = _closure_witness(shells, n, k, _polarization_operators(n, k, j))
    if found is not None:
        (r, s), op = found
        witness = {"stage": "closure", "deg": {"r": list(r), "s": list(s)}, "operator": op.label(k)}
    return _report("bound_closure", params, witness, started)


def check_n_le_kj(session: CheckSession, n: int, k: int, j: int) -> CheckReport:
    """For n <= k+j the purely bosonic table reconstructs the mixed series."""
    started = time.perf_counter()
    params = {"n": n, "k": k, "j": j}
    if n > k + j:
        raise ValueError("requires n <= k + j")
    table = session.table(n, k + j, 0)
    direct = session.frobenius(n, k, j)
    witness = None
    for mu in partitions_of(n):
        rebuilt = QUPoly.zero(k, j)
        for (lam, lmu), c in table.entries.items():
            if lmu != mu:
                continue
            term = super_schur(lam, k, j)
            if not term.is_zero():
                rebuilt = rebuilt + term.scale(c)
        if rebuilt != direct.mu_polynomial(mu):
            witness = {
                "mu": _fmt_partition(mu),
                "rebuilt": rebuilt.pretty(),
                "direct": direct.mu_polynomial(mu).pretty(),
            }
            break
    return _report("n_le_kj", params, witness, started)


def check_witnesses(session: CheckSession, n: int) -> CheckReport:
    """Spot checks of the nonzero coefficients separating small alphabets."""
    started = time.perf_counter()
    params = {"n": n}
    claims = []
    t02 = session.table(n, 0, 2)
    claims.append((t02, (1,) * (n - 1), (1,) * n, "column"))
    if n >= 5:
        claims.append((t02, (2, 2) + (1,) * (n - 5), (2, 2) + (1,) * (n - 4), "two-row"))
    t11 = session.table(n, 1, 1)
    if n >= 2:
        claims.append((t11, (comb(n, 2),), (1,) * n, "top-sign"))
    if n >= 4:
        claims.append((t11, (comb(n - 2, 2), 1, 1), (1,) * n, "hook-sign"))
    witness = None
    for table, lam, mu, label in claims:
        if table.coeff(lam, mu) != 1:
            witness = {
                "claim": label,
                "lambda": _fmt_partition(lam),
                "mu": _fmt_partition(mu),
                "computed": table.coeff(lam, mu),
            }
            break
    return _report("witnesses", params, witness, started)


def check_artin(session: CheckSession, n: int) -> CheckReport:
    """Single bosonic alphabet: Hilbert series [n]_q! and dimension n!."""
    started = time.perf_counter()
    params = {"n": n}
    got = session.hilbert(n, 1, 0)
    want = q_factorial(n)
    witness = None
    if got != want:
        witness = {"computed": got.pretty(), "formula": want.pretty()}
    elif got.evaluate((1,)) != factorial(n):
        witness = {"dimension": got.evaluate((1,))}
    return _report("artin", params, witness, started)


def check_exterior(session: CheckSession, n: int) -> CheckReport:
    """Single fermionic alphabet: hook decomposition, one per degree."""
    started = time.perf_counter()
    params = {"n": n}
    series = session.frobenius(n, 0, 1)
    expected = {}
    for d in range(n):
        expected[((), (d,))] = {(n - d,) + (1,) * d: 1}
    witness = None
    if series.components != expected:
        witness = {
            "computed": series.to_json()["components"],
            "expected degrees": list(range(n)),
        }
    return _report("exterior", params, witness, started)


def check_haiman(session: CheckSession, n: int) -> CheckReport:
    """Two bosonic alphabets: total dimension (n+1)^(n-1)."""
    started = time.perf_counter()
    params = {"n": n}
    dim = session.hilbert(n, 2, 0).evaluate((1, 1))
    witness = None
    if dim != (n + 1) ** (n - 1):
        witness = {"computed": dim, "expected": (n + 1) ** (n - 1)}
    return _report("haiman", params, witness, started)


def cauchy_ceiling_guard(k: int, j: int, n: int, degree: int, ceiling: int) -> None:
    """Refuse a Cauchy check whose tableau count exceeds the ceiling, before it starts."""
    tableaux = cauchy_tableau_bound(k, j, n, degree)
    if tableaux > ceiling:
        where = f"the Cauchy check at k={k} j={j} n={n} degree {degree}"
        raise CeilingExceeded(None, tableaux, ceiling, where, "tableaux")


def check_cauchy(session: CheckSession, n: int, kmax: int = 2, jmax: int = 2, degree: int = 6) -> CheckReport:
    """Truncated super Cauchy identity over a grid of alphabet sizes."""
    started = time.perf_counter()
    params = {"n": n, "kmax": kmax, "jmax": jmax, "degree": degree}
    # the bound grows with k, j and n, so the largest call bounds every call
    cauchy_ceiling_guard(kmax, jmax, n, degree, session.ceiling)
    witness = None
    for k in range(kmax + 1):
        for j in range(jmax + 1):
            for nn in range(1, n + 1):
                res = super_cauchy_check(k, j, nn, degree)
                if not res.passed:
                    witness = {"k": k, "j": j, "n": nn, "first_failure": res.first_failure}
                    return _report("cauchy", params, witness, started)
    return _report("cauchy", params, witness, started)


def check_sagan_swanson(session: CheckSession, n: int) -> CheckReport:
    """The alternating q-Stirling sum telescopes to 1 for every size up to n."""
    started = time.perf_counter()
    params = {"n": n}
    witness = None
    for m in range(n + 1):
        value = sagan_swanson_sum(m)
        if value != QUPoly.one(1, 0):
            witness = {"n": m, "value": value.pretty()}
            break
    return _report("sagan_swanson", params, witness, started)


# ---------------------------------------------------------------------------
# registry

REGISTRY = {
    "universality": check_universality,
    "cancellation": check_cancellation,
    "restriction": check_restriction,
    "parts_le_two": check_parts_le_two,
    "sign_coeffs": check_sign_coeffs,
    "hilb11": check_hilb11,
    "bound_closure": check_bound_and_closure,
    "n_le_kj": check_n_le_kj,
    "witnesses": check_witnesses,
    "artin": check_artin,
    "exterior": check_exterior,
    "haiman": check_haiman,
    "cauchy": check_cauchy,
    "sagan_swanson": check_sagan_swanson,
}


def default_params(check_id: str, n: int, k=None, j=None, m=None, degree_bound=None) -> dict:
    """Parameter dict for a registry check at the requested size."""
    if check_id == "cancellation":
        kk = 1 if k is None else k
        jj = 1 if j is None else j
        return {"n": n, "k": kk, "j": jj, "m": min(kk, jj) if m is None else m}
    if check_id == "restriction":
        return {"n": n, "k": 1 if k is None else k, "j": 1 if j is None else j}
    if check_id == "bound_closure":
        return {"n": n, "k": 1 if k is None else k, "j": 1 if j is None else j}
    if check_id == "n_le_kj":
        nn = min(n, 3)
        kk = 1 if k is None else k
        jj = (max(nn - kk, 1)) if j is None else j
        return {"n": min(nn, kk + jj), "k": kk, "j": jj}
    if check_id == "cauchy":
        return {"n": min(n, 3), "degree": 6 if degree_bound is None else degree_bound}
    return {"n": n}


def run_check(check_id: str, session: CheckSession, params: dict) -> CheckReport:
    if check_id not in REGISTRY:
        raise KeyError(f"unknown check id: {check_id}")
    return REGISTRY[check_id](session, **params)
