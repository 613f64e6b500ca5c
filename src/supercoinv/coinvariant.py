"""Coinvariant quotients: ideal components, graded characters, and series.

The defining ideal is generated by all positive-degree diagonal invariants.
Its multidegree-d component equals

    sum over variables v of  v * (ideal component at d - deg v)   +   Inv_d,

which is an exact rewriting of the span over all products (monomial times
lower invariant) and is what the recursion below computes; invariant bases of
every lower multidegree enter through the recursion.  Ideal components are
S_n-stable by this same structure: the invariant generators are checked to be
fixed by every adjacent transposition when built, and variables are permuted
among themselves, so stability propagates through the recursion by induction.

Variables and permutations act on coordinate indices, never on monomials per
vector entry: multiplication by a variable and the action of a permutation
are signed index maps of a component (``superring.shift_map`` and
``superring.permutation_action``), built once per component and applied to
every basis vector.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

from . import snchar, superring
from .exactla import SubspaceBasis, span_basis
from .qcombinat import Partition, partition_sort_key, partitions_of
from .superschur import QUPoly, expand_super_schur

__all__ = [
    "CeilingExceeded",
    "Multidegree",
    "FrobeniusSeries",
    "CoeffTable",
    "IdealComponentCache",
    "ideal_component",
    "quotient_character",
    "frobenius_series",
    "hilbert_series",
    "coeff_table",
]

Multidegree = tuple  # (r, s): k bosonic degrees, j fermionic degrees

DEFAULT_CEILING = 50_000


class CeilingExceeded(RuntimeError):
    def __init__(self, deg: Multidegree, dim: int, limit: int):
        self.deg = deg
        self.dim = dim
        self.limit = limit
        super().__init__(
            f"monomial space at multidegree r={list(deg[0])} s={list(deg[1])} "
            f"has {dim} columns, exceeding the ceiling of {limit}"
        )


def _mu_key(mu: Partition) -> str:
    return json.dumps(list(mu), separators=(",", ":"))


def _mu_from_key(key: str) -> Partition:
    return tuple(json.loads(key))


@dataclass
class FrobeniusSeries:
    """Multigraded Frobenius series: multidegree -> irreducible multiplicities."""

    n: int
    k: int
    j: int
    components: dict = field(default_factory=dict)

    def sorted_degrees(self):
        return sorted(self.components, key=lambda d: (sum(d[0]) + sum(d[1]), d))

    def mu_polynomial(self, mu: Partition) -> QUPoly:
        """Coefficient of the irreducible mu as a polynomial in q and u."""
        out = {}
        for (r, s), mults in self.components.items():
            c = mults.get(mu, 0)
            if c:
                out[tuple(r) + tuple(s)] = c
        return QUPoly(self.k, self.j, out)

    def hilbert(self) -> QUPoly:
        """Hilbert series recovered from the multiplicities and dimensions."""
        out = {}
        for (r, s), mults in self.components.items():
            dim = sum(c * snchar.syt_count(mu) for mu, c in mults.items())
            if dim:
                out[tuple(r) + tuple(s)] = dim
        return QUPoly(self.k, self.j, out)

    def max_total_degree(self) -> int:
        return max((sum(r) + sum(s) for (r, s) in self.components), default=0)

    def to_json(self) -> dict:
        comps = []
        for r, s in self.sorted_degrees():
            mults = self.components[(r, s)]
            rec = {
                "deg": {"r": list(r), "s": list(s)},
                "mults": {
                    _mu_key(mu): mults[mu]
                    for mu in partitions_of(self.n)
                    if mults.get(mu)
                },
            }
            comps.append(rec)
        return {"n": self.n, "k": self.k, "j": self.j, "components": comps}

    @classmethod
    def from_json(cls, data: dict) -> "FrobeniusSeries":
        series = cls(data["n"], data["k"], data["j"])
        for rec in data["components"]:
            deg = (tuple(rec["deg"]["r"]), tuple(rec["deg"]["s"]))
            series.components[deg] = {
                _mu_from_key(key): int(v) for key, v in rec["mults"].items()
            }
        return series


@dataclass
class CoeffTable:
    """Universal coefficients extracted from one ring: (lambda, mu) -> c."""

    n: int
    source: tuple
    entries: dict = field(default_factory=dict)

    def coeff(self, lam: Partition, mu: Partition) -> int:
        return self.entries.get((tuple(lam), tuple(mu)), 0)

    def sorted_entries(self):
        return sorted(
            self.entries.items(),
            key=lambda item: (
                sum(item[0][0]),
                partition_sort_key(item[0][0]),
                partition_sort_key(item[0][1]),
            ),
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "source": list(self.source),
            "entries": [
                {"lambda": list(lam), "mu": list(mu), "c": c}
                for (lam, mu), c in self.sorted_entries()
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoeffTable":
        table = cls(data["n"], tuple(data["source"]))
        for rec in data["entries"]:
            table.entries[(tuple(rec["lambda"]), tuple(rec["mu"]))] = int(rec["c"])
        return table


class IdealComponentCache:
    """Per-(n,k,j) store of monomial spaces, invariant bases, ideal bases.

    Ideal bases may be evicted shell-by-shell to bound memory (the recursion
    only ever needs the previous total-degree shell); with a cache directory
    they are persisted when computed and reloaded on demand.
    """

    def __init__(self, n: int, k: int, j: int, ceiling: int = DEFAULT_CEILING, cache_dir=None):
        for name, value in (("n", n), ("k", k), ("j", j)):
            if value < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {value}")
        self.n = n
        self.k = k
        self.j = j
        self.ceiling = ceiling
        self.cache_dir = cache_dir
        self.ideal: dict = {}
        self.invariant: dict = {}

    def monomial_space(self, deg: Multidegree):
        return superring.monomial_space(self.n, self.k, self.j, deg[0], deg[1])

    def invariant_basis(self, deg: Multidegree) -> SubspaceBasis:
        basis = self.invariant.get(deg)
        if basis is None:
            basis = superring.invariant_basis(self.n, self.k, self.j, deg[0], deg[1])
            self.invariant[deg] = basis
        return basis

    def degrees_cached(self):
        return sorted(self.ideal, key=lambda d: (sum(d[0]) + sum(d[1]), d))

    def evict_below(self, total_degree: int) -> None:
        for deg in list(self.ideal):
            if sum(deg[0]) + sum(deg[1]) < total_degree:
                del self.ideal[deg]

    # -- disk layer ----------------------------------------------------------

    def _path(self, deg: Multidegree) -> str:
        r, s = deg
        name = "r" + "-".join(map(str, r)) + "_s" + "-".join(map(str, s)) + ".json"
        sub = f"ideal_n{self.n}_k{self.k}_j{self.j}"
        return os.path.join(self.cache_dir, sub, name)

    def _save(self, deg: Multidegree, basis: SubspaceBasis) -> None:
        path = self._path(deg)
        if os.path.exists(path):
            return
        monos, _index = self.monomial_space(deg)
        vectors = []
        for pivot, row in zip(basis.pivots, basis.vectors):
            # the file holds the reduced-echelon row over Q: value 1 at its pivot
            d = row[pivot]
            vectors.append(
                [
                    [
                        superring.mono_to_bytes(monos[i], self.n).hex(),
                        str(v) if d == 1 else str(Fraction(v, d)),
                    ]
                    for i, v in sorted(row.items())
                ]
            )
        payload = {
            "n": self.n,
            "k": self.k,
            "j": self.j,
            "r": list(deg[0]),
            "s": list(deg[1]),
            "dim": len(monos),
            "pivots": list(basis.pivots),
            "vectors": vectors,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        # one temporary file per process: the workers of ``verify --jobs`` may
        # write the same component into a shared directory at once
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(payload))
        os.replace(tmp, path)

    def _load(self, deg: Multidegree):
        if self.cache_dir is None:
            return None
        path = self._path(deg)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        monos, index = self.monomial_space(deg)
        n, k, j = self.n, self.k, self.j
        expected = {
            "n": n,
            "k": k,
            "j": j,
            "r": list(deg[0]),
            "s": list(deg[1]),
            "dim": len(monos),
        }
        for key, want in expected.items():
            if payload.get(key) != want:
                raise ValueError(
                    f"cache file {path} does not match the request: "
                    f"{key} is {payload.get(key)!r}, expected {want!r}"
                )
        pivots, vectors = payload["pivots"], payload["vectors"]
        if len(pivots) != len(vectors):
            raise ValueError(
                f"corrupt cache file {path}: {len(pivots)} pivots, {len(vectors)} rows"
            )
        rows = {}
        for pivot, row in zip(pivots, vectors):
            vec = {}
            try:
                for hexmono, val in row:
                    mono = superring.mono_from_bytes(bytes.fromhex(hexmono), n, k, j)
                    vec[index[mono]] = Fraction(val) if "/" in val else int(val)
            except (KeyError, ValueError) as exc:
                raise ValueError(f"corrupt cache file {path}: row {pivot}: {exc!r}") from exc
            if vec.get(pivot) != 1:
                raise ValueError(f"corrupt cache file {path}: row {pivot} is not 1 at its pivot")
            rows[pivot] = vec
        if len(rows) != len(pivots):
            raise ValueError(f"corrupt cache file {path}: duplicate pivots")
        try:
            return SubspaceBasis.from_rows(len(monos), rows)
        except ValueError as exc:
            raise ValueError(f"corrupt cache file {path}: {exc}") from exc


def ideal_component(cache: IdealComponentCache, deg: Multidegree) -> SubspaceBasis:
    """Reduced-echelon basis of the ideal's multidegree-d component."""
    deg = (tuple(deg[0]), tuple(deg[1]))
    basis = cache.ideal.get(deg)
    if basis is not None:
        return basis
    basis = cache._load(deg)
    if basis is not None:
        cache.ideal[deg] = basis
        return basis
    n, k, j = cache.n, cache.k, cache.j
    r, s = deg
    monos, _index = cache.monomial_space(deg)
    if len(monos) > cache.ceiling:
        raise CeilingExceeded(deg, len(monos), cache.ceiling)
    total = sum(r) + sum(s)
    vectors = []
    if total > 0:
        for a in range(k):
            if r[a] == 0:
                continue
            pred = (r[:a] + (r[a] - 1,) + r[a + 1 :], s)
            vectors.extend(_shifted_vectors(cache, pred, "b", a))
        for c in range(j):
            if s[c] == 0:
                continue
            pred = (r, s[:c] + (s[c] - 1,) + s[c + 1 :])
            vectors.extend(_shifted_vectors(cache, pred, "f", c))
        inv = cache.invariant_basis(deg)
        vectors.extend(dict(row) for row in inv.vectors)
    basis = span_basis(vectors, len(monos))
    del vectors  # free the inputs before _save builds the file: lower peak memory
    cache.ideal[deg] = basis
    if cache.cache_dir is not None:
        cache._save(deg, basis)
    return basis


def _shifted_vectors(cache, pred: Multidegree, kind: str, set_idx: int):
    """The ideal basis at ``pred`` times each variable of one set, as vectors.

    Each variable acts through one signed index map of the predecessor
    component (``superring.shift_map``), built once per component and
    variable, so no monomial is multiplied per vector entry.  Bosonic maps
    have no signs and no zeros; fermionic maps carry the ordering sign and
    drop the entries where the fermion is already present.
    """
    pred_basis = ideal_component(cache, pred)
    if not pred_basis.vectors:
        return
    n, k, j = cache.n, cache.k, cache.j
    r, s = pred
    for pos in range(n):
        signs, tgt = superring.shift_map(n, k, j, r, s, kind, set_idx, pos)
        if kind == "b":
            for row in pred_basis.vectors:
                yield {tgt[i]: v for i, v in row.items()}
            continue
        for row in pred_basis.vectors:
            vec = {}
            for i, v in row.items():
                sign = signs[i]
                if sign:
                    vec[tgt[i]] = v if sign > 0 else -v
            if vec:
                yield vec


def quotient_character(
    cache: IdealComponentCache,
    deg: Multidegree,
    rho: Partition,
    check_invariant: bool = False,
):
    """Trace of any permutation of cycle type rho on the quotient component.

    Computed as ambient trace minus the trace restricted to the ideal
    component.  The ideal is S_n-stable by construction (see module
    docstring); ``check_invariant`` additionally verifies membership of every
    permuted basis vector, which property tests exercise at small sizes.
    """
    deg = (tuple(deg[0]), tuple(deg[1]))
    if sum(rho) != cache.n:
        raise ValueError(f"cycle type {rho} is not a partition of n={cache.n}")
    sigma = snchar.class_representative(rho)
    basis = ideal_component(cache, deg)
    signs, targets = superring.permutation_action(cache.n, cache.k, cache.j, *deg, sigma)
    # the ambient trace: the signs at the fixed indices
    amb = sum(sign for idx, (sign, tgt) in enumerate(zip(signs, targets)) if tgt == idx)
    if not basis.vectors:
        return amb
    if check_invariant:
        for row in basis.vectors:
            img = {}
            for idx, val in row.items():
                img[targets[idx]] = val if signs[idx] > 0 else -val
            if basis.reduce(img):
                from .exactla import SubspaceNotInvariant

                raise SubspaceNotInvariant(
                    f"ideal component at {deg} not stable under cycle type {rho}"
                )
    # invert the signed index permutation once, then read each diagonal
    # coefficient straight off the pivot coordinate: a row with pivot value d
    # contributes its entry there over d
    inverse = [0] * len(targets)
    for idx, tgt in enumerate(targets):
        inverse[tgt] = idx
    tr_ideal = 0
    for pivot, row in zip(basis.pivots, basis.vectors):
        pre = inverse[pivot]
        val = row.get(pre, 0)
        if val:
            if signs[pre] < 0:
                val = -val
            d = row[pivot]
            tr_ideal += val if d == 1 else Fraction(val, d)
    return amb - tr_ideal


def _shell_multidegrees(n: int, k: int, j: int, total: int):
    degs = []
    for bos_total in range(total, -1, -1):
        fer_total = total - bos_total
        for r in superring._compositions(bos_total, k):
            for s in superring._compositions(fer_total, j):
                if all(x <= n for x in s):
                    degs.append((r, s))
    return degs


def _series_scan(cache: IdealComponentCache, per_component, keep_all: bool):
    """Drive the shell-by-shell scan until the first all-zero shell."""
    total = 0
    while True:
        degs = _shell_multidegrees(cache.n, cache.k, cache.j, total)
        if not degs:
            break
        nonzero = False
        for deg in degs:
            basis = ideal_component(cache, deg)
            monos, _index = cache.monomial_space(deg)
            qdim = len(monos) - basis.rank
            if qdim:
                nonzero = True
                per_component(deg, qdim)
        if total > 0 and not nonzero:
            break
        if not keep_all:
            cache.evict_below(total)
        total += 1


def frobenius_series(
    n: int,
    k: int,
    j: int,
    ceiling: int = DEFAULT_CEILING,
    cache: IdealComponentCache | None = None,
    keep_all: bool = False,
) -> FrobeniusSeries:
    """Multigraded Frobenius series, scanning shells until the quotient dies.

    Termination at the first empty total-degree shell is valid because the
    quotient ring is generated by 1: every higher component is a variable
    multiple of the previous shell.
    """
    if cache is None:
        cache = IdealComponentCache(n, k, j, ceiling=ceiling)
    series = FrobeniusSeries(n, k, j)
    types = partitions_of(n)

    def per_component(deg, qdim):
        class_fn = {rho: quotient_character(cache, deg, rho) for rho in types}
        if class_fn[(1,) * n] != qdim:
            raise AssertionError(f"identity character != quotient dimension at {deg}")
        mults = snchar.frobenius_decompose(class_fn, n)
        mults = {mu: c for mu, c in mults.items() if c}
        for mu, c in mults.items():
            if c < 0:
                raise AssertionError(f"negative multiplicity {c} at {deg}, mu={mu}")
        series.components[deg] = mults

    _series_scan(cache, per_component, keep_all)
    return series


def hilbert_series(
    n: int,
    k: int,
    j: int,
    ceiling: int = DEFAULT_CEILING,
    cache: IdealComponentCache | None = None,
    keep_all: bool = False,
) -> QUPoly:
    """Multigraded Hilbert series (dimensions only, no character work)."""
    if cache is None:
        cache = IdealComponentCache(n, k, j, ceiling=ceiling)
    out = {}

    def per_component(deg, qdim):
        out[tuple(deg[0]) + tuple(deg[1])] = qdim

    _series_scan(cache, per_component, keep_all)
    return QUPoly(k, j, out)


def coeff_table(series: FrobeniusSeries, degree_bound: int | None = None) -> CoeffTable:
    """Expand every irreducible's coefficient polynomial in super Schurs.

    The table determines c for every shape in P(k,j,n); shapes beyond the
    series' top degree are zero and stored implicitly.
    """
    n, k, j = series.n, series.k, series.j
    if degree_bound is None:
        degree_bound = series.max_total_degree()
    table = CoeffTable(n, (k, j))
    for mu in partitions_of(n):
        poly = series.mu_polynomial(mu)
        if poly.is_zero():
            continue
        expansion = expand_super_schur(poly, k, j, n, degree_bound=degree_bound)
        for lam, c in expansion.items():
            if c:
                table.entries[(lam, mu)] = c
    return table
