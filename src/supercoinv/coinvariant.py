"""Coinvariant quotients: ideal components, graded characters, and series.

The defining ideal I is generated by all positive-degree diagonal invariants.
Its multidegree-d component equals

    sum over variables v of  v * (ideal component at d - deg v)   +   Inv_d,

which is an exact rewriting of the span over all products (monomial times
lower invariant).  Ideal components are S_n-stable by this same structure:
the invariant generators are checked to be fixed by every adjacent
transposition when built, and variables are permuted among themselves, so
stability propagates through the recursion by induction.

Variables and permutations act on coordinate indices, never on monomials per
vector entry: multiplication by a variable and the action of a permutation
are signed index maps of a component (``superring.shift_map`` and
``superring.permutation_action``), built once per component and applied to
every basis vector.

Degree bound.  Write V for the span of the variables and |d| for the total
degree of d.  For |d| > n, Inv_d lies in V * I_(d-1), so ``ideal_component``
adds Inv_d only up to total degree n.  For bosonic sets alone this is Weyl's
theorem that polarized power sums of degree <= n generate the diagonal
invariants (H. Weyl, The Classical Groups, 1939).  With fermionic sets:

1. Multilinear components.  Take m sets, each of degree 1 (the multidegree
   e_S of a set S of sets).  A monomial there holds one variable of each set,
   in set order, and a permutation moves no two variables of one set past
   each other, so it acts with no sign: identified monomial by monomial, the
   component is the even ring's, as an S_n-module.  The product of an element
   on sets A by one on the complementary sets B differs from the even product
   by a sign that depends only on (A, B).  The multilinear component of
   V * I is the sum over splits of R_A * Inv_B (A, B nonempty), so it is the
   even ring's too.  In the even ring the orbit sums m_pi of the monomials are
   indexed by set partitions pi of S, and the products of block power sums
   are P_pi = sum of m_sigma over sigma coarser than pi.  Mobius inversion
   gives m_0 = sum_pi mu(0, pi) P_pi for the partition 0 into singletons.  For
   m > n there is no injective map from S to the n positions, so m_0 = 0; as
   mu(0, 1) = (-1)^(m-1) (m-1)! is nonzero, P_S is a combination of products
   of at least two power sums.  Every multilinear invariant is a combination
   of the P_pi, so it lies in V * I.
2. Any multidegree.  Given d = (r, s), split each set into as many copies as
   its degree and polarize: apply the even derivations E_(copy, set) =
   sum_p copy_p d/d set_p, one per copy.  Restitution, which sends every copy
   back to its set, is an S_n-equivariant algebra map, so it sends invariants
   to invariants and V * I of the polarized ring into V * I.  Restitution
   after polarization multiplies a component by r! s! (the product of the
   factorials of the degrees), which is nonzero.  A polarized invariant of
   total degree |d| > n is multilinear, so by step 1 it lies in V * I, and
   restitution returns r! s! times the invariant inside V * I_(d-1).

Quotient side.  Above total degree n, I_d = V * I_(d-1), so the quotient
Q = R / I has the super-Koszul presentation

    Q_d = (sum over v of v (x) Q_(d - e_v)) / relations,

with one relation per pair of variables v <= w and basis element s of
Q_(d - e_v - e_w): v (x) [w s] - eps w (x) [v s], where eps = -1 when v and w
are both odd and +1 otherwise (mixed even/odd pairs included), and v (x) [v s]
for odd v.  Here [w s] is the class of w s.  Proof: modulo these relations
every v (x) m, m a monomial, equals +-u (x) m' with u the least variable of
v m, or vanishes when v m = 0; the terms u (x) m' with u at most every
variable of m' and u m' nonzero map to distinct monomials, so the relations
span the kernel of V (x) R_(d-1) -> R_d, and V (x) I_(d-1) dies in Q.  So
``_series_scan`` builds ideal components only up to total degree n and above
it works with multiplication matrices on Q (as border bases do:
Kehrein-Kreuzer-Robbiano, An algebraist's view on border bases, 2005).  A
permutation sigma acts on the presentation by v (x) b -> sigma(v) (x) sigma(b).

Chain criterion.  Most of these relations are redundant, and
``_koszul_component`` offers only the others to the elimination.  Every
basis element s of a quotient component carries a label u, a variable with
s = [u b] for some b: on a shell built by ``_koszul_component``, the variable
of the border block that holds s's standard column; on a shell of total
degree <= n, where s is a standard monomial, its least variable in the flat
order g * n + pos (the unit 1 gets a label above every variable).  The
relation R(v, w; s) of a pair v <= w is skipped when label(s) < v, odd
squares included.  Exact: the super-Koszul differential satisfies d^2 = 0,
so for u < v <= w the boundary of u ^ v ^ w (x) b is a relation among
R(v, w; [u b]), R(u, w; [v b]) and R(u, v; [w b]), each with a nonzero
coefficient (+-1, or +-2 where an odd variable repeats).  A skipped row
R(v, w; s) with s = [u b] is therefore a combination of rows whose smaller
variable u is below v, and induction on that variable shows that the rows
kept span all of them.  Reduced echelon bases are unique, so the quotient
bases and matrices are the same as with every relation.  This is
Buchberger's chain criterion, or the neighbour criterion of border bases
(Kehrein-Kreuzer, Characterizations of border bases, 2005).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

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
    "shell_multidegrees",
]

Multidegree = tuple  # (r, s): k bosonic degrees, j fermionic degrees

DEFAULT_CEILING = 50_000

# version of the cache file layout; files of any other version are refused
CACHE_FORMAT = 3


class CeilingExceeded(RuntimeError):
    """A cost over the resource ceiling, found before the work starts.

    ``deg`` is the multidegree whose space is too large, or None for a cost
    that belongs to no multidegree.
    """

    def __init__(
        self,
        deg: Multidegree | None,
        dim: int,
        limit: int,
        space: str = "monomial space",
        unit: str = "columns",
    ):
        self.deg = deg
        self.dim = dim
        self.limit = limit
        if deg is not None:
            space = f"{space} at multidegree r={list(deg[0])} s={list(deg[1])}"
        super().__init__(f"{space} has {dim} {unit}, exceeding the ceiling of {limit}")


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

    A series scan builds ideal components only up to total degree n, where
    they are small, and keeps them all; with a cache directory they are
    persisted when computed and reloaded on demand.
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
        vectors = []
        for pivot, row in zip(basis.pivots, basis.vectors):
            # the file holds the reduced-echelon row over Q, value 1 at its
            # pivot, entry by entry as [coordinate in monomial_space order, value]
            d = row[pivot]
            vectors.append(
                [[i, str(v) if d == 1 else str(Fraction(v, d))] for i, v in sorted(row.items())]
            )
        payload = {
            "format": CACHE_FORMAT,
            "n": self.n,
            "k": self.k,
            "j": self.j,
            "r": list(deg[0]),
            "s": list(deg[1]),
            "dim": len(self.monomial_space(deg)[0]),
            "pivots": list(basis.pivots),
            "vectors": vectors,
        }
        payload["sha256"] = _digest(payload)
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
            try:
                payload = json.load(fh)
            except ValueError as exc:
                raise ValueError(f"corrupt cache file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError(f"corrupt cache file {path}: not a JSON object")
        if payload.get("format") != CACHE_FORMAT:
            raise ValueError(
                f"cache file {path} has format {payload.get('format')!r}, expected {CACHE_FORMAT}"
            )
        dim = len(self.monomial_space(deg)[0])
        expected = {
            "n": self.n,
            "k": self.k,
            "j": self.j,
            "r": list(deg[0]),
            "s": list(deg[1]),
            "dim": dim,
        }
        for key, want in expected.items():
            if payload.get(key) != want:
                raise ValueError(
                    f"cache file {path} does not match the request: "
                    f"{key} is {payload.get(key)!r}, expected {want!r}"
                )
        # the header matches: now the content must be what was written
        if payload.pop("sha256", None) != _digest(payload):
            raise ValueError(f"corrupt cache file {path}: content does not match its SHA-256")
        pivots, vectors = payload["pivots"], payload["vectors"]
        if len(pivots) != len(vectors):
            raise ValueError(
                f"corrupt cache file {path}: {len(pivots)} pivots, {len(vectors)} rows"
            )
        rows = {}
        for pivot, row in zip(pivots, vectors):
            vec = {}
            try:
                for i, val in row:
                    if type(i) is not int or not 0 <= i < dim:
                        raise ValueError(f"coordinate {i!r} outside 0..{dim - 1}")
                    vec[i] = Fraction(val) if "/" in val else int(val)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"corrupt cache file {path}: row {pivot}: {exc!r}") from exc
            if vec.get(pivot) != 1:
                raise ValueError(f"corrupt cache file {path}: row {pivot} is not 1 at its pivot")
            rows[pivot] = vec
        if len(rows) != len(pivots):
            raise ValueError(f"corrupt cache file {path}: duplicate pivots")
        try:
            return SubspaceBasis.from_rows(dim, rows)
        except ValueError as exc:
            raise ValueError(f"corrupt cache file {path}: {exc}") from exc


def _digest(payload: dict) -> str:
    """SHA-256 of a cache file's content: the JSON text of every other field."""
    # imported here: only cache files need it, and loading OpenSSL's hashes
    # costs every process several milliseconds of start-up
    import hashlib

    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def ideal_component(cache: IdealComponentCache, deg: Multidegree) -> SubspaceBasis:
    """Reduced-echelon basis of the ideal's multidegree-d component.

    Invariants enter only up to total degree n; above it they already lie in
    the variable-shifted lower component (the degree bound in the module
    docstring).
    """
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
        if total <= n:
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


def shell_multidegrees(n: int, k: int, j: int, total: int):
    """Every multidegree of one total degree whose fermionic degrees are at most n."""
    degs = []
    for bos_total in range(total, -1, -1):
        fer_total = total - bos_total
        for r in superring._compositions(bos_total, k):
            for s in superring._compositions(fer_total, j):
                if all(x <= n for x in s):
                    degs.append((r, s))
    return degs


@dataclass
class _QuotientComponent:
    """One quotient component, in coordinates 0..dim-1 of a fixed basis.

    ``mult`` maps each variable v = set * n + position to the matrix of
    multiplication by v from the component one degree lower in v's set;
    ``action`` maps a cycle type to the matrix of its class representative.
    A matrix is a list of columns, one per source basis element, and a column
    is a pair (integer vector, positive denominator).  ``labels`` holds one
    variable u per basis element s with s = [u b] (the chain criterion of the
    module docstring), and ``source_labels`` maps each set to the labels of
    the component one lower in that set, the source of its ``mult`` matrices.
    """

    dim: int
    mult: dict
    action: dict
    labels: list
    source_labels: dict


def _predecessors(deg: Multidegree, k: int) -> dict:
    """Set index (bosonic sets first) -> deg lowered by one in that set."""
    r, s = deg
    out = {}
    for g, d in enumerate(r + s):
        if d:
            if g < k:
                out[g] = (r[:g] + (d - 1,) + r[g + 1 :], s)
            else:
                c = g - k
                out[g] = (r, s[:c] + (d - 1,) + s[c + 1 :])
    return out


def _standard_coordinates(basis: SubspaceBasis) -> dict:
    """Non-pivot coordinate -> its place among the non-pivot coordinates."""
    pivots = set(basis.pivots)
    return {c: q for q, c in enumerate(c for c in range(basis.dim) if c not in pivots)}


def _least_variable(mono, n: int) -> int:
    """A monomial's least variable in the flat order g * n + pos.

    The unit monomial, a multiple of no variable, gets (k + j) * n, above every
    variable, so no relation on it is ever skipped.
    """
    bos, fer = mono
    for g, e in enumerate(bos):
        for p, x in enumerate(e):
            if x:
                return g * n + p
    for f, mask in enumerate(fer):
        if mask:
            return (len(bos) + f) * n + (mask & -mask).bit_length() - 1
    return (len(bos) + len(fer)) * n


def _standard_labels(cache, deg: Multidegree) -> list:
    """The least variable of each standard monomial: its label."""
    monos, _index = cache.monomial_space(deg)
    standard = _standard_coordinates(ideal_component(cache, deg))
    return [_least_variable(monos[c], cache.n) for c in standard]


def _class_of(basis: SubspaceBasis, vec: dict, where: dict, den: int = 1):
    """The class of vec / den modulo span(basis), as a column in quotient coordinates."""
    w, scale = basis.scaled_residual(vec)
    den *= scale
    g = gcd(den, *w.values())
    return {where[i]: v // g for i, v in w.items()}, den // g


def _boundary_component(cache, deg: Multidegree, sigmas: dict) -> _QuotientComponent:
    """A quotient component read off the ideal side (the scan needs shell n).

    Its basis is the standard (non-pivot) monomials; multiplication matrices
    come from the shell below through ``shift_map`` and permutation matrices
    through ``permutation_action``, each image reduced modulo the ideal.
    """
    n, k, j = cache.n, cache.k, cache.j
    basis = ideal_component(cache, deg)
    where = _standard_coordinates(basis)
    mult, sources = {}, {}
    for g, pred in _predecessors(deg, k).items():
        standard = list(_standard_coordinates(ideal_component(cache, pred)))
        sources[g] = _standard_labels(cache, pred)
        kind, set_idx = ("b", g) if g < k else ("f", g - k)
        for pos in range(n):
            signs, tgt = superring.shift_map(n, k, j, *pred, kind, set_idx, pos)
            mult[g * n + pos] = [
                _class_of(basis, {tgt[i]: signs[i]}, where) if signs[i] else ({}, 1)
                for i in standard
            ]
    action = {}
    for rho, sigma in sigmas.items():
        signs, tgt = superring.permutation_action(n, k, j, *deg, sigma)
        action[rho] = [_class_of(basis, {tgt[i]: signs[i]}, where) for i in where]
    return _QuotientComponent(len(where), mult, action, _standard_labels(cache, deg), sources)


def _koszul_component(cache, deg: Multidegree, below: dict, sigmas: dict):
    """A component above total degree n, from the quotient shell below it.

    Q_deg is the border space (the sum over variables v of v (x) Q_(deg-e_v))
    modulo the super-Koszul relations of the module docstring, of which only
    those the chain criterion keeps are offered, and its basis is the
    non-pivot border columns of the relation span.  Returns the
    component and the trace of each class representative in ``sigmas``.
    """
    n, k = cache.n, cache.k
    preds = _predecessors(deg, k)
    # border blocks, the highest variable first: relation pivots (least
    # columns) then land in the blocks of high variables, and the standard
    # columns, whose multiplication columns are unit vectors, in low ones
    offset = {}
    ncols = 0
    for g in sorted(preds, reverse=True):
        size = below[preds[g]].dim
        for pos in reversed(range(n)):
            offset[g * n + pos] = ncols
            ncols += size
    if ncols > cache.ceiling:
        raise CeilingExceeded(deg, ncols, cache.ceiling, "quotient border")
    rel = SubspaceBasis(ncols)
    for g, pred_g in preds.items():
        into_g = below[pred_g].mult  # multiplication into Q_(deg - e_g)
        for h, pred_h in preds.items():
            if h < g or h * n not in into_g:  # deg - e_g - e_h is not a multidegree
                continue
            into_h = below[pred_h].mult
            # the labels of the basis elements s of Q_(deg - e_g - e_h)
            labels = below[pred_g].source_labels[h]
            # v (x) [w s] - eps w (x) [v s], eps = -1 for two odd variables
            sign = 1 if g >= k and h >= k else -1
            for p in range(n):
                v = g * n + p
                for q in range(p if h == g else 0, n):
                    w = h * n + q
                    if v == w:
                        if g < k:
                            continue
                        # v (x) [v s] for odd v
                        for (x, _dx), u in zip(into_g[v], labels):
                            if x and u >= v:
                                rel.insert({offset[v] + i: c for i, c in x.items()})
                        continue
                    for (x, dx), (y, dy), u in zip(into_g[w], into_h[v], labels):
                        # the chain criterion: rows with label(s) < v are redundant
                        if u < v or not (x or y):
                            continue
                        d = gcd(dx, dy)
                        a, b = dy // d, sign * (dx // d)
                        row = {offset[v] + i: a * c for i, c in x.items()}
                        row.update((offset[w] + i, b * c) for i, c in y.items())
                        rel.insert(row)
    where = _standard_coordinates(rel)
    mult = {}
    own = []  # the label of a standard column is the variable of its block
    for v, off in offset.items():
        cols = []
        for col in range(off, off + below[preds[v // n]].dim):
            if col in where:
                cols.append(({where[col]: 1}, 1))
                own.append(v)
            else:
                row = rel.row(col)
                cols.append(({where[i]: -c for i, c in row.items() if i != col}, row[col]))
        mult[v] = cols
    action, traces = {}, {}
    for rho, sigma in sigmas.items():
        cols = []
        trace = Fraction(0)
        for v, off in offset.items():
            g, pos = divmod(v, n)
            image = offset[g * n + sigma[pos]]
            for b, (x, dx) in enumerate(below[preds[g]].action[rho]):
                q = where.get(off + b)
                if q is None:
                    continue
                col = _class_of(rel, {image + i: c for i, c in x.items()}, where, dx)
                trace += Fraction(col[0].get(q, 0), col[1])
                cols.append(col)
        action[rho] = cols
        traces[rho] = trace
    sources = {g: below[pred].labels for g, pred in preds.items()}
    return _QuotientComponent(len(where), mult, action, own, sources), traces


def _series_scan(cache: IdealComponentCache, per_component, types=()):
    """Drive the shell-by-shell scan until the first all-zero shell.

    Shells up to total degree n come from ideal components; every later shell
    comes from the one below it on the quotient side (``_koszul_component``),
    so only two quotient shells are held at a time.  ``per_component`` gets
    each nonzero component's multidegree, dimension and the traces of the
    class representatives of ``types``.
    """
    n, k, j = cache.n, cache.k, cache.j
    identity = (1,) * n
    sigmas = {rho: snchar.class_representative(rho) for rho in types if rho != identity}
    below = {}
    total = 0
    while True:
        degs = shell_multidegrees(n, k, j, total)
        if not degs:
            break
        shell = {}
        nonzero = False
        for deg in degs:
            if total <= n:
                basis = ideal_component(cache, deg)
                qdim = basis.dim - basis.rank
                if qdim:
                    class_fn = {rho: quotient_character(cache, deg, rho) for rho in types}
            else:
                shell[deg], class_fn = _koszul_component(cache, deg, below, sigmas)
                qdim = shell[deg].dim
                if types:
                    class_fn[identity] = qdim
            if qdim:
                nonzero = True
                per_component(deg, qdim, class_fn)
        if total > 0 and not nonzero:
            break
        if total == n:
            shell = {deg: _boundary_component(cache, deg, sigmas) for deg in degs}
        below = shell
        total += 1


def frobenius_series(
    n: int,
    k: int,
    j: int,
    ceiling: int = DEFAULT_CEILING,
    cache: IdealComponentCache | None = None,
) -> FrobeniusSeries:
    """Multigraded Frobenius series, scanning shells until the quotient dies.

    Termination at the first empty total-degree shell is valid because the
    quotient ring is generated by 1: every higher component is a variable
    multiple of the previous shell.
    """
    if cache is None:
        cache = IdealComponentCache(n, k, j, ceiling=ceiling)
    series = FrobeniusSeries(n, k, j)

    def per_component(deg, qdim, class_fn):
        if class_fn[(1,) * n] != qdim:
            raise AssertionError(f"identity character != quotient dimension at {deg}")
        mults = snchar.frobenius_decompose(class_fn, n)
        mults = {mu: c for mu, c in mults.items() if c}
        for mu, c in mults.items():
            if c < 0:
                raise AssertionError(f"negative multiplicity {c} at {deg}, mu={mu}")
        series.components[deg] = mults

    _series_scan(cache, per_component, partitions_of(n))
    return series


def hilbert_series(
    n: int,
    k: int,
    j: int,
    ceiling: int = DEFAULT_CEILING,
    cache: IdealComponentCache | None = None,
) -> QUPoly:
    """Multigraded Hilbert series (dimensions only, no character work)."""
    if cache is None:
        cache = IdealComponentCache(n, k, j, ceiling=ceiling)
    out = {}

    def per_component(deg, qdim, _class_fn):
        out[tuple(deg[0]) + tuple(deg[1])] = qdim

    _series_scan(cache, per_component)
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
