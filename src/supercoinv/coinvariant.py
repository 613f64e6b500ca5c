"""Coinvariant quotients: generators, the quotient recursion, and series.

The defining ideal I is generated by all positive-degree diagonal invariants.
Write V for the span of the variables, |d| for the total degree of a
multidegree d = (r, s), V * I_(d-1) for the sum over variables v of
v * I_(d - deg v), and

    m_p(d) = prod_g x_(g,p)^(r_g) prod_c theta_(c,p)^(s_c)

for the monomial of multidegree d at the single position p, its fermionic
factors in set order (zero when some s_c >= 2).  The polarized power sum
P_d = sum_p m_p(d) is invariant.

Generators.  At every multidegree d != 0, Inv_d lies in V * I_(d-1) + Q * P_d,
so I_d = V * I_(d-1) + Q * P_d.  For bosonic sets alone this is Weyl's
theorem that polarized power sums generate the diagonal invariants (H. Weyl,
The Classical Groups, 1939).  With fermionic sets:

1. Multilinear components.  Take m sets, each of degree 1 (the multidegree
   e_S of a set S of sets).  A monomial there holds one variable of each set,
   in set order, and a permutation moves no two variables of one set past
   each other, so it acts with no sign: identified monomial by monomial, the
   component is the even ring's, as an S_n-module.  The product of an element
   on sets A by one on the complementary sets B differs from the even product
   by a sign that depends only on (A, B).  The multilinear component of
   V * I is the sum over splits of R_A * Inv_B (A, B nonempty), so it is the
   even ring's too.  In the even ring the orbit sums m_pi of the monomials are
   indexed by set partitions pi of S (which sets share a position), and the
   products of block power sums are P_pi = sum of m_sigma over sigma coarser
   than pi.  Mobius inversion writes each m_sigma as a combination of the
   P_pi with pi coarser than sigma.  A P_pi of two or more blocks is P_B
   times an invariant of positive degree, and P_B = sum_p (a variable at p) *
   (the rest), so P_pi lies in V * I; the one-block P_pi is P_(e_S).  Every
   multilinear invariant is a combination of orbit sums, so it lies in
   V * I + Q * P_(e_S).  For m > n there is no injective map from S to the n
   positions, so m_0 = 0 for the partition 0 into singletons; as
   mu(0, 1) = (-1)^(m-1) (m-1)! is nonzero, P_(e_S) itself lies in V * I.
2. Any multidegree.  Given d = (r, s), split each set into as many copies as
   its degree and polarize: apply the even derivations E_(copy, set) =
   sum_p copy_p d/d set_p, one per copy, which commute with S_n.
   Restitution, which sends every copy back to its set, is an
   S_n-equivariant algebra map: it sends V * I of the polarized ring into
   V * I, and the multilinear power sum to +-P_d (zero when a fermionic set
   has degree >= 2).  Restitution after polarization multiplies a component
   by r! s! (the product of the factorials of the degrees), which is
   nonzero.  By step 1 the polarized invariant lies in V * I + Q * P, and
   restitution returns r! s! times the invariant inside V * I_(d-1) + Q * P_d.

For |d| > n step 1 puts P_d in V * I_(d-1) as well: the ideal is generated in
total degree <= n, and I_d = V * I_(d-1) above it.  No ideal component is
built here: the series and the closure check of ``checks`` work on the
quotient alone, and the test oracles build I_d by this recursion on the
monomial model.

Quotient side.  The quotient Q = R / I is computed from Q_0 = span{1} by the
super-Koszul presentation

    Q_d = (sum over v of v (x) Q_(d - e_v)) / (relations + Q * lift of P_d),

with one relation per pair of variables v <= w and basis element s of
Q_(d - e_v - e_w): v (x) [w s] - eps w (x) [v s], where eps = -1 when v and w
are both odd and +1 otherwise (mixed even/odd pairs included), and v (x) [v s]
for odd v.  Here [w s] is the class of w s.  Proof: modulo these relations
every v (x) m, m a monomial, equals +-u (x) m' with u the least variable of
v m, or vanishes when v m = 0; the terms u (x) m' with u at most every
variable of m' and u m' nonzero map to distinct monomials, so the relations
span the kernel of V (x) R_(d-1) -> R_d, V (x) I_(d-1) dies in Q, and the
quotient by the relations is R_d / (V * I_(d-1)).  By the generator
statement one more row makes it Q_d: the lift sum_p u_p (x) [m_p(d) / u_p]
of P_d, where u_p is the position-p variable of the first set of positive
degree in d, bosonic sets first.  The lift's sign is +1: m_p(d) equals
u_p * (m_p(d) / u_p) exactly, because u_p is a boson or, when d has no
bosonic degree, the fermion of the lowest set present, which comes first in
set order.  ``_koszul_component`` adds the lift at every shell with
|d| <= n and every s_c <= 1 (elsewhere it lies in the relation span or
P_d = 0), and such a shell keeps the classes [m_p(d)] for the shell above it
to read.  So the scan works with multiplication matrices on Q alone, as
border bases do (Kehrein-Kreuzer-Robbiano, An algebraist's view on border
bases, 2005).  A permutation sigma acts on the presentation by
v (x) b -> sigma(v) (x) sigma(b); P_d is invariant, so the relation span is
stable.

Chain criterion.  Most of these relations are redundant, and
``_koszul_component`` offers only the others to the elimination.  Every
basis element s of a quotient component carries a label u, a variable with
s = [u b] for some b: the variable of the border block that holds s's
standard column (the unit 1 of Q_0 gets a label above every variable).  The
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

Alphabet symmetry.  Let tau permute the bosonic sets among themselves and
the fermionic sets among themselves, and send x_(g,p) to x_(tau g, p) and
theta_(c,p) to theta_(tau c, p).  It sends each generator to a generator of
the same parity, so it preserves the commutation rules and the odd squares
and extends to an even algebra automorphism of R; it moves sets and S_n moves
positions, so the two commute.  So tau maps the invariants onto the
invariants, hence I onto I, and Q_d onto Q_(tau d) as S_n-modules, where
(tau d)_(tau g) = d_g.  Write D for the dominant representative of d (r and
s each sorted into decreasing order) and tau_d for the stable sorting
permutation with tau_d(D) = d.  ``_series_scan`` builds only the dominant
components and stores every other Q_d as tau_d(Q_D), its basis the image of
Q_D's: the ``action`` matrices and traces are Q_D's, and a label u = g n + p
becomes tau_d(u) = tau_d(g) n + p, as tau([u b]) = [tau(u) tau(b)].
The chain criterion stays exact on these labels, since its proof needs only
s = [label(s) b] for some b.  No sign enters ``powers``: when every s_c <= 1
the fermionic sets of degree 1 come first in D, and the stable tau_d keeps
their order, so tau_d(m_p(D)) = m_p(d) with its factors in set order.  (A
sign common to every p would only scale the lift of P_d, not its span.)

Frames.  A multiplication matrix must be written in the bases the shell
below stores.  Q_(d - e_g) is stored as an image of its own dominant F, and
tau_d carries the stored Q_(D - e_h), h = tau_d^-1 g, onto it by another
image of F; the two differ by rho in the stabilizer of F, which permutes tied
sets.  A tie at degree 0 acts trivially, since no variable of those sets
occurs.  Otherwise rho is a product of transpositions t of adjacent tied
sets, and ``_koszul_component`` computes the matrix of each t on Q_F (its
``swaps``) as it computes the ``action``: it reduces t(v) (x) t(b) in the
relation basis for each standard column v (x) b, with t(b) written over the
stored basis by the frame change of the shell below.  This is sound because
the relation span is t-stable: it is the kernel of the map v (x) b -> [v b]
from the border onto Q_F, which commutes with t.  The transported mult[v] is Q_D's mult[tau^-1 v]
times the frame change of its source, and origins[s] is the frame image of
Q_D's origin: a basis index where that image is a unit vector, else a
column, so that mult[labels[s]] sends origins[s] to the unit vector of s.

Characters.  The Frobenius series needs the character of each component:
the trace of every cycle type.  S_n acts on Q_d by automorphisms, so over
the stored basis the matrices satisfy A_a A_b = A_(a b), and a character is
a class function, so tr(A_a A_b) is the character at the cycle type of the
composition a b (J.-P. Serre, Linear Representations of Finite Groups,
1977, section 2).  ``snchar.trace_plan`` names a set G of cycle types and,
for every other non-identity type, a pair (a, b) from G whose class
representatives compose to a permutation of that type; it finds each pair
by composing the two representatives, and adds a type to G until every
type is named, so G covers every class by construction.  The scan keeps
the matrices of G's representatives alone, for the shell above to read and
for alphabet symmetry to share; a component reads their traces off their
diagonals, and each other type's trace off the product: the sum over q and
r of A_a[q][r] A_b[r][q].  Every entry is a rational number with its
denominator and the sum is exact (``_combine``).  The value is the trace of
a rational matrix of finite order, a sum of roots of unity, so it is a
rational algebraic integer, an integer: a sum with a denominator left is a
bug and is refused, never rounded.
"""

from __future__ import annotations

import json
import os
from functools import cache
from itertools import islice
from math import gcd, lcm

from . import snchar, superring
from .exactla import SubspaceBasis
from .qcombinat import Partition, partition_counts, partition_sort_key, partitions_of
from .superschur import QUPoly, expand_super_schur, expansion_tableau_bound

__all__ = [
    "CeilingExceeded",
    "Multidegree",
    "FrobeniusSeries",
    "CoeffTable",
    "IdealComponentCache",
    "frobenius_series",
    "hilbert_series",
    "hilbert_from_json",
    "coeff_table",
    "quotient_shells",
    "shell_multidegrees",
]

Multidegree = tuple  # (r, s): k bosonic degrees, j fermionic degrees

DEFAULT_CEILING = 50_000

# version of the cache file layout; files of any other version are refused
CACHE_FORMAT = 4


class CeilingExceeded(RuntimeError):
    """A cost over the resource ceiling, found before the work starts.

    ``deg`` is the multidegree whose space is too large, or None for a cost
    that belongs to no multidegree.  With ``at_least`` the cost is ``dim`` or
    more: a lower bound that already passes the ceiling.
    """

    def __init__(
        self,
        deg: Multidegree | None,
        dim: int,
        limit: int,
        space: str,
        unit: str = "columns",
        at_least: bool = False,
    ):
        self.deg = deg
        self.dim = dim
        self.limit = limit
        if deg is not None:
            space = f"{space} at multidegree r={list(deg[0])} s={list(deg[1])}"
        count = f"at least {dim}" if at_least else dim
        super().__init__(f"{space} has {count} {unit}, exceeding the ceiling of {limit}")


def _mu_key(mu: Partition) -> str:
    return json.dumps(list(mu), separators=(",", ":"))


def _mu_from_key(key: str, n: int) -> Partition:
    """The shape a multiplicity key names, when it is a partition of n."""
    return _shape(json.loads(key), n, key)


def _shape(parts, n: int | None, name: str) -> Partition:
    """The list parts as a partition, when it is one (of n, unless n is None)."""
    # checked part by part: listing the partitions of a large n costs memory
    positive = type(parts) is list and all(type(p) is int and p > 0 for p in parts)
    if not positive or parts != sorted(parts, reverse=True) or (n is not None and sum(parts) != n):
        size = "" if n is None else f" of {n}"
        raise ValueError(f"{name} is not a partition{size}")
    return tuple(parts)


class FrobeniusSeries:
    """Multigraded Frobenius series: multidegree -> irreducible multiplicities."""

    def __init__(self, n: int, k: int, j: int, components: dict | None = None):
        self.n, self.k, self.j = n, k, j
        self.components = {} if components is None else components

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
            # descending, as partitions of one n are listed (``partitions_of``)
            rec = {
                "deg": {"r": list(r), "s": list(s)},
                "mults": {
                    _mu_key(mu): mults[mu] for mu in sorted(mults, reverse=True) if mults[mu]
                },
            }
            comps.append(rec)
        return {"n": self.n, "k": self.k, "j": self.j, "components": comps}

    @classmethod
    def from_json(cls, data: dict) -> "FrobeniusSeries":
        """The series of an artifact, once every degree and count is checked against its ring."""
        series = cls(*_check_sizes(data, "n", "k", "j"))
        for rec in data["components"]:
            r, s = rec["deg"]["r"], rec["deg"]["s"]
            _check_degree(r, series.k)
            _check_degree(s, series.j)
            if (tuple(r), tuple(s)) in series.components:
                raise ValueError(f"degree r={r} s={s} is listed twice")
            mults = {}
            for key, c in rec["mults"].items():
                mu = _mu_from_key(key, series.n)
                _check_count(c)
                if mu in mults:
                    raise ValueError(f"shape {list(mu)} is listed twice at r={r} s={s}")
                mults[mu] = c
            series.components[(tuple(r), tuple(s))] = mults
        return series


def hilbert_from_json(data: dict) -> QUPoly:
    """The Hilbert series of an artifact {"n", "k", "j", "hilbert"}, every dimension positive."""
    k, j, _n = _check_sizes(data, "k", "j", "n")
    seen = set()
    for rec in data["hilbert"]:
        # written as a decimal string; int() would truncate a float
        c = rec["c"]
        _check_count(int(c) if type(c) is str else c)
        _check_degree(rec["e"], k + j, "exponent")
        if tuple(rec["e"]) in seen:
            raise ValueError(f"exponent {rec['e']} is listed twice")
        seen.add(tuple(rec["e"]))
    return QUPoly.from_json(k, j, data["hilbert"])


class CoeffTable:
    """Universal coefficients extracted from one ring: (lambda, mu) -> c."""

    def __init__(self, n: int, source: tuple, entries: dict | None = None):
        self.n = n
        self.source = source
        self.entries = {} if entries is None else entries

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
        """The table of an artifact, once its source and every entry are checked."""
        (n,) = _check_sizes(data, "n")
        source = data["source"]
        _check_degree(source, 2, "source")
        table = cls(n, tuple(source))
        for rec in data["entries"]:
            lam = _shape(rec["lambda"], None, f"lambda {rec['lambda']!r}")
            mu = _shape(rec["mu"], n, f"mu {rec['mu']!r}")
            _check_count(rec["c"], "coefficient")
            if (lam, mu) in table.entries:
                raise ValueError(f"lambda {list(lam)} mu {list(mu)} is listed twice")
            table.entries[(lam, mu)] = rec["c"]
        return table


class IdealComponentCache:
    """One ring's store: its series and coefficient table, in memory and on disk.

    ``frobenius``, ``hilbert`` and ``table`` each return the value held in
    memory, else the series stored in the cache directory, else a scan's.
    A Hilbert request is also served by a held or stored Frobenius series,
    through its dimensions.  With a cache directory, every series not read
    from its own file is written to one, so a later store of the ring reads
    it instead of computing.  Tables stay in memory.  (The name predates the
    quotient side; the benchmark's tracer looks the class up by it.)
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
        self._held: dict = {}  # "frobenius", "hilbert" or "table" -> its value

    def frobenius(self) -> FrobeniusSeries:
        """Multigraded Frobenius series, scanning shells until the quotient dies."""
        if "frobenius" not in self._held:
            series = self._load("frobenius")
            if series is None:
                series = _frobenius_scan(self)
                self._write("frobenius", series)
            self._held["frobenius"] = series
        return self._held["frobenius"]

    def hilbert(self) -> QUPoly:
        """Multigraded Hilbert series; a scan for it does no character work.

        The disk is read only without a held Frobenius series: the Hilbert
        file first, then the Frobenius file.
        """
        if "hilbert" not in self._held:
            series = self._held.get("frobenius")
            hilbert = self._load("hilbert") if series is None else None
            if hilbert is None:
                if series is None:
                    series = self._load("frobenius")
                hilbert = _hilbert_scan(self) if series is None else series.hilbert()
                self._write("hilbert", hilbert)
            self._held["hilbert"] = hilbert
        return self._held["hilbert"]

    def table(self) -> CoeffTable:
        """The coefficient table of the Frobenius series, up to its top degree."""
        if "table" not in self._held:
            self._held["table"] = coeff_table(self.frobenius(), ceiling=self.ceiling)
        return self._held["table"]

    # -- disk layer ----------------------------------------------------------

    def _path(self, kind: str) -> str:
        return os.path.join(self.cache_dir, f"{kind}_n{self.n}_k{self.k}_j{self.j}.json")

    def _save(self, kind: str, value) -> None:
        """Write a finished series: the ``compute`` artifact plus format, kind and digest."""
        path = self._path(kind)
        if os.path.exists(path):
            return
        if kind == "frobenius":
            body = value.to_json()
        else:
            body = {"n": self.n, "k": self.k, "j": self.j, "hilbert": value.to_json()}
        text = json.dumps({"format": CACHE_FORMAT, "kind": kind, **body})
        # the digest goes last, so the text of every other field is written as hashed
        text = f'{text[:-1]}, "sha256": "{_digest(text)}"}}'
        os.makedirs(self.cache_dir, exist_ok=True)
        # one temporary file per process: separate commands that share one
        # cache directory may write the same series at once
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)

    def _write(self, kind: str, value) -> None:
        """Store a series not read from its file, when there is a cache directory."""
        if self.cache_dir is not None:
            self._save(kind, value)

    def _load(self, kind: str):
        """The stored series of this kind, None when there is none; ValueError when damaged."""
        if self.cache_dir is None:
            return None
        path = self._path(kind)
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
        expected = {"kind": kind, "n": self.n, "k": self.k, "j": self.j}
        for key, want in expected.items():
            if payload.get(key) != want:
                raise ValueError(
                    f"cache file {path} does not match the request: "
                    f"{key} is {payload.get(key)!r}, expected {want!r}"
                )
        # the header matches: now the content must be what was written
        if payload.pop("sha256", None) != _digest(json.dumps(payload)):
            raise ValueError(f"corrupt cache file {path}: content does not match its SHA-256")
        # and it must be a series of this ring, even under a recomputed digest
        read = FrobeniusSeries.from_json if kind == "frobenius" else hilbert_from_json
        try:
            return read(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt cache file {path}: {exc!r}") from exc


def _check_sizes(data: dict, *names) -> list:
    """The named sizes of an artifact, in order, once each is a nonnegative integer."""
    sizes = [data[name] for name in names]
    for name, value in zip(names, sizes):
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} {value!r} is not a nonnegative integer")
    return sizes


def _check_degree(exps, arity: int, what: str = "degree") -> None:
    if type(exps) is not list or len(exps) != arity or not all(
        type(e) is int and e >= 0 for e in exps
    ):
        raise ValueError(f"{what} {exps!r} is not {arity} nonnegative integers")


def _check_count(c, what: str = "multiplicity") -> None:
    if type(c) is not int or c < 1:
        raise ValueError(f"{what} {c!r} is not a positive integer")


def _digest(text: str) -> str:
    """SHA-256 of a cache file's content, ``text`` the JSON text of every other field."""
    # the interpreter's own SHA-256, imported here: only cache files need it,
    # and ``hashlib`` loads OpenSSL, several milliseconds of every start-up
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


# Names the benchmark's tracer (perfbench/tracer.py) still looks up.  No code
# path reaches them since the ideal side moved to the test oracles; ROADMAP N3
# retires the tracer's patches, and these names with them.
ideal_component = _shifted_vectors = quotient_character = None


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


class _QuotientComponent:
    """One quotient component, in coordinates 0..dim-1 of a fixed basis.

    ``mult`` maps each variable v = set * n + position to the matrix of
    multiplication by v from the component one degree lower in v's set;
    ``action`` maps each cycle type the trace plan keeps to the matrix of its
    class representative, and ``traces`` maps every cycle type the plan
    names to its trace (Characters in the module docstring; the identity is
    in neither: its trace is ``dim``).  Components carried by alphabet symmetry
    share both dicts with their dominant one, so neither is ever mutated.
    A matrix is a list of columns, one per source basis element, and a column
    is a pair (integer vector, positive denominator).  ``labels`` holds one
    variable u per basis element s with s = [u b] (the chain criterion of the
    module docstring), ``origins`` that b in the component one lower in u's
    set: a basis index, or a column where b is no basis element, so that
    ``mult[labels[s]]`` sends ``origins[s]`` to the unit vector of s.
    ``source_labels`` maps each set to the labels of the component one lower
    in that set, the source of its ``mult`` matrices.  ``powers`` holds the
    column of each class [m_p(d)], p = 0..n-1, on a component with |d| <= n
    and every s_c <= 1, for the lift of P on the shell above; it is empty
    elsewhere.  ``swaps`` maps each i whose sets i and i + 1 have one parity
    and one positive degree to the matrix of the automorphism exchanging
    them; frame changes read it on dominant components alone (alphabet
    symmetry in the module docstring), so other components leave it empty.
    """

    __slots__ = (
        "dim", "mult", "action", "traces", "labels", "origins", "source_labels", "powers", "swaps"
    )

    def __init__(self, dim, mult, action, traces, labels, origins, source_labels, powers, swaps):
        self.dim = dim
        self.mult = mult
        self.action = action
        self.traces = traces
        self.labels = labels
        self.origins = origins
        self.source_labels = source_labels
        self.powers = powers
        self.swaps = swaps


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


@cache
def _sorting(deg: Multidegree, k: int) -> tuple:
    """(D, tau): D the dominant representative of deg, tau the stable sort with tau(D) = deg.

    tau[g] is the set of deg that set g of D goes to; bosonic and fermionic
    sets are sorted apart, each into decreasing degree.
    """
    r, s = deg
    flat = r + s
    tau = tuple(sorted(range(k), key=lambda g: -flat[g]))
    tau += tuple(sorted(range(k, len(flat)), key=lambda g: -flat[g]))
    dom = tuple(flat[g] for g in tau)
    return (dom[:k], dom[k:]), tau


def _frame(below: dict, k: int, src: Multidegree, dst: Multidegree, perm) -> tuple:
    """(swaps, word): the set permutation perm, taking src to dst, on stored bases.

    Both components are stored as images of their dominant F, the basis of
    Q_c being tau_c of F's.  So perm sends tau_src(b) to tau_dst(rho(b)),
    rho = tau_dst^-1 perm tau_src in the stabilizer of F, and its matrix is
    that of rho on Q_F: the product of F's ``swaps``, applied to a column in
    ``word`` order (``_framed``).  Sets of degree 0 in F act trivially.
    """
    dom, to_src = _sorting(src, k)
    back = {g: i for i, g in enumerate(_sorting(dst, k)[1])}
    flat = dom[0] + dom[1]
    rho = [back[perm[to_src[i]]] if flat[i] else i for i in range(len(flat))]
    # bubble sort: swapping a descent i makes rho <- rho t_i, so at the end
    # rho = t_(last) ... t_(first), each t_i inside a block of tied sets
    word = []
    unsorted = True
    while unsorted:
        unsorted = False
        for i in range(len(rho) - 1):
            if rho[i] > rho[i + 1]:
                rho[i], rho[i + 1] = rho[i + 1], rho[i]
                word.append(i)
                unsorted = True
    return below[dom].swaps, word


def _framed(swaps: dict, word, b: int):
    """The swaps of ``word`` applied in turn to basis element b, as a column."""
    col = ({b: 1}, 1)
    for i in word:
        col = _apply(swaps[i], col)
    return col


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


def _standard_coordinates(basis: SubspaceBasis) -> dict:
    """Non-pivot coordinate -> its place among the non-pivot coordinates."""
    pivots = set(basis.pivots)
    return {c: q for q, c in enumerate(c for c in range(basis.dim) if c not in pivots)}


def _class_of(basis: SubspaceBasis, vec: dict, where: dict, den: int = 1):
    """The class of vec / den modulo span(basis), as a column in quotient coordinates."""
    w, scale = basis.scaled_residual(vec)
    den *= scale
    g = gcd(den, *w.values())
    return {where[i]: v // g for i, v in w.items()}, den // g


def _trace(terms, rho: Partition, deg: Multidegree) -> int:
    """The sum of c / den over the terms (c, den), which must be an integer."""
    one = {0: 1}
    total, den = _combine([(c, (one, den)) for c, den in terms])
    if den != 1:
        raise AssertionError(f"non-integral trace of {rho} at multidegree {deg}")
    return total.get(0, 0)


def _koszul_component(cache, deg: Multidegree, below: dict, plan):
    """A quotient component of positive degree, from the quotient shell below it.

    Q_deg is the border space (the sum over variables v of v (x) Q_(deg-e_v))
    modulo the super-Koszul relations of the module docstring, of which only
    those the chain criterion keeps are offered, and the lift of P_deg; its
    basis is the non-pivot border columns of that span.  With a ``plan``
    (sigmas, pairs) of ``snchar.trace_plan``, the component holds the matrix
    and the trace of each class representative in sigmas, and the trace of
    each cycle type of pairs, read off the product of two of those matrices
    (Characters in the module docstring); None asks for no character work.
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
    pending = []  # every row offered, inserted below
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
                at_v = offset[v]
                for q in range(p if h == g else 0, n):
                    w = h * n + q
                    if v == w:
                        if g < k:
                            continue
                        # v (x) [v s] for odd v
                        for (x, _dx), u in zip(into_g[v], labels):
                            if x and u >= v:
                                pending.append({at_v + i: c for i, c in x.items()})
                        continue
                    at_w = offset[w]
                    for (x, dx), (y, dy), u in zip(into_g[w], into_h[v], labels):
                        # the chain criterion: rows with label(s) < v are redundant
                        if u < v or not (x or y):
                            continue
                        d = gcd(dx, dy)
                        a, b = dy // d, sign * (dx // d)
                        row = {at_v + i: a * c for i, c in x.items()}
                        row.update({at_w + i: b * c for i, c in y.items()})
                        pending.append(row)
    # the one-position monomials m_p(deg) = u_p * m_p(deg - e_g), g the first
    # set of positive degree, as border vectors; their sum is the lift of P
    ones = []
    if sum(deg[0]) + sum(deg[1]) <= n and max(deg[1], default=0) <= 1:
        g = min(preds)
        for p, (x, dx) in enumerate(below[preds[g]].powers):
            ones.append(({offset[g * n + p] + i: c for i, c in x.items()}, dx))
        den = lcm(*(dx for _x, dx in ones))
        pending.append({i: c * (den // dx) for x, dx in ones for i, c in x.items()})
    # by descending least column: a new pivot then nearly always lies left of
    # every stored one, and ``insert`` clears it from no stored row; taken off
    # the end of an ascending sort, each row is freed once inserted
    pending.sort(key=min)
    rel = SubspaceBasis(ncols)
    while pending:
        rel.insert(pending.pop())
    where = _standard_coordinates(rel)
    mult = {}
    # a standard column v (x) b is the basis element [v b]: its label is the
    # variable of its block, its origin b
    own, origins = [], []
    for v, off in offset.items():
        cols = []
        for col in range(off, off + below[preds[v // n]].dim):
            if col in where:
                cols.append(({where[col]: 1}, 1))
                own.append(v)
                origins.append(col - off)
            else:
                row = rel.row(col)
                cols.append(({where[i]: -c for i, c in row.items() if i != col}, row[col]))
        mult[v] = cols
    action, traces = {}, {}

    def represent(move, image_of):
        """The matrix of an automorphism of Q_deg, column q the image of basis element q.

        It sends the standard column v (x) b to move(v) (x) image_of(g, b), g
        the set of v, as a column over the basis of Q_(deg - e_(set of move(v))).
        """
        cols = []
        for v, b in zip(own, origins):  # the standard columns v (x) b, in basis order
            image = offset[move(v)]
            x, dx = image_of(v // n, b)
            cols.append(_class_of(rel, {image + i: c for i, c in x.items()}, where, dx))
        return cols

    sigmas, pairs = plan or ({}, {})
    for rho, sigma in sigmas.items():
        below_action = {g: below[pred].action[rho] for g, pred in preds.items()}
        action[rho] = represent(
            lambda v: v - v % n + sigma[v % n], lambda g, b: below_action[g][b]
        )
        diagonal = [(x[q], dx) for q, (x, dx) in enumerate(action[rho]) if q in x]
        traces[rho] = _trace(diagonal, rho, deg)
    for rho, (a, b) in pairs.items():
        # tr(A B) = sum over q, r of A[q][r] B[r][q], with A[q][r] = x_r[q] / dx_r
        # read off A's column r and B[r][q] = y_q[r] / dy_q off B's column q
        first = action[a]
        products = []
        for q, (y, dy) in enumerate(action[b]):
            for r, c in y.items():
                x, dx = first[r]
                if q in x:
                    products.append((c * x[q], dx * dy))
        traces[rho] = _trace(products, rho, deg)
    swaps = {}
    flat = deg[0] + deg[1]
    for i in range(len(flat) - 1):
        if i == k - 1 or not flat[i] or flat[i] != flat[i + 1]:
            continue
        t = list(range(len(flat)))
        t[i], t[i + 1] = i + 1, i
        frames = {g: _frame(below, k, pred, preds[t[g]], t) for g, pred in preds.items()}
        swaps[i] = represent(
            lambda v: t[v // n] * n + v % n, lambda g, b: _framed(*frames[g], b)
        )
    sources = {g: below[pred].labels for g, pred in preds.items()}
    powers = [_class_of(rel, x, where, dx) for x, dx in ones]
    return _QuotientComponent(
        len(where), mult, action, traces, own, origins, sources, powers, swaps
    )


def _transport(cache, comp: _QuotientComponent, deg: Multidegree, below: dict):
    """Q_deg as the tau-image of its dominant component comp, with no elimination.

    tau is the stable sort of ``_sorting`` and the basis of Q_deg the image
    of comp's.  The ``action`` matrices, traces and ``powers`` are comp's
    (no sign: see the module docstring); the labels are moved by tau, each
    multiplication matrix is comp's times the frame change of its source
    (``_frame``), and each origin the frame image of comp's.
    """
    n, k = cache.n, cache.k
    dom, tau = _sorting(deg, k)
    back = sorted(range(len(tau)), key=tau.__getitem__)  # tau^-1
    lower, preds = _predecessors(dom, k), _predecessors(deg, k)
    mult, frames = {}, {}
    for g, pred in preds.items():
        h = back[g]
        # tau^-1 from the stored basis of Q_pred to that of Q_(dom - e_h)
        swaps, word = frames[h] = _frame(below, k, pred, lower[h], back)
        change = [_framed(swaps, word, b) for b in range(below[pred].dim)] if word else None
        for p in range(n):
            src = comp.mult[h * n + p]
            mult[g * n + p] = src if change is None else [_apply(src, x) for x in change]
    origins = []
    for u, b in zip(comp.labels, comp.origins):
        swaps, word = frames[u // n]
        if word:
            # tau on b: the inverse of the frame change above
            b = _framed(swaps, word[::-1], b)
            if b[1] == 1 and len(b[0]) == 1 and 1 in b[0].values():
                b = next(iter(b[0]))
        origins.append(b)
    labels = [tau[u // n] * n + u % n for u in comp.labels]
    sources = {g: below[pred].labels for g, pred in preds.items()}
    powers = comp.powers
    return _QuotientComponent(
        comp.dim, mult, comp.action, comp.traces, labels, origins, sources, powers, {}
    )


def _series_scan(cache: IdealComponentCache, plan=None):
    """Yield the quotient shells from degree 0 until the first all-zero shell.

    A shell maps each multidegree of its total degree, in
    ``shell_multidegrees`` order, to its quotient component, which carries
    the matrices and traces a ``plan`` (sigmas, pairs) of
    ``snchar.trace_plan`` names (see ``_koszul_component``), or none without
    one.  Every shell of positive degree comes from the one below it
    on the quotient side, starting from Q_0 = span{1}:
    ``_koszul_component`` builds its dominant components, ``_transport``
    carries them to the others, so the scan itself holds only two shells at
    a time.  Termination at the first empty shell is valid because the
    quotient ring is generated by 1: every higher component is a variable
    multiple of the previous shell.
    """
    n, k, j = cache.n, cache.k, cache.j
    sigmas, pairs = plan or ({}, {})
    zero = ((0,) * k, (0,) * j)
    # shell 1 first: its borders have n columns each, so a ring too large to
    # scan is refused before Q_0's n powers are built
    _border_guard(cache, shell_multidegrees(n, k, j, 1), {zero: 1})
    unit = [({0: 1}, 1)]
    one = _QuotientComponent(
        dim=1,
        mult={},
        action=dict.fromkeys(sigmas, unit),
        traces=dict.fromkeys([*sigmas, *pairs], 1),
        # above every variable, so no relation on the unit is ever skipped
        labels=[(k + j) * n],
        origins=[None],  # 1 is no variable multiple
        source_labels={},
        powers=unit * n if k + j else [],  # with no variables no shell reads them
        swaps={},
    )
    below = {zero: one}
    yield below
    total = 1
    while True:
        degs = shell_multidegrees(n, k, j, total)
        _border_guard(cache, degs, {deg: comp.dim for deg, comp in below.items()})
        built = {
            deg: _koszul_component(cache, deg, below, plan)
            for deg in degs
            if _sorting(deg, k)[0] == deg
        }
        shell = {}
        for deg in degs:
            dom = _sorting(deg, k)[0]
            shell[deg] = built[deg] if dom == deg else _transport(cache, built[dom], deg, below)
        if not any(comp.dim for comp in shell.values()):
            return
        yield shell
        below = shell
        total += 1


def _border_guard(cache: IdealComponentCache, degs: list, dims: dict) -> None:
    """Refuse the first of ``degs``, in scan order, whose quotient border passes the ceiling.

    The border of deg has n columns per basis element of each predecessor
    of deg; ``dims`` maps each multidegree of the shell below to its dim.
    """
    for deg in degs:
        ncols = cache.n * sum(dims[pred] for pred in _predecessors(deg, cache.k).values())
        if ncols > cache.ceiling:
            raise CeilingExceeded(deg, ncols, cache.ceiling, "quotient border")


def quotient_shells(cache: IdealComponentCache):
    """An iterator over the quotient shells of total degree 0..n, fewer when Q dies below n.

    The shells of ``_series_scan``, with no character work; the scan holds
    two at a time, and so does this.
    """
    return islice(_series_scan(cache), cache.n + 1)


def _frobenius_scan(cache: IdealComponentCache) -> FrobeniusSeries:
    """The Frobenius series: each nonzero component's traces, decomposed."""
    n = cache.n
    # decomposing reads the p(n)^2 values of the character table of S_n;
    # counting p(n) takes O(n^2) steps, so a table whose lower bound n^2
    # (p(n) >= n for n >= 1) already passes the ceiling is refused uncounted
    where = f"the character table of S_{n}"
    if n * n > cache.ceiling:
        raise CeilingExceeded(None, n * n, cache.ceiling, where, "character values", True)
    values = partition_counts(n, n)[n] ** 2
    if values > cache.ceiling:
        raise CeilingExceeded(None, values, cache.ceiling, where, "character values")
    identity = (1,) * n
    series = FrobeniusSeries(n, cache.k, cache.j)
    for shell in _series_scan(cache, snchar.trace_plan(n)):
        for deg, comp in shell.items():
            if not comp.dim:
                continue
            mults = snchar.frobenius_decompose({**comp.traces, identity: comp.dim}, n)
            mults = {mu: c for mu, c in mults.items() if c}
            for mu, c in mults.items():
                if c < 0:
                    raise AssertionError(f"negative multiplicity {c} at {deg}, mu={mu}")
            series.components[deg] = mults
    return series


def _hilbert_scan(cache: IdealComponentCache) -> QUPoly:
    """The Hilbert series: each component's dimension, with no traces."""
    out = {}
    for shell in _series_scan(cache):
        for (r, s), comp in shell.items():
            if comp.dim:
                out[r + s] = comp.dim
    return QUPoly(cache.k, cache.j, out)


def frobenius_series(n: int, k: int, j: int, ceiling: int = DEFAULT_CEILING) -> FrobeniusSeries:
    """Multigraded Frobenius series of one ring, with no cache directory."""
    return IdealComponentCache(n, k, j, ceiling).frobenius()


def hilbert_series(n: int, k: int, j: int, ceiling: int = DEFAULT_CEILING) -> QUPoly:
    """Multigraded Hilbert series of one ring, with no cache directory."""
    return IdealComponentCache(n, k, j, ceiling).hilbert()


def coeff_table(series: FrobeniusSeries, ceiling: int = DEFAULT_CEILING) -> CoeffTable:
    """Expand every irreducible's coefficient polynomial in super Schurs.

    The table determines c for every shape in P(k,j,n); shapes beyond the
    series' top degree are zero and stored implicitly.  An expansion whose
    tableau count exceeds ``ceiling`` is refused before it starts.
    """
    n, k, j = series.n, series.k, series.j
    top = series.max_total_degree()
    tableaux = expansion_tableau_bound(k, j, n, top)
    if tableaux > ceiling:
        where = f"the super Schur expansion at k={k} j={j} n={n} degree {top}"
        raise CeilingExceeded(None, tableaux, ceiling, where, "tableaux")
    table = CoeffTable(n, (k, j))
    for mu in partitions_of(n):
        poly = series.mu_polynomial(mu)
        if poly.is_zero():
            continue
        expansion = expand_super_schur(poly, k, j, n)
        for lam, c in expansion.items():
            if c:
                table.entries[(lam, mu)] = c
    return table
