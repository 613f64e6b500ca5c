import hashlib
import json
import re
import sys

import pytest

from supercoinv import coinvariant
from supercoinv.coinvariant import (
    CeilingExceeded,
    CoeffTable,
    FrobeniusSeries,
    IdealComponentCache,
    coeff_table,
    frobenius_series,
    hilbert_series,
    shell_multidegrees,
)
from supercoinv.qcombinat import partitions_of, q_factorial
from supercoinv.snchar import class_representative
from supercoinv.superschur import QUPoly

from oracles import (
    ideal_component,
    in_span,
    invariant_basis,
    mono_mul,
    monomial_space,
    permutation_action,
    quotient_character,
    rows_of,
)


def _scanned_degrees(series):
    """Every multidegree a series scan passes: the shells up to one past its top."""
    n, k, j = series.n, series.k, series.j
    top = series.max_total_degree()
    return [d for total in range(top + 2) for d in sorted(shell_multidegrees(n, k, j, total))]


# The ideal side (``ideal_component``, ``quotient_character``) is the test
# oracle's monomial model; the engine builds no ideal component.


def test_ideal_component_degree_zero_empty():
    assert ideal_component(3, 1, 1, ((0,), (0,))).rank == 0


def test_ideal_component_linear_bosonic():
    basis = ideal_component(2, 1, 0, ((1,), ()))
    assert basis.rank == 1
    assert rows_of(basis)[0] == {0: 1, 1: 1}


def test_ideal_component_artin_codimension():
    # single bosonic alphabet at degree 3: codimension is the [3] coefficient
    basis = ideal_component(3, 1, 0, ((3,), ()))
    monos, _ = monomial_space(3, 1, 0, (3,), ())
    assert len(monos) - basis.rank == q_factorial(3).coeff((3,))


def test_quotient_character_constants():
    for rho in partitions_of(3):
        assert quotient_character(3, 1, 1, ((0,), (0,)), rho) == 1


def test_quotient_character_standard_line():
    deg = ((1,), ())
    assert quotient_character(2, 1, 0, deg, (1, 1)) == 1
    assert quotient_character(2, 1, 0, deg, (2,)) == -1


def test_quotient_character_fermionic_standard():
    deg = ((), (1,))
    values = {rho: quotient_character(3, 0, 1, deg, rho) for rho in partitions_of(3)}
    assert values == {(1, 1, 1): 2, (2, 1): 0, (3,): -1}


def test_quotient_character_checked_small():
    # every ideal component is S_n-stable: each permuted basis vector lies in it
    for (n, k, j) in [(2, 1, 1), (3, 1, 1), (3, 0, 2), (3, 2, 0)]:
        series = frobenius_series(n, k, j)
        for deg in _scanned_degrees(series):
            basis = ideal_component(n, k, j, deg)
            for rho in partitions_of(n):
                signs, targets = permutation_action(n, k, j, *deg, class_representative(rho))
                for row in rows_of(basis):
                    image = {targets[i]: signs[i] * v for i, v in row.items()}
                    assert in_span(basis, image), (n, k, j, deg, rho)


def test_ambient_trace_identity_is_dimension():
    for deg in [((2,), (1,)), ((0,), (2,)), ((3,), (0,))]:
        monos, _ = monomial_space(3, 1, 1, *deg)
        signs, targets = permutation_action(3, 1, 1, *deg, (0, 1, 2))
        trace = sum(sign for idx, (sign, tgt) in enumerate(zip(signs, targets)) if tgt == idx)
        assert trace == len(monos)


def test_frobenius_series_smallest_mixed():
    series = frobenius_series(2, 1, 1)
    assert series.components == {
        ((0,), (0,)): {(2,): 1},
        ((1,), (0,)): {(1, 1): 1},
        ((0,), (1,)): {(1, 1): 1},
    }
    assert series.hilbert() == QUPoly(1, 1, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def test_frobenius_series_artin_and_exterior():
    artin = frobenius_series(3, 1, 0)
    hilb = artin.hilbert()
    assert hilb == q_factorial(3)
    ext = frobenius_series(3, 0, 1)
    assert ext.components == {
        ((), (0,)): {(3,): 1},
        ((), (1,)): {(2, 1): 1},
        ((), (2,)): {(1, 1, 1): 1},
    }


def test_frobenius_nonnegative_and_dim_consistency():
    for (n, k, j) in [(3, 1, 1), (4, 0, 2), (3, 2, 0)]:
        series = frobenius_series(n, k, j)
        for deg, mults in series.components.items():
            assert all(c > 0 for c in mults.values())
            basis = ideal_component(n, k, j, deg)
            monos, _ = monomial_space(n, k, j, *deg)
            dim = len(monos) - basis.rank
            from supercoinv.snchar import syt_count

            assert dim == sum(c * syt_count(mu) for mu, c in mults.items())


def test_hilbert_series_shortcut_matches_frobenius():
    for (n, k, j) in [(3, 1, 1), (4, 1, 0), (3, 0, 2)]:
        assert hilbert_series(n, k, j) == frobenius_series(n, k, j).hilbert()


def test_hilbert_examples():
    h = hilbert_series(4, 1, 0)
    assert h == q_factorial(4)
    h = hilbert_series(3, 1, 1)
    # u^2 + (1+q)(2+q) u + (1+q)(1+q+q^2)
    want = QUPoly(
        1,
        1,
        {
            (0, 2): 1,
            (0, 1): 2,
            (1, 1): 3,
            (2, 1): 1,
            (0, 0): 1,
            (1, 0): 2,
            (2, 0): 2,
            (3, 0): 1,
        },
    )
    assert h == want
    assert hilbert_series(2, 2, 0).evaluate((1, 1)) == 3


def test_trivial_alphabets():
    series = frobenius_series(3, 0, 0)
    assert series.components == {((), ()): {(3,): 1}}
    assert hilbert_series(3, 0, 0) == QUPoly.one(0, 0)


def test_coeff_table_values():
    table = coeff_table(frobenius_series(3, 1, 1))
    assert table.coeff((), (3,)) == 1
    assert table.coeff((1, 1), (1, 1, 1)) == 1
    assert table.coeff((3,), (1, 1, 1)) == 1
    assert table.coeff((2,), (1, 1, 1)) == 0
    # the column shape at the sign character is visible in any ring whose
    # index set admits it: (1,0) only for n=2, (0,1) for every n
    t = coeff_table(frobenius_series(2, 1, 0))
    assert t.coeff((1,), (1, 1)) == 1
    for n in (3, 4):
        t = coeff_table(frobenius_series(n, 0, 1))
        assert t.coeff((1,) * (n - 1), (1,) * n) == 1


def test_coeff_table_constant_coefficient():
    for (n, k, j) in [(2, 1, 1), (3, 0, 2), (3, 2, 0)]:
        table = coeff_table(frobenius_series(n, k, j))
        assert table.coeff((), (n,)) == 1


def test_frobenius_json_roundtrip():
    series = frobenius_series(3, 1, 1)
    data = json.loads(json.dumps(series.to_json()))
    assert FrobeniusSeries.from_json(data).components == series.components


@pytest.mark.parametrize("key", ["[29,31]", "[60,0]", "[59]", "[true,59]"])
def test_frobenius_reader_checks_a_shape_without_listing_partitions(key, monkeypatch):
    # listing the partitions of 60 would hold about a million tuples
    monkeypatch.setattr(coinvariant, "partitions_of", lambda n: pytest.fail("listed"))
    component = {"deg": {"r": [0], "s": []}, "mults": {"[31,29]": 2}}
    data = {"n": 60, "k": 1, "j": 0, "components": [component]}
    assert FrobeniusSeries.from_json(data).components == {((0,), ()): {(31, 29): 2}}
    component["mults"] = {key: 1}
    with pytest.raises(ValueError, match=re.escape(f"{key} is not a partition of 60")):
        FrobeniusSeries.from_json(data)


def test_frobenius_writer_lists_no_partitions(monkeypatch):
    # the shapes written are the component's own, in the descending order
    # partitions_of lists them in
    component = {(1, 1, 1, 1): 1, (3, 1): 2, (4,): 1, (2, 1, 1): 3}
    ordered = {"[4]": 1, "[3,1]": 2, "[2,1,1]": 3, "[1,1,1,1]": 1}
    assert list(ordered) == [coinvariant._mu_key(mu) for mu in partitions_of(4) if mu in component]
    monkeypatch.setattr(coinvariant, "partitions_of", lambda n: pytest.fail("listed"))
    series = FrobeniusSeries(4, 1, 0, {((2,), ()): component})
    assert series.to_json()["components"] == [{"deg": {"r": [2], "s": []}, "mults": ordered}]
    # listing the partitions of 60 would hold about a million tuples
    series = FrobeniusSeries(60, 1, 0, {((0,), ()): {(31, 29): 2}})
    assert series.to_json()["components"] == [{"deg": {"r": [0], "s": []}, "mults": {"[31,29]": 2}}]


def test_coeff_table_json_roundtrip():
    # the reader refuses nothing a table holds: every coefficient is positive
    for n, k, j in [(3, 1, 1), (4, 0, 2), (3, 2, 0), (4, 2, 1)]:
        table = coeff_table(frobenius_series(n, k, j))
        data = json.loads(json.dumps(table.to_json()))
        rebuilt = CoeffTable.from_json(data)
        assert rebuilt.entries == table.entries
        assert rebuilt.n == table.n and rebuilt.source == table.source


def test_disk_cache_roundtrip(tmp_path):
    # what _save writes, _load reads back, for both kinds of series
    series, hilbert = frobenius_series(3, 1, 1), hilbert_series(3, 1, 1)
    cache = IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))
    cache._save("frobenius", series)
    cache._save("hilbert", hilbert)
    fresh = IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))
    assert fresh._load("frobenius").components == series.components
    assert fresh._load("hilbert") == hilbert


def test_eviction_persists_to_disk(tmp_path):
    # a scan writes its finished series, one file per ring and kind
    cache = IdealComponentCache(2, 1, 1, cache_dir=str(tmp_path))
    series = cache.frobenius()
    hilbert = cache.hilbert()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["frobenius_n2_k1_j1.json", "hilbert_n2_k1_j1.json"]
    fresh = IdealComponentCache(2, 1, 1, cache_dir=str(tmp_path))
    assert fresh._load("frobenius").components == series.components
    assert fresh._load("hilbert") == hilbert


def test_every_computed_component_is_persisted(tmp_path, monkeypatch):
    # every series a scan computes is written, so a second run scans nothing
    cache = IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))
    series = cache.frobenius()
    hilbert = cache.hilbert()

    def no_scan(*args, **kwargs):
        raise AssertionError("a series was computed instead of loaded")

    monkeypatch.setattr(coinvariant, "_series_scan", no_scan)
    fresh = IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))
    assert fresh.frobenius().components == series.components
    # a store of its own, so that the Hilbert file is read, not derived
    assert IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path)).hilbert() == hilbert


@pytest.mark.parametrize("n,k,j", [(-1, 1, 0), (3, -1, 0), (3, 1, -2)])
def test_negative_sizes_rejected(n, k, j):
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        IdealComponentCache(n, k, j)
    with pytest.raises(ValueError, match="must be a nonnegative integer"):
        hilbert_series(n, k, j)


def test_ceiling_exceeded_reports_offender():
    cache = IdealComponentCache(4, 2, 0, ceiling=10)
    with pytest.raises(CeilingExceeded) as err:
        cache.hilbert()
    assert err.value.dim > 10
    assert err.value.limit == 10


def test_ceiling_holds_with_a_cache_directory(tmp_path):
    # a store with a cache directory obeys its ceiling and writes nothing
    cache = IdealComponentCache(4, 2, 0, ceiling=10, cache_dir=str(tmp_path))
    with pytest.raises(CeilingExceeded):
        cache.frobenius()
    assert list(tmp_path.iterdir()) == []


def test_coeff_table_refuses_an_expansion_over_the_ceiling(monkeypatch):
    # refused from the tableau count, before the expansion starts
    from supercoinv import coinvariant

    series = frobenius_series(4, 2, 1)
    monkeypatch.setattr(coinvariant, "expand_super_schur", None)
    where = "the super Schur expansion at k=2 j=1 n=4 degree 6 has 217 tableaux"
    with pytest.raises(CeilingExceeded, match=where) as err:
        coeff_table(series, ceiling=200)
    assert (err.value.deg, err.value.dim, err.value.limit) == (None, 217, 200)


def _artin(n):
    return q_factorial(n)


def test_ceiling_bounds_the_quotient_border_not_the_ambient_space():
    # above degree n the scan works on borders of at most 6 * 101 columns,
    # never on the monomial spaces (1 287 columns at degree 8)
    assert hilbert_series(6, 1, 0, ceiling=1000) == _artin(6)


def test_ceiling_exceeded_names_the_quotient_border():
    # degree 7 has the first border above 500: 6 * dim Q_6 = 6 * 90 columns
    with pytest.raises(CeilingExceeded, match="quotient border") as err:
        hilbert_series(6, 1, 0, ceiling=500)
    assert (err.value.deg, err.value.dim, err.value.limit) == (((7,), ()), 540, 500)


def test_disk_cache_refuses_altered_entry_and_other_format(tmp_path):
    IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path)).frobenius()
    path = tmp_path / "frobenius_n3_k1_j1.json"
    written = path.read_text()

    def load(payload):
        path.write_text(json.dumps(payload))
        return IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))._load("frobenius")

    payload = json.loads(written)
    mults = payload["components"][1]["mults"]
    mu = next(iter(mults))
    mults[mu] += 1  # a multiplicity: every header field still matches
    with pytest.raises(ValueError, match="SHA-256") as err:
        load(payload)
    assert str(path) in str(err.value)
    payload = json.loads(written)
    del payload["format"]
    with pytest.raises(ValueError, match="format") as err:
        load(payload)
    assert str(path) in str(err.value)
    # a Hilbert series filed under the Frobenius name
    payload = json.loads(written)
    payload["kind"] = "hilbert"
    with pytest.raises(ValueError, match="kind is 'hilbert', expected 'frobenius'") as err:
        load(payload)
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "term,detail",
    [
        ({"e": [1, 0, 0], "c": "2"}, "2 nonnegative integers"),
        ({"e": [1, 0], "c": "0"}, "0 is not"),
        ({"e": [1, 0], "c": 2.7}, "2.7 is not"),
    ],
    ids=["arity", "zero", "float"],
)
def test_disk_cache_refuses_a_damaged_hilbert_file(tmp_path, term, detail):
    # a content change under a recomputed digest: the header and digest pass
    IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path)).hilbert()
    path = tmp_path / "hilbert_n3_k1_j1.json"
    payload = json.loads(path.read_text())
    del payload["sha256"]
    payload["hilbert"][1] = term
    payload["sha256"] = coinvariant._digest(json.dumps(payload))
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=detail) as err:
        IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))._load("hilbert")
    assert str(path) in str(err.value)


def test_cache_file_roundtrip_by_coordinate(tmp_path):
    # a cache file is the artifact ``compute`` prints, plus its format, its
    # kind and its digest; (3,2,1) has every degree of both alphabets
    cache = IdealComponentCache(3, 2, 1, cache_dir=str(tmp_path))
    hilbert = cache.hilbert().to_json()
    artifacts = {
        "frobenius": cache.frobenius().to_json(),
        "hilbert": {"n": 3, "k": 2, "j": 1, "hilbert": hilbert},
    }
    assert coinvariant.CACHE_FORMAT == 4
    for kind, artifact in artifacts.items():
        payload = json.loads((tmp_path / f"{kind}_n3_k2_j1.json").read_text())
        assert payload.pop("sha256") == coinvariant._digest(json.dumps(payload))
        assert (payload.pop("format"), payload.pop("kind")) == (4, kind)
        assert payload == artifact
        read = IdealComponentCache(3, 2, 1, cache_dir=str(tmp_path))._load(kind)
        assert read.to_json() == (artifact if kind == "frobenius" else artifact["hilbert"])


_DIGEST_PAYLOADS = [
    {},
    {"format": 4, "kind": "hilbert", "n": 3, "k": 1, "j": 0, "hilbert": [{"e": [0], "c": "1"}]},
    {"text": "\u00e9\u03b8", "deep": [[1, 2], {"a": None, "b": 2.5}]},
]


@pytest.mark.parametrize("payload", _DIGEST_PAYLOADS, ids=["empty", "hilbert", "escaped"])
def test_digest_is_the_sha256_of_the_json_text(payload, monkeypatch):
    # hashlib is the oracle; the fallback, with no built-in constructor, agrees
    text = json.dumps(payload)
    want = hashlib.sha256(text.encode()).hexdigest()
    assert coinvariant._digest(text) == want
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert coinvariant._digest(text) == want


# SHA-256 of the bytes of each cache file of (3,1,1) as format 4 writes it
_CACHE_FILE_SHA256 = {
    "frobenius_n3_k1_j1.json": "687e11cb6f3cfcfe5bc3479f1629e0820cf7bf347d653bf35202373984b0bf8d",
    "hilbert_n3_k1_j1.json": "8b8b6199ca218119f158f775166e500cf1986c7c3d5c1acce4ad8fdaa96e0907",
}


def test_cache_files_keep_their_bytes(tmp_path):
    # the digest is spliced into the text it hashes: the bytes are those of
    # dumping the payload with its digest as the last field
    cache = IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))
    cache.frobenius()
    cache.hilbert()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(_CACHE_FILE_SHA256)
    for name, want in _CACHE_FILE_SHA256.items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, name
        payload = json.loads(data)
        digest = payload.pop("sha256")
        assert digest == hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        assert json.dumps({**payload, "sha256": digest}).encode() == data


def test_cache_directory_written_by_hashlib_is_read(tmp_path):
    # files digested through hashlib, as format 4 has always been, are read
    # back with no scan, and give the series they hold
    want = IdealComponentCache(3, 1, 1).frobenius().to_json()
    hilbert = IdealComponentCache(3, 1, 1).hilbert().to_json()
    artifacts = {
        "frobenius": want,
        "hilbert": {"n": 3, "k": 1, "j": 1, "hilbert": hilbert},
    }
    for kind, artifact in artifacts.items():
        payload = {"format": 4, "kind": kind, **artifact}
        payload["sha256"] = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        (tmp_path / f"{kind}_n3_k1_j1.json").write_text(json.dumps(payload))
    cache = IdealComponentCache(3, 1, 1, cache_dir=str(tmp_path))
    assert cache._load("frobenius").to_json() == want
    assert cache._load("hilbert").to_json() == hilbert


def test_quotient_character_rejects_bad_type():
    with pytest.raises(ValueError):
        quotient_character(3, 1, 0, ((1,), ()), (2, 2))


def test_mu_polynomial_extraction():
    series = frobenius_series(3, 1, 1)
    sign = series.mu_polynomial((1, 1, 1))
    assert sign == QUPoly(1, 1, {(3, 0): 1, (1, 1): 1, (2, 1): 1, (0, 2): 1})


def test_invariants_contained_in_ideal():
    # the ideal component contains the invariant component at every
    # positive multidegree, by construction and as a subspace fact
    for (n, k, j) in [(3, 1, 1), (3, 0, 2)]:
        series = frobenius_series(n, k, j)
        for deg in _scanned_degrees(series):
            if sum(deg[0]) + sum(deg[1]) == 0:
                continue
            ideal = ideal_component(n, k, j, deg)
            inv = invariant_basis(n, k, j, *deg)
            for row in rows_of(inv):
                assert in_span(ideal, row), deg


def _literal_ideal_basis(n, k, j, deg):
    # the defining span: products (monomial of multidegree d-e) * (invariant
    # vector of multidegree e) over every componentwise 0 < e <= d; this is
    # the construction the recursion must reproduce exactly
    from itertools import product as iproduct

    from oracles import span_basis

    r, s = deg
    monos, index = monomial_space(n, k, j, r, s)
    vectors = []
    ranges = [range(x + 1) for x in r] + [range(x + 1) for x in s]
    for combo in iproduct(*ranges):
        e_r, e_s = tuple(combo[:k]), tuple(combo[k:])
        if sum(e_r) + sum(e_s) == 0:
            continue
        inv = invariant_basis(n, k, j, e_r, e_s)
        if not rows_of(inv):
            continue
        inv_monos, _ = monomial_space(n, k, j, e_r, e_s)
        rest = (
            tuple(a - b for a, b in zip(r, e_r)),
            tuple(a - b for a, b in zip(s, e_s)),
        )
        rest_monos, _ = monomial_space(n, k, j, *rest)
        for m in rest_monos:
            for row in rows_of(inv):
                vec = {}
                for idx, val in row.items():
                    prod = mono_mul(m, inv_monos[idx])
                    if prod is None:
                        continue
                    sign, m2 = prod
                    vec[index[m2]] = vec.get(index[m2], 0) + sign * val
                vec = {i: v for i, v in vec.items() if v}
                if vec:
                    vectors.append(vec)
    return span_basis(vectors, len(monos))


def test_ideal_matches_literal_definition():
    for (n, k, j) in [(3, 1, 1), (2, 2, 0), (3, 0, 2)]:
        series = frobenius_series(n, k, j)
        for deg in _scanned_degrees(series):
            literal = _literal_ideal_basis(n, k, j, deg)
            recursive = ideal_component(n, k, j, deg)
            assert literal.pivots == recursive.pivots, (n, k, j, deg)
            assert rows_of(literal) == rows_of(recursive), (n, k, j, deg)
