"""Fraction-free bases against the independent rational RREF oracle."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    OracleBasis,
    full_invariant_scan,
    in_span,
    reduced,
    rows_of,
    rref,
    solve_columns,
    span_basis,
)

from supercoinv.coinvariant import FrobeniusSeries, IdealComponentCache
from supercoinv.qcombinat import QUPoly

_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None)

_ints = st.integers(-6, 6)
_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def _matrices(draw):
    """(dim, vectors, probes): small sparse integer or rational vectors."""
    dim = draw(st.integers(1, 7))
    values = draw(st.sampled_from([_ints, _rationals]))

    def vector():
        entries = draw(st.dictionaries(st.integers(0, dim - 1), values, max_size=dim))
        return {i: v for i, v in entries.items() if v}

    vectors = [vector() for _ in range(draw(st.integers(0, 8)))]
    probes = [vector() for _ in range(3)]
    return dim, vectors, probes


def _combination(draw, vectors, values):
    out = {}
    for vec in vectors:
        c = draw(values)
        for i, v in vec.items():
            out[i] = out.get(i, 0) + c * v
    return {i: v for i, v in out.items() if v}


@_SETTINGS
@given(_matrices(), st.data())
def test_basis_matches_rational_oracle(matrix, data):
    dim, vectors, probes = matrix
    order = data.draw(st.permutations(vectors))
    basis = span_basis(order, dim)
    oracle = OracleBasis(vectors, dim)
    assert basis.pivots == oracle.pivots
    for p, row, expect in zip(basis.pivots, rows_of(basis), oracle.vectors):
        d = row[p]
        assert d > 0
        assert all(type(v) is int for v in row.values())
        assert gcd(*row.values()) == 1
        assert {i: Fraction(v, d) for i, v in row.items()} == expect
    probes.append(_combination(data.draw, vectors, _rationals))
    for probe in probes:
        assert reduced(basis, probe) == oracle.reduce(probe)
        assert in_span(basis, probe) == oracle.contains(probe)


@_SETTINGS
@given(_matrices(), st.data())
def test_solve_columns_matches_rational_oracle(matrix, data):
    dim, columns, probes = matrix
    if len(rref(columns, dim)) < len(columns):
        try:
            solve_columns(columns, probes[0], dim)
        except ValueError:
            return
        raise AssertionError("dependent columns were not detected")
    weights = [data.draw(_rationals) for _ in columns]
    rhs = {}
    for w, col in zip(weights, columns):
        for i, v in col.items():
            rhs[i] = rhs.get(i, 0) + w * v
    rhs = {i: v for i, v in rhs.items() if v}
    assert solve_columns(columns, rhs, dim) == weights
    oracle = OracleBasis(columns, dim)
    for probe in probes:
        solution = solve_columns(columns, probe, dim)
        assert (solution is None) == (not oracle.contains(probe))


@pytest.mark.parametrize(
    "vectors",
    [
        [{0: -1, 1: 4, 2: -6}],  # a -1 pivot with non-unit entries: the row is negated
        [{1: -1, 2: 3}, {0: 2, 1: 2}],  # -1 stored first, then cleared from the new row
        [{0: 1, 1: 1, 2: 2}, {0: 1, 2: 3}],  # a residual pivot of -1 after clearing 0
        [{0: 1, 2: 5}, {1: 1, 2: -2}, {0: 3, 1: 3, 2: 1}],  # unit pivots, then -8 at 2
    ],
)
def test_unit_pivots_match_rational_oracle(vectors):
    dim = 3
    for order in (vectors, vectors[::-1]):
        basis = span_basis(order, dim)
        oracle = OracleBasis(vectors, dim)
        assert basis.pivots == oracle.pivots
        for p, row, expect in zip(basis.pivots, rows_of(basis), oracle.vectors):
            assert row[p] > 0 and gcd(*row.values()) == 1
            assert {i: Fraction(v, row[p]) for i, v in row.items()} == expect


def test_span_basis_clears_denominators():
    # Fraction entries are cleared once; every row is stored primitive
    basis = span_basis([{0: 1, 2: Fraction(2, 3)}, {1: -4, 2: 6}], 3)
    assert rows_of(basis) == [{0: 3, 2: 2}, {1: 2, 2: -3}]
    # {0: 1, 1: 1, 2: -5/6} = 1/3 * (3, 0, 2) + 1/2 * (0, 2, -3)
    assert in_span(basis, {0: 1, 1: 1, 2: Fraction(-5, 6)})
    assert reduced(basis, {2: 1}) == {2: 1}


def test_cache_files_match_oracle_bytes(tmp_path):
    # the series files a scan writes are byte for byte the files written from
    # the series of the oracle's ideal-side recursion (Inv_d at every degree)
    engine_dir, oracle_dir = tmp_path / "engine", tmp_path / "oracle"
    cache = IdealComponentCache(3, 2, 1, cache_dir=str(engine_dir))
    cache.frobenius()
    cache.hilbert()
    hilbert, frobenius, _contained = full_invariant_scan(3, 2, 1)
    oracle_cache = IdealComponentCache(3, 2, 1, cache_dir=str(oracle_dir))
    oracle_cache._save("frobenius", FrobeniusSeries(3, 2, 1, frobenius))
    oracle_cache._save("hilbert", QUPoly(2, 1, hilbert))
    files = sorted(p.name for p in engine_dir.iterdir())
    assert files == ["frobenius_n3_k2_j1.json", "hilbert_n3_k2_j1.json"]
    for name in files:
        assert (oracle_dir / name).read_bytes() == (engine_dir / name).read_bytes(), name
