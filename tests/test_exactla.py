import random
from fractions import Fraction

import pytest

from supercoinv.exactla import SubspaceBasis

from oracles import (
    DimensionMismatch,
    SubspaceNotInvariant,
    bareiss_rank,
    in_span,
    restricted_trace,
    rows_of,
    solve_columns,
    span_basis,
)

SEED = 20240817


def _random_columns(rng, nrows, ncols, density=0.4, fractions=False):
    """The columns of a random nrows x ncols matrix, as sparse dicts row -> value."""
    cols = [{} for _ in range(ncols)]
    for r in range(nrows):
        for c in range(ncols):
            if rng.random() < density:
                num = rng.randint(-9, 9)
                if num == 0:
                    continue
                if fractions and rng.random() < 0.3:
                    cols[c][r] = Fraction(num, rng.randint(1, 7))
                else:
                    cols[c][r] = num
    return cols


def _transpose(cols, nrows):
    rows = [{} for _ in range(nrows)]
    for c, col in enumerate(cols):
        for r, v in col.items():
            rows[r][c] = v
    return rows


def _dense(cols, nrows):
    return [[col.get(r, 0) for col in cols] for r in range(nrows)]


def test_column_space_trivial():
    assert span_basis([{}, {}, {}], 4).rank == 0
    basis = span_basis([{i: 1} for i in range(4)], 4)
    assert basis.rank == 4
    assert basis.pivots == [0, 1, 2, 3]


def test_rank_matches_bareiss_oracle():
    rng = random.Random(SEED)
    for _ in range(8):
        cols = _random_columns(rng, 20, 30, fractions=True)
        assert span_basis(cols, 20).rank == bareiss_rank(_dense(cols, 20))


def test_rank_of_transpose():
    rng = random.Random(SEED + 1)
    for _ in range(6):
        nrows, ncols = rng.randint(5, 40), rng.randint(5, 40)
        cols = _random_columns(rng, nrows, ncols)
        assert span_basis(cols, nrows).rank == span_basis(_transpose(cols, nrows), ncols).rank


def test_rank_scale_invariance():
    rng = random.Random(SEED + 2)
    cols = _random_columns(rng, 15, 20)
    row_scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(15)]
    col_scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(20)]
    scaled = [
        {r: v * row_scale[r] * col_scale[c] for r, v in col.items()} for c, col in enumerate(cols)
    ]
    assert span_basis(cols, 15).rank == span_basis(scaled, 15).rank


def test_reduced_echelon_invariants():
    rng = random.Random(SEED + 3)
    basis = span_basis(_random_columns(rng, 12, 25), 12)
    pivots = basis.pivots
    assert pivots == sorted(pivots)
    pivot_set = set(pivots)
    for p, row in zip(pivots, rows_of(basis)):
        assert row[p] == 1
        assert all(i == p for i in row if i in pivot_set)


def test_basis_canonical_under_column_order():
    rng = random.Random(SEED + 4)
    cols = _random_columns(rng, 10, 18)
    shuffled = list(cols)
    rng.shuffle(shuffled)
    a = span_basis(cols, 10)
    b = span_basis(shuffled, 10)
    assert a.pivots == b.pivots
    assert rows_of(a) == rows_of(b)


def test_contains():
    basis = span_basis([{0: 1}], 3)
    assert in_span(basis, {})
    assert not in_span(basis, {1: 1})
    rng = random.Random(SEED + 6)
    cols = _random_columns(rng, 12, 8)
    basis = span_basis(cols, 12)
    combo = {}
    for col in cols[:5]:
        c = rng.randint(-4, 4)
        for i, v in col.items():
            combo[i] = combo.get(i, 0) + c * v
    combo = {i: v for i, v in combo.items() if v}
    assert in_span(basis, combo)
    with pytest.raises(DimensionMismatch):
        in_span(basis, {99: 1})


def test_coefficients_roundtrip():
    rng = random.Random(SEED + 7)
    basis = span_basis(_random_columns(rng, 10, 6, density=0.6), 10)
    weights = [rng.randint(-3, 3) for _ in range(basis.rank)]
    vec = {}
    for w, row in zip(weights, rows_of(basis)):
        for i, v in row.items():
            vec[i] = vec.get(i, 0) + w * v
    vec = {i: v for i, v in vec.items() if v}
    # reduced echelon form: each row's coefficient is the pivot entry over d
    assert [Fraction(vec.get(p, 0), row[p]) for p, row in zip(basis.pivots, rows_of(basis))] == weights


def test_restricted_trace_full_space_and_empty():
    basis = span_basis([{0: 1}, {1: 1}, {2: 1}], 3)
    mat = {(0, 0): 2, (1, 1): 3, (2, 2): 5, (0, 2): 7}

    def apply_map(vec):
        out = {}
        for (r, c), v in mat.items():
            if c in vec:
                out[r] = out.get(r, 0) + v * vec[c]
        return {i: v for i, v in out.items() if v}

    assert restricted_trace(basis, apply_map) == 10
    empty = SubspaceBasis(3)
    assert restricted_trace(empty, apply_map) == 0


def test_restricted_trace_swap_line():
    # span{e0+e1} in dim 2; the swap fixes the line, trace 1
    basis = span_basis([{0: 1, 1: 1}], 2)

    def swap(vec):
        return {1 - i: v for i, v in vec.items()}

    assert restricted_trace(basis, swap) == 1


def test_restricted_trace_detects_escape():
    basis = span_basis([{0: 1}], 2)

    def swap(vec):
        return {1 - i: v for i, v in vec.items()}

    with pytest.raises(SubspaceNotInvariant):
        restricted_trace(basis, swap)


def test_restricted_trace_basis_independent():
    rng = random.Random(SEED + 8)
    gens = [{i: rng.randint(-3, 3) for i in rng.sample(range(8), 4)} for _ in range(5)]
    gens = [{i: v for i, v in g.items() if v} for g in gens]
    basis = span_basis(gens, 8)
    mat = {(r, c): rng.randint(-2, 2) for r in range(8) for c in range(8)}

    def apply_map(vec):
        out = {}
        for (r, c), v in mat.items():
            if c in vec and v:
                out[r] = out.get(r, 0) + v * vec[c]
        return {i: v for i, v in out.items() if v}

    def project(vec):
        # force the image into the span so the map is well-defined on it
        coeffs = [vec.get(p, 0) for p in basis.pivots]
        out = {}
        for c, row in zip(coeffs, rows_of(basis)):
            for i, v in row.items():
                out[i] = out.get(i, 0) + c * v
        return {i: v for i, v in out.items() if v}

    tr1 = restricted_trace(basis, lambda v: project(apply_map(v)))
    shuffled = list(gens)
    rng.shuffle(shuffled)
    combos = shuffled + [
        {i: sum(g.get(i, 0) for g in shuffled[:3]) for i in range(8)},
    ]
    combos[-1] = {i: v for i, v in combos[-1].items() if v}
    basis2 = span_basis(combos, 8)
    assert basis2.pivots == basis.pivots and rows_of(basis2) == rows_of(basis)
    tr2 = restricted_trace(basis2, lambda v: project(apply_map(v)))
    assert tr1 == tr2


def test_solve_columns():
    cols = [{0: 1, 1: 2}, {1: 1, 2: 3}]
    rhs = {0: 2, 1: 5, 2: 3}
    assert solve_columns(cols, rhs, 3) == [2, 1]
    assert solve_columns(cols, {0: 1, 2: 1}, 3) is None
    with pytest.raises(ValueError):
        solve_columns([{0: 1}, {0: 2}], {0: 1}, 1)
