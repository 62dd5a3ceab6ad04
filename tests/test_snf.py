from __future__ import annotations

import random
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import invariant_factors

from looptorsion import snf
from looptorsion.freealg import CONVENTIONS
from looptorsion.presentation import THEOREM1_PARAMS, relation_set_AX, relation_set_E
from looptorsion.quotient import ideal_spanning_matrix

DIAGONALS = Path(__file__).resolve().parent / "golden" / "eliminator_diagonals.txt"


def sparse(mat):
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def random_matrix(rng, m, n, lo=-6, hi=6, density=0.7):
    return [[rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)] for _ in range(m)]


def test_snf_fixed_examples():
    assert snf.smith_normal_form(sparse([[2, 0], [0, 4]])) == ([2, 4], 2)
    assert snf.smith_normal_form(sparse([[2, 4], [4, 8]])) == ([2], 1)
    assert snf.smith_normal_form(sparse([[1, 0], [0, 0]])) == ([1], 1)
    assert snf.smith_normal_form([]) == ([], 0)


def test_snf_divisibility_chain_holds():
    rng = random.Random(23)
    for _ in range(60):
        mat = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        invs, rank = snf.smith_normal_form(sparse(mat))
        assert len(invs) == rank
        assert all(d > 0 for d in invs)
        for a, b in zip(invs, invs[1:]):
            assert b % a == 0


def test_snf_matches_dense_oracle_on_random_matrices():
    rng = random.Random(29)
    for _ in range(80):
        mat = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), lo=-9, hi=9)
        invs, _ = snf.smith_normal_form(sparse(mat))
        assert invs == snf.invariant_factors_dense(mat)


@st.composite
def small_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    zero_rows = draw(st.sets(st.integers(0, m - 1)))
    zero_cols = draw(st.sets(st.integers(0, n - 1)))
    return [[0 if i in zero_rows or j in zero_cols else draw(st.integers(-9, 9)) for j in range(n)] for i in range(m)]


@settings(max_examples=150, deadline=None, database=None)
@given(small_matrices())
def test_snf_matches_dense_and_sympy_oracles(mat):
    invs, rank = snf.smith_normal_form(sparse(mat))
    assert invs == snf.invariant_factors_dense(mat)
    assert invs == [d for d in invariant_factors(Matrix(mat), domain=ZZ) if d]
    assert rank == len(invs)


def test_snf_known_diagonalization():
    # 2x2 with determinant 12 and content 2: invariants (2, 6)
    mat = [[2, 4], [4, 14]]
    assert snf.smith_normal_form(sparse(mat))[0] == [2, 6]
    assert snf.invariant_factors_dense(mat) == [2, 6]


def test_rank_exact_agrees_with_modular_rank_away_from_torsion():
    rng = random.Random(31)
    for _ in range(40):
        mat = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rows = sparse(mat)
        invs, rank = snf.smith_normal_form(rows)
        assert rank == len(snf.invariant_factors_dense(mat))
        for p in (101, 1_000_003):
            expected = sum(1 for d in invs if d % p)
            assert snf.rank_mod_p(rows, p) == expected


def test_rank_mod_p_detects_torsion_drop():
    rows = sparse([[2, 0], [0, 3]])
    assert snf.rank_mod_p(rows, 2) == 1
    assert snf.rank_mod_p(rows, 3) == 1
    assert snf.rank_mod_p(rows, 5) == 2


def rank_mod_p_from_dense_snf(invs, p):
    """Rank over F_p read off the dense oracle's invariant factors."""
    return sum(1 for d in invs if d % p)


def test_rank_mod_p_matches_dense_snf_oracle():
    rng = random.Random(37)
    for _ in range(25):
        mat = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        invs = snf.invariant_factors_dense(mat)
        for p in (2, 13, 97, (1 << 61) - 1, (1 << 89) - 1):
            assert snf.rank_mod_p(sparse(mat), p) == rank_mod_p_from_dense_snf(invs, p)
    for conv in CONVENTIONS:
        for rels in (relation_set_E(THEOREM1_PARAMS, 3, conv), relation_set_AX(THEOREM1_PARAMS, conv)):
            for n in range(4):
                matrix = ideal_spanning_matrix(rels, n)
                dense = [[row.get(c, 0) for c in range(matrix.ncols)] for row in matrix.rows]
                invs = snf.invariant_factors_dense(dense)
                for p in (2, 3, 5, 7, 11, 13, 83, (1 << 61) - 1, (1 << 89) - 1):
                    assert snf.rank_mod_p(matrix.rows, p) == rank_mod_p_from_dense_snf(invs, p)


def test_rank_mod_p_rejects_characteristic_below_two():
    for p in (1, 0):
        with pytest.raises(ValueError, match="characteristic"):
            snf.rank_mod_p([{0: 1}], p)


def test_order_in_quotient_examples():
    # lattice spanned by (2,0) and (0,3) in Z^2
    rows = sparse([[2, 0], [0, 3]])
    assert snf.order_in_quotient(rows, {0: 1}) == 2
    assert snf.order_in_quotient(rows, {0: 1, 1: 1}) == 6
    assert snf.order_in_quotient(rows, {0: 2}) == 1
    # support outside the column span of the lattice: infinite order
    assert snf.order_in_quotient(sparse([[2, 0, 0]]), {2: 1}) is None
    # an explicit zero in the vector is no support
    assert snf.order_in_quotient(sparse([[2, 0, 0]]), {0: 1, 2: 0}) == 2
    # a vector over two blocks: the lcm of the orders of its parts, not
    # their product
    assert snf.order_in_quotient([{0: 2}, {3: 3}], {0: 1, 3: 1}) == 6
    assert snf.order_in_quotient([{0: 4}, {1: 6}], {0: 1, 1: 1}) == 12
    assert snf.order_in_quotient([{0: 4}, {1: 6}], {0: 2, 1: 3}) == 2
    # one part of infinite order makes the whole order infinite
    assert snf.order_in_quotient([{0: 4}, {1: 6, 2: 6}], {0: 1, 2: 1}) is None
    # an explicit zero in a row does not put its column into that row's block
    assert snf.order_in_quotient([{0: 1, 5: 0}, {5: 2}], {5: 1}) == 2
    # no rows at all: every nonzero vector has infinite order
    assert snf.order_in_quotient([], {0: 1}) is None
    # the zero vector has order 1, with or without rows
    assert snf.order_in_quotient(rows, {0: 0}) == 1
    assert snf.order_in_quotient([], {}) == 1


def test_order_in_quotient_agrees_with_naive_search():
    rng = random.Random(41)
    for _ in range(60):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        mat = random_matrix(rng, m, n, lo=-5, hi=5)
        rows = sparse(mat)
        vec = {j: rng.randint(-4, 4) for j in range(n) if rng.random() < 0.8}
        vec = {j: v for j, v in vec.items() if v}
        if not vec:
            continue
        order = snf.order_in_quotient(rows, dict(vec))
        naive = snf.naive_order_in_quotient(rows, n, dict(vec), 60)
        if order is not None and order <= 60:
            assert naive == order
        else:
            assert naive is None


def test_triangular_basis_membership():
    basis = snf.triangular_lattice_basis(sparse([[2, 2, 0], [0, 4, 4]]), 3)
    assert snf.in_lattice(basis, [2, 2, 0])
    assert snf.in_lattice(basis, [2, 6, 4])
    assert not snf.in_lattice(basis, [1, 1, 0])
    assert not snf.in_lattice(basis, [2, 2, 1])


def test_eliminator_handles_non_unit_pivots():
    # no +-1 entries anywhere; forces the gcd-reduction path
    mat = [[6, 10], [15, 4]]
    det = abs(6 * 4 - 10 * 15)
    invs, rank = snf.smith_normal_form(sparse(mat))
    assert rank == 2
    assert invs[0] * invs[1] == det
    assert invs[0] == gcd(gcd(6, 10), gcd(15, 4))
    assert invs == snf.invariant_factors_dense(mat)


class WatchedRow(dict):
    """A sparse row that records whether the pivot scan read its entries."""

    read = False

    def items(self):
        self.read = True
        return super().items()


def eliminator_watching(mat, watched):
    """An eliminator over `mat` whose row `watched` records being scanned."""
    e = snf._Eliminator(sparse(mat))
    e.rows[watched] = WatchedRow(e.rows[watched])
    return e


def test_pick_pivot_takes_the_two_lowest_unit_rows():
    # row 0 holds no unit; rows 1 and 2 do (best scores 2 and 1); row 3's
    # unit scores 0 but lies past the window
    mat = [
        [2, 3, 0, 0, 0],
        [1, 0, 5, 0, 0],
        [-1, 0, 1, 0, 0],
        [0, 0, 0, 0, 1],
    ]
    e = eliminator_watching(mat, 3)
    assert e._pick_pivot() == (2, 2)
    assert not e.rows[3].read


def test_pick_pivot_stops_at_a_zero_score_unit():
    # row 1's unit in column 2 scores 0 and comes after a scored unit in
    # column 0, so the whole row is read and row 2 is not
    mat = [
        [3, 2, 0],
        [1, 0, 1],
        [1, 0, 0],
    ]
    e = eliminator_watching(mat, 2)
    assert e._pick_pivot() == (1, 2)
    assert not e.rows[2].read


def test_pick_pivot_without_units_scans_every_row():
    # least |v| (2) first, then least score (row 3 scores 0), then column
    mat = [
        [3, 0, 0, 0, 0, 0, 0],
        [2, 0, 6, 0, 0, 0, 0],
        [0, 0, 4, 5, 7, 0, 0],
        [0, 0, 0, 0, 0, 2, 2],
    ]
    e = eliminator_watching(mat, 3)
    assert e._pick_pivot() == (3, 5)
    assert e.rows[3].read


def test_pick_pivot_after_a_row_is_zeroed():
    mat = [
        [2, 2, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [3, -1, 0, 0, 0],
        [0, 0, 0, 0, 1],
    ]
    e = eliminator_watching(mat, 3)
    e._axpy(0, 1, -2)
    assert 0 not in e.rows and e.cols[0] == {1, 2}
    # rows 1 and 2 are now the lowest unit rows; row 3 would win on score
    assert e._pick_pivot() == (1, 0)
    assert not e.rows[3].read


def random_block_diagonal(rng):
    """Sparse rows of 2-4 random blocks (each up to 5 x 5, entries -6..6).

    Block columns are mapped injectively into 0..40 and the rows are
    shuffled.  One all-zero row is added, and one row stores an explicit
    zero in a column that belongs to another block.
    """
    free_cols = rng.sample(range(41), 41)
    rows = []
    for _ in range(rng.randint(2, 4)):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        cols = [free_cols.pop() for _ in range(n)]
        for dense_row in random_matrix(rng, m, n):
            rows.append({cols[j]: v for j, v in enumerate(dense_row) if v})
    rows.append({})
    rng.shuffle(rows)
    nonzero = [row for row in rows if row]
    if nonzero:
        first, other = nonzero[0], nonzero[-1]
        spare = [c for c in other if c not in first] or [free_cols.pop()]
        first[spare[0]] = 0
    return rows


def dense(rows, ncols=41):
    out = [[0] * ncols for _ in rows]
    for out_row, row in zip(out, rows):
        for c, v in row.items():
            out_row[c] = v
    return out


def test_snf_and_rank_per_block_match_dense_oracle():
    rng = random.Random(43)
    vec_rng = random.Random(44)
    for _ in range(60):
        rows = random_block_diagonal(rng)
        expected = snf.invariant_factors_dense(dense(rows))
        assert snf.smith_normal_form(rows) == (expected, len(expected))
        # vectors over a few covered columns, the same plus the column of
        # the planted explicit zero, and a few columns of 0..40
        covered = sorted({c for row in rows for c, v in row.items() if v})
        planted = next(c for row in rows for c, v in row.items() if not v)
        for k in range(3):
            pool = covered if k < 2 else range(41)
            support = vec_rng.sample(pool, min(len(pool), vec_rng.randint(1, 4)))
            vec = {c: vec_rng.choice((-3, -2, -1, 1, 2, 3)) for c in support}
            if k == 1:
                vec[planted] = vec_rng.choice((-2, -1, 1, 2))
            order = snf.order_in_quotient(rows, dict(vec))
            # with max_multiple = order the naive search confirms both that
            # order * vec lies in the lattice and that no smaller multiple does
            assert snf.naive_order_in_quotient(rows, 41, vec, order or 60) == order


def test_components_partition_the_nonzero_rows():
    rng = random.Random(47)
    for _ in range(60):
        rows = random_block_diagonal(rng)
        rows.append({7: 0, 11: 0})
        blocks = snf._components(rows)
        placed = [id(row) for block in blocks for row in block]
        nonzero = [id(row) for row in rows if any(row.values())]
        assert sorted(placed) == sorted(nonzero)
        order = {id(row): i for i, row in enumerate(rows)}
        owner = {}
        for b, block in enumerate(blocks):
            assert [order[id(row)] for row in block] == sorted(order[id(row)] for row in block)
            for row in block:
                for c, v in row.items():
                    if v:
                        assert owner.setdefault(c, b) == b
        # explicit zeros join no blocks
        stripped = [{c: v for c, v in row.items() if v} for row in rows]
        assert [len(block) for block in snf._components(stripped)] == [len(block) for block in blocks]


@pytest.mark.parametrize(
    "values",
    [
        (),
        (1, 1),
        (3,),
        (2, 4, 12),
        (1, 3, 3, 9, 1),
        (-2, 6),
        (2, 3),
        (4, 6, 10),
        (12, 18, 8),
        (1, 1, 5),
        (11, 29, 11, 83, 245, 319),
    ],
)
def test_divisibility_chain_matches_dense_oracle(values):
    diagonal = [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]
    assert snf._divisibility_chain(values) == snf.invariant_factors_dense(diagonal)


def test_divisibility_chain_random_multisets():
    rng = random.Random(53)
    small = (1, 2, 3, 4, 6, 9, 10, 12, 30)
    # prime powers and values mixing them, so base elements repeat with
    # different exponents across the multiset
    mixed = small + (5, 8, 16, 18, 25, 27, 36, 60, 121, 121 * 3, 8 * 121, 27 * 25)
    draws = [(small, 7)] * 100 + [(mixed, 40)] * 60
    for pool, size in draws:
        values = [rng.choice(pool) for _ in range(rng.randint(1, size))]
        diagonal = [[v if i == j else 0 for j in range(len(values))] for i, v in enumerate(values)]
        assert snf._divisibility_chain(values) == snf.invariant_factors_dense(diagonal)


def test_duplicate_rows_change_no_snf_or_rank():
    rng = random.Random(59)
    for conv in CONVENTIONS:
        for rels in (relation_set_E(THEOREM1_PARAMS, 4, conv), relation_set_AX(THEOREM1_PARAMS, conv)):
            for n in range(5):
                rows = ideal_spanning_matrix(rels, n).rows
                doubled = rows + [dict(row) for row in rng.sample(rows, len(rows) // 3)]
                rng.shuffle(doubled)
                assert snf.smith_normal_form(doubled) == snf.smith_normal_form(rows)
                for p in (2, 11, 83):
                    assert snf.rank_mod_p(doubled, p) == snf.rank_mod_p(rows, p)


def random_peel_blocks(rng):
    """Sparse rows of three blocks that exercise the bulk unit peel.

    Returns (rows, band columns, band rows, rows holding a lone non-unit).
    The band is a unit upper-triangular band: row i holds ±1 in band
    column i and random entries in the next band columns and in torsion
    columns, which other rows fill with non-unit entries.  Only band
    column 0 starts with one row, so the band peels completely only by
    cascading.  The second block holds a 2 or a -3 alone in its column
    and must not be peeled.  The third is a random block.  Columns are
    mapped injectively into 0..40, one row stores explicit zeros, and
    the rows are shuffled.
    """
    free_cols = rng.sample(range(41), 41)
    n, t = rng.randint(2, 6), rng.randint(1, 3)
    band_cols = [free_cols.pop() for _ in range(n)]
    tors_cols = [free_cols.pop() for _ in range(t)]
    tagged = []
    for i in range(n):
        row = {band_cols[i]: rng.choice((1, -1))}
        for c in band_cols[i + 1 : i + 3]:
            row[c] = rng.choice((-3, -2, -1, 1, 2, 3))
        for c in tors_cols:
            if rng.random() < 0.7:
                row[c] = rng.choice((-3, -2, -1, 1, 2, 3))
        tagged.append((row, "band"))
    for dense_row in random_matrix(rng, t + rng.randint(0, 1), t, density=0.9):
        k = rng.choice((2, 3))
        tagged.append(({c: k * v for c, v in zip(tors_cols, dense_row) if v}, None))
    lone, mate = free_cols.pop(), free_cols.pop()
    tagged.append(({lone: rng.choice((2, -3)), mate: rng.randint(1, 3)}, "lone"))
    tagged.append(({mate: rng.randint(2, 5)}, None))
    m, k = rng.randint(1, 4), rng.randint(1, 4)
    cols = [free_cols.pop() for _ in range(k)]
    for dense_row in random_matrix(rng, m, k):
        tagged.append(({c: v for c, v in zip(cols, dense_row) if v}, None))
    tagged[0][0][free_cols.pop()] = 0
    tagged[-1][0][lone] = 0
    rng.shuffle(tagged)
    rows = [row for row, _ in tagged]
    band_rows = {i for i, (_, tag) in enumerate(tagged) if tag == "band"}
    lone_rows = {i for i, (_, tag) in enumerate(tagged) if tag == "lone"}
    return rows, band_cols, band_rows, lone_rows


def test_peel_removes_the_band_and_keeps_lone_non_units():
    rng = random.Random(67)
    for _ in range(60):
        rows, band_cols, band_rows, lone_rows = random_peel_blocks(rng)
        e = snf._Eliminator(rows)
        kept = {rid: dict(row) for rid, row in e.rows.items() if rid not in band_rows}
        before = len(e.rows)
        e._peel()
        assert not band_rows & set(e.rows)
        assert lone_rows <= set(e.rows)
        # one unit pivot per row taken, and the rows kept are unchanged
        assert e.diag == [1] * (before - len(e.rows))
        assert e.rows == {rid: row for rid, row in kept.items() if rid in e.rows}


def test_peeled_blocks_match_dense_oracle():
    rng = random.Random(71)
    for _ in range(60):
        rows, _, _, _ = random_peel_blocks(rng)
        expected = snf.invariant_factors_dense(dense(rows))
        assert snf.smith_normal_form(rows) == (expected, len(expected))


def test_order_on_peeled_columns_matches_naive_search():
    rng = random.Random(73)
    checked = 0
    for _ in range(60):
        rows, band_cols, _, _ = random_peel_blocks(rng)
        vec = {c: rng.randint(-3, 3) for c in rng.sample(band_cols, rng.randint(1, len(band_cols)))}
        vec = {c: v for c, v in vec.items() if v} or {band_cols[0]: 1}
        order = snf.order_in_quotient(rows, dict(vec))
        naive = snf.naive_order_in_quotient(rows, 41, dict(vec), 60)
        if order is not None and order <= 60:
            assert naive == order
            checked += order > 1
        else:
            assert naive is None
    # the band feeds the torsion columns, so most vectors have order > 1
    assert checked > 30


def test_peel_takes_exactly_the_cascading_unit_rows():
    mat = [
        [1, 2, 0, 0, 0],  # col 0 holds only this row: peeled first
        [0, -1, 3, 0, 0],  # col 1 is lone once row 0 is gone: cascade
        [0, 0, 2, 4, 0],  # col 2 is then lone, but holds a 2: kept
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, -1],
    ]
    e = snf._Eliminator(sparse(mat))
    e._peel()
    assert sorted(e.rows) == [2, 3, 4]
    assert e.diag == [1, 1]
    assert 0 not in e.cols and 1 not in e.cols
    assert e.rows[2] == {2: 2, 3: 4}
    assert snf.order_in_quotient(sparse(mat), {0: 1}) == snf.naive_order_in_quotient(sparse(mat), 5, {0: 1}, 60)


def test_coefficient_growth_stays_within_bound(monkeypatch):
    # the row phase leaves remainders of at most |pivot| / 2, so an
    # entry can only grow in _axpy
    largest = 0
    axpy = snf._Eliminator._axpy

    def watched(self, dst, src, k):
        nonlocal largest
        axpy(self, dst, src, k)
        row = self.rows.get(dst)
        if row:
            largest = max(largest, *map(abs, row.values()))

    monkeypatch.setattr(snf._Eliminator, "_axpy", watched)
    for rels, top, bits in ((relation_set_E(THEOREM1_PARAMS, 6), 6, 12), (relation_set_AX(THEOREM1_PARAMS), 4, 7)):
        largest = 0
        for n in range(top + 1):
            snf.smith_normal_form(ideal_spanning_matrix(rels, n).rows)
        assert 0 < largest.bit_length() <= bits


def test_oracles_leave_cached_rows_unchanged_and_ignore_zeros():
    rng = random.Random(79)
    for rels, top in ((relation_set_E(THEOREM1_PARAMS, 4), 4), (relation_set_AX(THEOREM1_PARAMS), 3)):
        for n in range(2, top + 1):
            matrix = ideal_spanning_matrix(rels, n)
            rows, ncols = matrix.rows, matrix.ncols
            before = [dict(row) for row in rows]
            invs = snf.smith_normal_form(rows)
            ranks = {p: snf.rank_mod_p(rows, p) for p in (2, 3, 7, 83)}
            vec = {c: rng.choice((-2, -1, 1, 3)) for c in rng.sample(range(ncols), 3)}
            order = snf.order_in_quotient(rows, vec)
            # the oracles work on copies: the cached rows are the same objects, unchanged
            assert ideal_spanning_matrix(rels, n) is matrix
            assert rows == before
            # explicit zeros, in another row's column, in a new column and as a whole row,
            # change no result; nor do they in the vector, which is not changed either
            padded = [{**row, rng.randrange(ncols + 1): 0, ncols: 0} | row for row in rows] + [{0: 0}]
            assert snf.smith_normal_form(padded) == invs
            zeroed = {**vec, ncols: 0, rng.randrange(ncols): 0} | vec
            kept = dict(zeroed)
            assert snf.order_in_quotient(padded, zeroed) == order
            assert snf.order_in_quotient(rows, zeroed) == order
            assert zeroed == kept
            for p, rank in ranks.items():
                assert rank == rank_mod_p_from_dense_snf(invs[0], p)
                assert snf.rank_mod_p(padded, p) == rank
                # scaled by p - 1 (a unit), a row whose lead was 1 leads with p - 1; adding
                # multiples of p, in the row's columns and in a new one, changes nothing mod p
                shifted = [{c: (p - 1) * v + p * (c % 3) for c, v in row.items()} | {ncols + 1: -p} for row in rows]
                assert snf.rank_mod_p(shifted, p) == rank
            assert rows == before


def eliminator_diagonals() -> str:
    """One line per block: its raw `_Eliminator.run()` diagonal, in order, for E 0-5 and AX 0-4."""
    lines = []
    for name, rels, top in (("E", relation_set_E(THEOREM1_PARAMS, 5), 5), ("AX", relation_set_AX(THEOREM1_PARAMS), 4)):
        for n in range(top + 1):
            for i, block in enumerate(snf._components(ideal_spanning_matrix(rels, n).rows)):
                lines.append(f"{name} {n} {i}: " + ",".join(map(str, snf._Eliminator(block).run())))
    return "\n".join(lines) + "\n"


def test_eliminator_diagonals_match_golden():
    # each block's diagonal lists |pivot| of every peel and pick in order, so it moves with
    # most changes to the pivot order, also where the invariant factors stay the same
    assert eliminator_diagonals() == DIAGONALS.read_text(encoding="utf-8")


if __name__ == "__main__":
    # rewrite the golden after an intended change of the pivot order: PYTHONPATH=src python tests/test_snf.py
    DIAGONALS.write_text(eliminator_diagonals(), encoding="utf-8")
