"""Exact linear algebra over the integers and over prime fields.

The central object is a sparse integer eliminator that diagonalizes a
matrix by unimodular row and column operations, favouring pivots of
smallest absolute value (unit pivots first) with a Markowitz-style fill
tie-break.  That keeps coefficient growth tame on the degreewise
relation matrices this package produces, where almost every row has a
unit entry.  The pick is one scan of the rows in ascending id that keeps
the least (|v|, fill score, row, column) key.  It stops after the second
row that holds a unit, or after the first if that row's best unit scores
0; without units it scans every row.  So a unit pivot is the best-scored
unit entry of the two lowest-numbered rows that hold one: a wider window
cost more in scoring than it saved in fill, and a single row let the
largest intermediate entry grow (14 bits at E degree 6, against 12 with
two or 24 rows).

Before the pivot loop the eliminator peels: a ±1 alone in its column
is a pivot that needs no row operation, and clearing its row takes
column operations that touch no other row, so the row is simply taken
out.  That can leave another column with one row, so the peel
cascades, as weight-1 columns are removed in structured Gaussian
elimination (LaMacchia & Odlyzko, CRYPTO '90).  It takes 4849 of E
degree 6's 8450 rows and 1306 of AX degree 4's 2496.  A lone entry of
larger size is left to the pivot loop.  In the loop, once the column
phase has cleared the pivot column, the row phase's column operations
likewise touch only the pivot row, so they are done in place on it.

The eliminator only ever sees one connected block of a matrix (two
rows meet when they share a column; the degreewise relation matrices
fall apart into hundreds of small blocks).  `smith_normal_form`
eliminates every block and merges all the block diagonals into one
divisibility chain over a coprime base: factor refinement by gcd turns
the distinct diagonal values into pairwise coprime numbers, and each
one's exponents are dealt to the invariant factors from the top.  The
split copies no row and filters a row's zeros only when the row holds
an explicit 0; each block's eliminator takes one copy of each of its
rows and indexes its columns in the same pass, and changes only those
copies, so the caller's rows (cached matrices among them) stay as they
were.  The peel runs inside each block's eliminator.  A peel of the
whole matrix before the split holds a row and column index of the whole
matrix at once: tried that way, it raised the peak memory of the E
degree 6 plus AX degree 4 torsion reports from 24 to 33 MB and saved no
time.

Element orders come from the Smith form alone.  The order of a vector v
modulo a lattice L is the index of L in M = L + Z v when M has the rank
of L, and infinite otherwise.  Both lattices have the same saturation,
and the index of a lattice in its saturation is the product of its
nonzero elementary divisors (Cohen, *A Course in Computational Algebraic
Number Theory*, GTM 138, 1993, section 2.4), so the order is
prod(invariants of L) / prod(invariants of M).  `order_in_quotient`
takes for L only the blocks that v meets, so it pays two eliminations
of those blocks and none of the rest.

Rank over a prime field F_p comes from one sparse Gaussian elimination
mod p (`rank_mod_p`) with plain Python integers, for every matrix size
and every prime.  It shares no code with the integer engine,
so rank_p = #{invariant factors not divisible by p} is a real cross-check.

A deliberately naive dense Smith normal form and a triangular-basis
membership test are provided as independent second opinions; they share
no code with the sparse engines.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from math import gcd, prod

SparseRow = dict  # {column: coefficient}


def _nearest_quotient(a: int, b: int) -> int:
    """Integer quotient rounding to nearest, so remainders stay small."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


class _Eliminator:
    """Unimodular diagonalization of one connected block of a sparse integer matrix."""

    def __init__(self, rows):
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}
        for rid, row in enumerate(rows):
            r = {c: v for c, v in row.items() if v} if 0 in row.values() else dict(row)
            if not r:
                continue
            self.rows[rid] = r
            for c in r:
                self.cols.setdefault(c, set()).add(rid)
        self.diag: list[int] = []

    def _axpy(self, dst: int, src: int, k: int) -> None:
        """rows[dst] += k * rows[src], maintaining the column index."""
        row_d = self.rows[dst]
        cols = self.cols
        for c, v in self.rows[src].items():
            old = row_d.get(c, 0)
            new = old + k * v
            if new:
                row_d[c] = new
                if not old:
                    cols[c].add(dst)
            elif old:
                del row_d[c]
                cols[c].discard(dst)
        if not row_d:
            del self.rows[dst]

    def _peel(self) -> None:
        """Take every ±1 that is alone in its column as a pivot, in bulk.

        Such a column holds no other row, so the column operations that
        clear the pivot row touch only that row: the row is deleted and
        its columns lose one row.  A column left with one row joins the
        stack, so the peel cascades.  Other rows are never changed, so
        the rows peeled do not depend on the order.
        Lone entries of larger size are left to the pivot loop.
        """
        rows, cols = self.rows, self.cols
        stack = [c for c, rs in cols.items() if len(rs) == 1]
        while stack:
            col = stack.pop()
            rs = cols[col]
            if len(rs) != 1:
                continue
            (rid,) = rs
            row = rows[rid]
            u = row[col]
            if u != 1 and u != -1:
                continue
            self.diag.append(1)
            del rows[rid]
            del cols[col]
            for c in row:
                if c == col:
                    continue
                rs = cols[c]
                rs.discard(rid)
                if len(rs) == 1:
                    stack.append(c)

    def _pick_pivot(self) -> tuple[int, int]:
        """Least (|v|, Markowitz score, rid, col) over the rows scanned.

        The scan stops after the second row holding a unit, or after the
        first if its best unit scores 0: no later row can beat that.
        """
        # Rows are only ever deleted, never re-inserted, so the dict
        # iterates in ascending row id.
        cols = self.cols
        best = (float("inf"),)
        found = 0
        for rid, row in self.rows.items():
            rlen = len(row) - 1
            has_unit = False
            for c, v in row.items():
                a = abs(v)
                if a == 1:
                    has_unit = True
                if a <= best[0]:
                    key = (a, rlen * (len(cols[c]) - 1), rid, c)
                    if key < best:
                        best = key
            if has_unit:
                found += 1
                if found == 2 or best[1] == 0:
                    break
        return best[2], best[3]

    def _process_pivot(self, rid: int, col: int) -> None:
        rows, cols = self.rows, self.cols
        while True:
            val = rows[rid][col]
            if val == 1 or val == -1:
                # A unit divides everything: the column clears with exact
                # quotients, each touching only its own row, so their order
                # is immaterial; the row phase would then delete every
                # other entry of the pivot row, so the row simply goes.
                for r in cols[col] - {rid}:
                    self._axpy(r, rid, -rows[r][col] * val)
                for c in rows.pop(rid):
                    cols[c].discard(rid)
                del cols[col]
                self.diag.append(1)
                return
            # Column phase: clear every other entry in the pivot column.
            # A nonzero remainder means the pivot did not divide an entry;
            # the remainder is strictly smaller, so adopt it as the pivot
            # and start over.  Terminates because |pivot| shrinks.
            restart = False
            for r in sorted(cols[col] - {rid}):
                q = _nearest_quotient(rows[r][col], val)
                if q:
                    self._axpy(r, rid, -q)
                rem = self.rows.get(r, {}).get(col, 0)
                if rem:
                    rid = r
                    restart = True
                    break
            if restart:
                continue
            # Row phase: the pivot column now holds only the pivot, so
            # every column operation touches nothing but the pivot row
            # and is done in place.  A remainder moves the pivot to a
            # new column, which may be dirty again.
            row = rows[rid]
            val = row[col]
            moved = False
            for c in sorted(row):
                if c == col:
                    continue
                q = _nearest_quotient(row[c], val)
                if q:
                    new = row[c] - q * val
                    if not new:
                        del row[c]
                        cols[c].discard(rid)
                        continue
                    row[c] = new
                col = c
                moved = True
                break
            if moved:
                continue
            break
        val = rows[rid][col]
        self.diag.append(abs(val))
        del rows[rid]
        cols[col].discard(rid)
        if not cols[col]:
            del cols[col]

    def run(self):
        self._peel()
        while self.rows:
            rid, col = self._pick_pivot()
            self._process_pivot(rid, col)
        return self.diag


def _components(rows) -> list[list[SparseRow]]:
    """The nonzero rows grouped into connected blocks, in input order.

    Two rows are in the same block when they share a column; a
    union-find over the columns each row touches finds the blocks.
    All-zero rows (explicit zero entries included) are dropped.
    """
    parent: dict[int, int] = {}

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    kept = []
    for row in rows:
        support = iter([c for c, v in row.items() if v] if 0 in row.values() else row)
        first = next(support, None)
        if first is None:
            continue
        kept.append((row, first))
        root = find(parent.setdefault(first, first))
        for c in support:
            r = find(parent.setdefault(c, c))
            if r != root:
                parent[r] = root
    blocks: dict[int, list[SparseRow]] = {}
    for row, c in kept:
        blocks.setdefault(find(c), []).append(row)
    return list(blocks.values())


def _coprime_base(values) -> list[int]:
    """Pairwise coprime numbers > 1 whose products give every value (each > 1).

    Factor refinement by gcd alone: a pending number x that shares a
    factor g > 1 with a base element b replaces b by x / g, g and b / g
    (ones dropped), which lowers the product of all pending and base
    numbers, so the loop ends.
    """
    base: list[int] = []
    pending = list(values)
    while pending:
        x = pending.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                pending.extend(v for v in (x // g, g, b // g) if v > 1)
                break
        else:
            base.append(x)
    return base


def _divisibility_chain(values) -> list[int]:
    """Redistribute a diagonal multiset into chained invariant factors.

    Over a coprime base of the values, each base element's exponents in
    all the values (with multiplicity) are sorted and dealt to the
    factors from the top, largest first.
    """
    values = [abs(v) for v in values]
    ones = values.count(1)
    counts = Counter(v for v in values if v > 1)
    n = sum(counts.values())
    factors = [1] * n
    for q in _coprime_base(counts):
        exponents = []
        for v, k in counts.items():
            e = 0
            while v % q == 0:
                v //= q
                e += 1
            if e:
                exponents += [e] * k
        exponents.sort(reverse=True)
        for i, e in enumerate(exponents):
            factors[n - 1 - i] *= q**e
    return [1] * ones + factors


def smith_normal_form(rows) -> tuple[list[int], int]:
    """Invariant factors d1 | d2 | ... | d_rank (all positive) and rank.

    `rows` is an iterable of sparse rows.  Each connected block is
    eliminated on its own.
    """
    diag = [v for block in _components(rows) for v in _Eliminator(block).run()]
    return _divisibility_chain(diag), len(diag)


def order_in_quotient(rows, vector: SparseRow):
    """Order of a vector in Z^ncols modulo the row lattice of `rows`.

    The vector joins the rows as one more row, so the blocks it meets
    fall into one block that ends with it; the other blocks are direct
    summands it misses and are not eliminated.  With L the lattice of
    that block's rows and M = L + Z * vector, the order is None
    (infinite) when rank M > rank L and otherwise the index
    prod(invariants of L) / prod(invariants of M).  Zero entries of the
    vector are ignored, and the zero vector has order 1.
    """
    support = {c: v for c, v in vector.items() if v}
    if not support:
        return 1
    block = next(b for b in _components(chain(rows, [support])) if b[-1] is support)
    lattice, lattice_rank = smith_normal_form(block[:-1])
    extended, extended_rank = smith_normal_form(block)
    if extended_rank > lattice_rank:
        return None
    return prod(lattice) // prod(extended)


# ---------------------------------------------------------------------------
# Modular rank
# ---------------------------------------------------------------------------


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p by sparse Gaussian elimination.

    Each row is reduced mod p once, then against the pivot rows kept so
    far, lowest column first; a row left nonzero becomes the pivot row of
    its lowest column.  A pivot row is kept without its lead and scaled
    by the lead's inverse (only when the lead is not 1), so that it stands
    for a row with a leading 1, and reducing by it pops the lead instead
    of computing a zero.  The rank is the number of pivot rows.
    """
    if p < 2:
        raise ValueError("field characteristic must be a prime")
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        work = {c: r for c, v in row.items() if (r := v % p)}
        while work:
            lead = min(work)
            f = work.pop(lead)
            piv = pivots.get(lead)
            if piv is None:
                if f != 1:
                    inv = pow(f, -1, p)
                    work = {c: v * inv % p for c, v in work.items()}
                pivots[lead] = work
                break
            for c, v in piv.items():
                nv = (work.get(c, 0) - f * v) % p
                if nv:
                    work[c] = nv
                else:
                    work.pop(c, None)
    return len(pivots)


# ---------------------------------------------------------------------------
# Independent oracles (no code shared with the sparse engine)
# ---------------------------------------------------------------------------


def invariant_factors_dense(mat) -> list[int]:
    """Textbook Smith normal form on a dense matrix.

    Minimum-absolute-value pivoting with alternating row/column
    reduction and the classical divisibility fix-up, working on plain
    lists.  Slow but simple; used to cross-validate the sparse engine.
    """
    A = [list(map(int, row)) for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    t = 0
    invs = []
    while True:
        # locate minimum-abs nonzero entry in the trailing block
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
                    if abs(v) == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
        while True:
            # clear column t
            for i in range(m):
                if i != t and A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        Ai, At = A[i], A[t]
                        for j in range(t, n):
                            Ai[j] -= q * At[j]
            if any(A[i][t] for i in range(m) if i != t):
                # a remainder became the new smallest entry in the column
                i = min((abs(A[i][t]), i) for i in range(m) if i != t and A[i][t])[1]
                A[t], A[i] = A[i], A[t]
                continue
            # clear row t
            At = A[t]
            for j in range(t + 1, n):
                if At[j]:
                    q = At[j] // At[t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
            if any(At[j] for j in range(t + 1, n)):
                j = min((abs(At[j]), j) for j in range(t + 1, n) if At[j])[1]
                for row in A:
                    row[t], row[j] = row[j], row[t]
                continue
            # ensure the pivot divides every remaining entry
            d = At[t]
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                A[t][j] += A[offender][j]
        invs.append(abs(A[t][t]))
        t += 1
        if t == m or t == n:
            break
    return invs


def triangular_lattice_basis(rows, ncols: int) -> dict[int, list[int]]:
    """Triangular basis (lead column -> dense row) of the row lattice.

    Built by pairwise extended-gcd insertion, entirely independent of the
    sparse eliminator; supports the naive membership test below.
    """
    basis: dict[int, list[int]] = {}
    pending = []
    for row in rows:
        dense = [0] * ncols
        for c, v in row.items():
            dense[c] = v
        pending.append(dense)
    while pending:
        row = pending.pop()
        while True:
            lead = next((j for j, v in enumerate(row) if v), None)
            if lead is None:
                break
            held = basis.get(lead)
            if held is None:
                if row[lead] < 0:
                    row = [-v for v in row]
                basis[lead] = row
                break
            a, b = held[lead], row[lead]
            g, x, y = _xgcd(a, b)
            combo = [x * hv + y * rv for hv, rv in zip(held, row)]
            residue = [(a // g) * rv - (b // g) * hv for hv, rv in zip(held, row)]
            basis[lead] = combo
            row = residue
    return basis


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def in_lattice(basis: dict[int, list[int]], vector) -> bool:
    """Whether a dense vector lies in the lattice spanned by `basis`."""
    vec = list(vector)
    for j, v in enumerate(vec):
        if not v:
            continue
        row = basis.get(j)
        if row is None or v % row[j]:
            return False
        q = v // row[j]
        for k in range(j, len(vec)):
            vec[k] -= q * row[k]
    return True


def naive_order_in_quotient(rows, ncols: int, vector: SparseRow, max_multiple: int):
    """Smallest b in 1..max_multiple with b*vector in the row lattice.

    Brute-force oracle for the SNF-based order computation; returns None
    when no multiple in range lands in the lattice.
    """
    basis = triangular_lattice_basis(rows, ncols)
    dense = [0] * ncols
    for c, v in vector.items():
        dense[c] = v
    for b in range(1, max_multiple + 1):
        if in_lattice(basis, [b * v for v in dense]):
            return b
    return None
