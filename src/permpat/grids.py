"""Monotone and geometric grid classes over 0/±1 matrices: cell graphs,
membership deciders, bounded enumeration, and the monotone griddability
verdict of a class, read off its basis.

Matrices use Cartesian indexing: ``entry(k, l)`` is column ``k`` from the
left, row ``l`` from the bottom.  The JSON form lists rows top-first (the
usual way a matrix is displayed), so serialization flips row order.

A permutation lies in the monotone grid class when vertical and horizontal
lines can divide its plot so every cell's points are increasing (+1) or
decreasing (−1); it lies in the geometric class when the points can actually
be placed on the standard figure — the union of the increasing segment
from ``(k−1, l−1)`` to ``(k, l)`` for each +1 cell and the decreasing
segment from ``(k−1, l)`` to ``(k, l−1)`` for each −1 cell.  Geometric
membership is decided per gridding by exact rational feasibility of the
induced strict linear system in one parameter per point.  Geometric
enumeration needs no solver when the matrix has a consistent orientation
(column and row signs whose products are its nonzero entries): the members
are then built point by point from gridded drawings.  Other matrices go
through the layered membership decider.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

# only cell_graph builds a Graph, so invgraph's body runs on its first call
from . import invgraph
from .classes import PermClass, _tuple_layers
from .feasibility import check_strict, solve_strict
from .guards import check_size
from .perm import Perm, components, containment_witness, sum_perms

VALID_ENTRIES = (-1, 0, 1)


@dataclass(frozen=True)
class ZeroPmOneMatrix:
    """A 0/±1 matrix in Cartesian indexing: ``signs[k-1][l-1]`` is the entry
    in column ``k`` (from the left), row ``l`` (from the bottom)."""

    cols: int
    rows: int
    signs: tuple

    def __post_init__(self):
        if type(self.cols) is not int or type(self.rows) is not int:
            raise ValueError(f"cols and rows must be ints; got {self.cols!r} and {self.rows!r}")
        if self.cols < 1 or self.rows < 1:
            raise ValueError("need at least one column and one row")
        signs = tuple([tuple(col) for col in self.signs])
        if len(signs) != self.cols or any(len(col) != self.rows for col in signs):
            raise ValueError("signs shape must be cols x rows")
        for col in signs:
            for e in col:
                # by type, since True, False and 1.0 compare equal to an entry
                if type(e) is not int or e not in VALID_ENTRIES:
                    raise ValueError(f"matrix entries must be -1, 0, or 1; got {e!r}")
        object.__setattr__(self, "signs", signs)
        # the nonzero signs along each column (bottom to top) and each row
        # (left to right), which is all the line test of a gridding reads
        object.__setattr__(self, "_column_lines", tuple([tuple([s for s in col if s]) for col in signs]))
        object.__setattr__(
            self,
            "_row_lines",
            tuple([tuple([col[l] for col in signs if col[l]]) for l in range(self.rows)]),
        )

    def entry(self, k: int, l: int) -> int:
        if not (1 <= k <= self.cols and 1 <= l <= self.rows):
            raise IndexError(f"cell ({k}, {l}) outside {self.cols}x{self.rows}")
        return self.signs[k - 1][l - 1]

    def nonzero_cells(self) -> tuple:
        return tuple([
            (k, l)
            for k in range(1, self.cols + 1)
            for l in range(1, self.rows + 1)
            if self.entry(k, l) != 0
        ])


def matrix_from_rows_top_first(rows: Iterable[Iterable[int]]) -> ZeroPmOneMatrix:
    """Build from display order (top row first), e.g. the 2x2 X-shape
    ``[[-1, 1], [1, -1]]``."""
    grid = [list(r) for r in rows]
    if not grid or not grid[0]:
        raise ValueError("need at least one row and one column")
    u = len(grid)
    t = len(grid[0])
    if any(len(r) != t for r in grid):
        raise ValueError("ragged rows")
    signs = tuple([
        tuple([grid[u - l][k - 1] for l in range(1, u + 1)]) for k in range(1, t + 1)
    ])
    return ZeroPmOneMatrix(t, u, signs)


def matrix_to_json(m: ZeroPmOneMatrix) -> dict:
    entries = [
        [m.entry(k, l) for k in range(1, m.cols + 1)]
        for l in range(m.rows, 0, -1)
    ]
    return {"cols": m.cols, "rows": m.rows, "entries": entries}


def matrix_from_json(data) -> ZeroPmOneMatrix:
    if isinstance(data, str):
        data = json.loads(data)
    rows = data.get("entries") if isinstance(data, dict) else None
    if not (
        isinstance(rows, list)
        and all(isinstance(r, list) and not any(isinstance(e, bool) for e in r) for r in rows)
        and type(data.get("cols")) is int
        and type(data.get("rows")) is int
    ):
        raise ValueError(
            "a matrix is an object whose cols and rows are integers and whose"
            " entries are rows (arrays) of -1, 0 and 1"
        )
    m = matrix_from_rows_top_first(rows)
    if m.cols != data["cols"] or m.rows != data["rows"]:
        raise ValueError("declared cols/rows disagree with entries shape")
    return m


#: Four nonzero cells whose cell graph is the 4-cycle: +1 at bottom-left and
#: top-right, −1 at the other two corners.
X_MATRIX = matrix_from_rows_top_first([[-1, 1], [1, -1]])


def all_matrices(max_cols: int, max_rows: int) -> Iterator[ZeroPmOneMatrix]:
    """Every 0/±1 matrix with dimensions up to the given bounds."""
    for t in range(1, max_cols + 1):
        for u in range(1, max_rows + 1):
            for flat in itertools.product(VALID_ENTRIES, repeat=t * u):
                signs = tuple([
                    tuple([flat[(k - 1) * u + (l - 1)] for l in range(1, u + 1)])
                    for k in range(1, t + 1)
                ])
                yield ZeroPmOneMatrix(t, u, signs)


def cell_graph(m: ZeroPmOneMatrix) -> invgraph.Graph:
    """Vertices are the nonzero cells (sorted by column then row, labeled
    with their (column, row) pair); edges join two cells of a common row or
    column with no nonzero cell strictly between them, that is, neighbours
    in the column-major or the row-major order of the nonzero cells.

    >>> sorted(cell_graph(X_MATRIX).edges)
    [(1, 2), (1, 3), (2, 4), (3, 4)]
    """
    cells = m.nonzero_cells()
    index = {cell: i + 1 for i, cell in enumerate(cells)}
    by_row = sorted(cells, key=lambda c: (c[1], c[0]))
    edges = frozenset(
        (index[a], index[b])
        for axis, line in ((0, cells), (1, by_row))
        for a, b in zip(line, line[1:])
        if a[axis] == b[axis]
    )
    return invgraph.Graph(len(cells), edges, labels=cells if cells else None)


@dataclass(frozen=True)
class GriddedPermutation:
    """A permutation with one (column, row) cell per index."""

    perm: Perm
    cells: tuple

    def __post_init__(self):
        if len(self.cells) != len(self.perm):
            raise ValueError("one cell per permutation entry required")
        object.__setattr__(self, "cells", tuple([tuple(c) for c in self.cells]))


def validate_gridded(gp: GriddedPermutation, m: ZeroPmOneMatrix) -> bool:
    """Independent re-check of every gridding invariant: cells inside the
    matrix and nonzero, column assignment weakly increasing in position, row
    assignment weakly increasing in value, and each cell's content monotone
    per its sign.  A gridding whose ``perm`` is not a permutation of 1..n,
    or whose cells are not pairs of integers, is rejected too.  One pass
    over the entries in position order checks all of it but the rows, and
    keeps the last value seen in each cell and the row of each value; the
    rows are then read in value order.

    >>> validate_gridded(GriddedPermutation((1, 3), ((1, 1), (1, 1))), X_MATRIX)
    False
    """
    pi = gp.perm
    n = len(pi)
    row_of_value = [0] * n
    last, col = {}, 1
    for v, cell in zip(pi, gp.cells):
        if type(v) is not int or not 0 < v <= n or row_of_value[v - 1] or len(cell) != 2:
            return False
        k, l = cell
        if type(k) is not int or type(l) is not int:
            return False
        if not (col <= k <= m.cols and 1 <= l <= m.rows):
            return False
        sign = m.signs[k - 1][l - 1]
        if not sign or (v - last.get(cell, v)) * sign < 0:
            return False
        last[cell], row_of_value[v - 1], col = v, l, k
    return row_of_value == sorted(row_of_value)


def _line_fits(reading_order, signs) -> bool:
    """Whether a line whose nonzero cells have ``signs``, in order along the
    line, can hold the entries it reads in ``reading_order``: the entries
    must split into consecutive bands, one per cell and possibly empty, each
    monotone in its cell's sign.  Each cell in turn takes the longest
    monotone run from where the last one stopped, and the line fits when
    the runs use up every entry.  The greedy split is exact, since a subset
    of a monotone run is monotone; a line with no nonzero cell must be
    empty.

    >>> _line_fits((1, 3, 2), (1,)), _line_fits((3, 2), (-1,)), _line_fits((1,), ())
    (False, True, False)
    >>> _line_fits((1, 3, 2), (1, -1)), _line_fits((1, 3, 2, 4), (1, -1))
    (True, False)
    """
    n, i = len(reading_order), 0
    for s in signs:
        if i == n:
            break
        i += 1
        while i < n and (reading_order[i] - reading_order[i - 1]) * s > 0:
            i += 1
    return i == n


def _fitting_cuts(inv, lines) -> Iterator[tuple]:
    """Every cut of a permutation's positions into consecutive runs, one for
    each line in turn, that leaves every line fitting on its own, as the
    line (numbered from 1) of each position.  The order is ascending in the
    cut points, which is the order of ascending part sizes; lazy, so a
    search can stop at the first cut.

    ``inv`` is the inverse of the permutation, so it lists the positions in
    value order, and the entries of the run of positions ``a+1..b`` read by
    value are the items of ``inv`` in that range.  ``lines[k]`` lists line
    k+1's nonzero signs, and a run fits when those entries pass
    :func:`_line_fits`, that is, when they split into one monotone band per
    nonzero cell.  A gridding cuts columns this way, and its rows are the
    same cut of the inverse permutation (whose inverse is the permutation
    itself), read by position.  A longer run from the same start holds
    every entry of a run that fails, and removing entries from a band keeps
    it monotone, so the longer run fails too: the search moves on without
    building it or its continuations.  It runs off a stack of (line, start,
    next cut point, cut so far) entries, with no Python frame per line.

    >>> list(_fitting_cuts((1, 2), [[1], [1]]))
    [(2, 2), (1, 2), (1, 1)]
    >>> list(_fitting_cuts((2, 1), [[1], [1]]))
    [(1, 2)]
    >>> list(_fitting_cuts((2, 1), [[1], [], [-1]]))
    [(3, 3), (1, 3)]
    """
    n, last = len(inv), len(lines) - 1
    stack = [(0, 0, n if last == 0 else 0, ())]  # the last line's run ends at n
    while stack:
        k, a, b, cut = stack.pop()
        if b > n or not _line_fits([i for i in inv if a < i <= b], lines[k]):
            continue
        head = cut + (k + 1,) * (b - a)
        if k == last:
            yield head
        else:
            # line k's next cut point waits below every cut that continues this one
            stack += [(k, a, b + 1, cut), (k + 1, b, n if k + 1 == last else b, head)]


def _inverse(pi: Perm) -> list:
    """The inverse of ``pi``, as the positions (from 1) of its values in
    increasing order, built by assignment; ``ValueError`` unless ``pi`` is
    a tuple of the ints 1..n.

    >>> _inverse((3, 1, 2))
    [2, 3, 1]
    """
    n = len(pi)
    inv = [0] * n
    if type(pi) is tuple:
        for i, v in enumerate(pi, 1):
            if type(v) is not int or not 0 < v <= n or inv[v - 1]:
                break
            inv[v - 1] = i
        else:
            return inv
    raise ValueError(f"not a permutation of 1..{n}: {pi!r}")


def _griddings(pi: Perm, m: ZeroPmOneMatrix) -> Iterator[GriddedPermutation]:
    """All legal griddings, column cuts outer, value cuts inner, both in
    lexicographic order of their part sizes.  Each column and each row is
    tested on its own as its cut is built (a column reads its entries by
    value, a row by position), so a cut that leaves some line unable to
    split into one monotone band per nonzero cell is dropped before any
    pair is built.  Each pair of fitting cuts is then decided inline, in one
    pass over the entries in position order: the pair is dropped at the
    first entry whose cell is zero, or whose value is out of its cell's
    monotone order (rising in a +1 cell, falling in a −1 cell).  Only a
    legal gridding is built, and :func:`validate_gridded` rechecks each one
    that is yielded.  The row cuts are built once, only as the first fitting
    column cut reads them, so a search that stops early builds no cut
    list.  ``ValueError`` before any cut is built unless ``pi`` is a tuple
    of the ints 1..n."""
    inv = _inverse(pi)
    kept, fresh = [], _fitting_cuts(pi, m._row_lines)

    def row_cuts():
        yield from kept
        for cut in fresh:
            kept.append(cut)
            yield cut

    for col_of_pos in _fitting_cuts(inv, m._column_lines):
        for row_of_value in row_cuts():
            cells, last = [], {}
            for k, v in zip(col_of_pos, pi):
                cell = (k, row_of_value[v - 1])
                sign = m.signs[k - 1][cell[1] - 1]
                if not sign or (v - last.get(cell, v)) * sign < 0:
                    break
                last[cell] = v
                cells.append(cell)
            else:
                gp = GriddedPermutation(pi, cells)
                if not validate_gridded(gp, m):
                    raise RuntimeError(f"gridding of {pi} fails its own recheck: {gp.cells}")
                yield gp


def grid_member(
    pi: Perm, m: ZeroPmOneMatrix, max_n: Optional[int] = None
) -> Optional[GriddedPermutation]:
    """The first legal gridding (search order: column cuts outer, value cuts
    inner, lexicographic in part sizes), or None when no lines divide the
    plot into correctly monotone cells.  ``ValueError`` unless ``pi`` is a
    tuple of the ints 1..n.

    >>> grid_member((3, 1, 4, 2), X_MATRIX) is not None
    True
    >>> grid_member((2, 1, 4, 3), X_MATRIX) is None
    True
    """
    check_size("grid_member", len(pi), 12, max_n)
    return next(_griddings(pi, m), None)


def _geometric_system(gp: GriddedPermutation, m: ZeroPmOneMatrix) -> list:
    """Strict constraints on one parameter per point placing the gridded
    permutation on the standard figure.  Point i in cell (k, l) with sign s
    sits at x = k−1+t_i and y = l − (1+s)/2 + s·t_i."""
    pi = gp.perm
    n = len(pi)
    constraints = []

    def row(*pairs, rhs):
        coeffs = [0] * n
        for idx, c in pairs:
            coeffs[idx] += c
        return (tuple(coeffs), rhs)

    for i in range(n):
        constraints.append(row((i, 1), rhs=1))   # t_i < 1
        constraints.append(row((i, -1), rhs=0))  # -t_i < 0
    for i in range(n):
        for j in range(i + 1, n):
            ki, li = gp.cells[i]
            kj, lj = gp.cells[j]
            if ki == kj:
                # x increases with position: t_i < t_j
                constraints.append(row((i, 1), (j, -1), rhs=0))
            if li == lj:
                # y increases with value: y_lo < y_hi
                lo, hi = (i, j) if pi[i] < pi[j] else (j, i)
                slo = m.entry(*gp.cells[lo])
                shi = m.entry(*gp.cells[hi])
                constraints.append(row((lo, slo), (hi, -shi), rhs=(slo - shi) // 2))
    return constraints


def geom_member(
    pi: Perm, m: ZeroPmOneMatrix, max_n: Optional[int] = None
) -> Optional[tuple]:
    """A drawing of ``pi`` on the standard figure, as ``(gridding, params)``
    with one exact rational parameter per point, or None.  Every legal
    gridding is tried; for each, the strict linear system of same-column and
    same-row order constraints is solved exactly.  ``ValueError`` unless
    ``pi`` is a tuple of the ints 1..n.

    >>> geom_member((3, 1, 4, 2), X_MATRIX) is None
    True
    >>> gp, params = geom_member((3, 2, 1), matrix_from_rows_top_first([[-1]]))
    >>> gp.cells
    ((1, 1), (1, 1), (1, 1))
    """
    check_size("geom_member", len(pi), 10, max_n)
    for gp in _griddings(pi, m):
        constraints = _geometric_system(gp, m)
        witness = solve_strict(len(pi), constraints)
        if witness is not None:
            if not check_strict(witness, constraints):
                raise RuntimeError(f"drawing of {pi} fails its own constraints: {witness}")
            return gp, witness
    return None


def drawing_coordinates(
    gp: GriddedPermutation, m: ZeroPmOneMatrix, params
) -> tuple:
    """The (x, y) point of each index for a parameter witness, one parameter
    per point of the gridding (``ValueError`` otherwise)."""
    if len(params) != len(gp.cells):
        raise ValueError(f"{len(params)} parameters for a gridding of {len(gp.cells)} points")
    out = []
    for i, (k, l) in enumerate(gp.cells):
        t = Fraction(params[i])
        s = m.entry(k, l)
        out.append((k - 1 + t, l - (1 + s) // 2 + s * t))
    return tuple(out)


def _orientation(m: ZeroPmOneMatrix) -> Optional[tuple]:
    """A consistent orientation of ``m``: a sign c_k per column and r_l per
    row with ``entry(k, l) = c_k·r_l`` on every nonzero cell, as the pair
    ``(column signs, row signs)``, or None when two cells conflict.  Signs
    spread across the nonzero cells from each column not reached yet; a row
    with no nonzero cell gets +1.

    >>> _orientation(X_MATRIX)
    ((1, -1), (1, -1))
    >>> _orientation(matrix_from_rows_top_first([[1, 1], [1, -1]])) is None
    True
    """
    cells = m.nonzero_cells()
    col, row = [0] * (m.cols + 1), [0] * (m.rows + 1)
    for start in range(1, m.cols + 1):
        if col[start]:
            continue
        col[start] = spread = 1
        while spread:
            spread = 0
            for k, l in cells:
                if col[k] and not row[l]:
                    row[l], spread = m.entry(k, l) * col[k], 1
                elif row[l] and not col[k]:
                    col[k], spread = m.entry(k, l) * row[l], 1
    if any(col[k] * row[l] != m.entry(k, l) for k, l in cells):
        return None
    return tuple(col[1:]), tuple([s or 1 for s in row[1:]])


def _drawn_layers(
    m: ZeroPmOneMatrix, n: int, col_sign: tuple, row_sign: tuple
) -> Iterator[list]:
    """The sorted members of each length 0..n of the geometric class of
    ``m``, oriented by the column and row signs of :func:`_orientation`,
    built one point at a time without a solver.

    With signs c_k, r_l, the segment of cell (k, l) starts on the left edge
    of column k when c_k = 1 (the right edge when −1) and on the bottom edge
    of row l when r_l = 1 (the top edge when −1), so a point's distance
    along it is its distance from both of those edges.  Read the points of
    a drawing by increasing distance (distinct after a small shift, which
    keeps the permutation): each lies beyond every earlier point of its
    column and of its row, at the column's far end and the row's far end.
    So the members are the permutations built by appending cells one at a
    time that way (the word encoding of Albert, Atkinson, Bouvel, Ruškuc and
    Vatter), and what an append gives depends only on the state (perm,
    column sizes, row sizes), which is deduplicated at each length.  The
    last length keeps perms only: it has the most states by far (656 343
    for 4 999 perms on the 3×3 all-ones matrix at n = 7).
    """
    # per cell: its column and row, and how many columns and rows lie before
    # the end of the column and the end of the row the new point joins
    ends = [
        (k - 1, k - (col_sign[k - 1] < 0), l - 1, l - (row_sign[l - 1] < 0))
        for k, l in m.nonzero_cells()
    ]
    states = {((), (0,) * m.cols, (0,) * m.rows)}
    yield [()]
    for length in range(1, n + 1):
        grown = set()
        for perm, cs, rs in states:
            col_cut = list(itertools.accumulate(cs, initial=0))
            row_cut = list(itertools.accumulate(rs, initial=0))
            for k, before_k, l, before_l in ends:
                pos, val = col_cut[before_k], row_cut[before_l]
                lifted = tuple([v + (v > val) for v in perm])
                drawn = lifted[:pos] + (val + 1,) + lifted[pos:]
                if length < n:
                    drawn = (
                        drawn,
                        cs[:k] + (cs[k] + 1,) + cs[k + 1:],
                        rs[:l] + (rs[l] + 1,) + rs[l + 1:],
                    )
                grown.add(drawn)
        states = grown
        yield sorted(states) if length == n else sorted({s[0] for s in states})


#: The membership decider of each kind of grid class.
_DECIDERS = {"monotone": grid_member, "geometric": geom_member}
GRID_KINDS = tuple(_DECIDERS)
#: Default length cap of :func:`enumerate_grid`.
ENUMERATE_GRID_MAX_N = 7


def _grid_layers(
    m: ZeroPmOneMatrix, n: int, kind: str, max_n: Optional[int] = None
) -> Iterator[list]:
    """The sorted members of each length 0..n of the monotone or geometric
    class, as one pass.  A consistently oriented matrix's geometric class is
    built from gridded drawings, one point at a time.  Otherwise, as both
    classes are closed under deleting points, the class is built layer by
    layer from one-point extensions of the shorter members, each decided by
    its membership test.  Lazy: nothing is built before the first length is
    read."""
    signs = _orientation(m) if kind == "geometric" else None
    if signs is not None:
        yield from _drawn_layers(m, n, *signs)
        return
    decide = _DECIDERS[kind]
    for members, _ in _tuple_layers(lambda pi: decide(pi, m, max_n=max_n) is not None, n):
        yield sorted(members)


def enumerate_grid(
    m: ZeroPmOneMatrix, n: int, kind: str, max_n: Optional[int] = None
) -> tuple:
    """All length-n members of the monotone or geometric class, sorted: the
    last length of :func:`_grid_layers`.

    >>> len(enumerate_grid(X_MATRIX, 4, "monotone"))
    22
    >>> len(enumerate_grid(X_MATRIX, 4, "geometric"))
    20
    """
    if kind not in GRID_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {GRID_KINDS}")
    check_size("enumerate_grid", n, ENUMERATE_GRID_MAX_N, max_n)
    for members in _grid_layers(m, n, kind, max_n):
        pass
    return tuple(members)


@dataclass(frozen=True)
class GriddabilityVerdict:
    """See :func:`griddability_verdict`; an exit is ``(k, beta, witness)``."""

    griddable: bool
    sum_exit: Optional[tuple]
    skew_exit: Optional[tuple]


def griddability_verdict(c: PermClass) -> GriddabilityVerdict:
    """Whether C = Av(B) is monotone griddable (one 0/±1 matrix grids every
    member), read off the basis with no membership test.

    The patterns of ⊕ᵏ21 are the direct sums of at most k parts, each 1 or
    21.  So C holds every ⊕ᵏ21 (``sum_exit`` is None) unless some β ∈ B has
    all its direct-sum components in {1, 21}; else ``sum_exit`` is ``(k, β,
    containment_witness(β, ⊕ᵏ21))``, β the first with the fewest components
    and k their number, the least k with ⊕ᵏ21 ∉ C.  Dually ``skew_exit``: ⊖ᵏ12, {1, 12}.

    Without an exit C is not griddable: if a matrix with c columns, r rows
    and m nonzero cells grids ⊕ᵏ21, its c + r − 2 lines each cut at most one
    21, and each uncut 21 fills a decreasing cell of its own (two in one
    cell make a 12), so k ≤ m + c + r − 2; dually for ⊖ᵏ12.  With both it
    is: a class is monotone griddable iff it does not contain arbitrarily
    long sums of 21 or skew sums of 12 (Huczynska and Vatter, "Grid classes
    and the Fibonacci dichotomy for restricted permutations", Electron. J.
    Combin. 13 (2006)).  The exits carry witnesses; no matrix is built.

    >>> v = griddability_verdict(PermClass(((3, 2, 1),)))
    >>> (v.griddable, v.sum_exit, v.skew_exit)
    (False, None, (3, (3, 2, 1), (1, 3, 5)))
    """
    exits = []
    for direction, block in (("direct", (2, 1)), ("skew", (1, 2))):
        # a component of length <= 2 that does not split is 1 or the block
        cuts = [(len(parts), beta) for beta in c.basis
                for parts in [components(beta, direction)] if all(len(p) <= 2 for p in parts)]
        k, beta = min(cuts, key=lambda cut: cut[0], default=(0, None))
        chain = ()
        for _ in range(k):
            chain = sum_perms(chain, block, direction)
        exits.append(None if beta is None else (k, beta, containment_witness(beta, chain)))
    return GriddabilityVerdict(None not in exits, *exits)
