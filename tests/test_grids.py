"""Tests for gridded permutations: 0/±1 matrices, cell graphs, monotone and
geometric grid classes, drawings, and the griddability verdict."""

import itertools
import tracemalloc

import pytest

from permpat import grids
from permpat import (
    GriddedPermutation,
    PermClass,
    SizeGuardError,
    X_MATRIX,
    ZeroPmOneMatrix,
    all_matrices,
    avoiding,
    cell_graph,
    classify,
    drawing_coordinates,
    enumerate_grid,
    enumerate_members,
    geom_member,
    grid_member,
    griddability_verdict,
    matrix_from_json,
    matrix_from_rows_top_first,
    matrix_to_json,
    minimal_nonmembers,
    validate_gridded,
)
from permpat.feasibility import solve_strict
from permpat.perm import all_perms, contains, reduce_sequence, sum_perms


class TestMatrixConstruction:
    def test_rows_top_first_orientation(self):
        # Cartesian indexing: entry(col, row) with row 1 at the bottom
        m = matrix_from_rows_top_first([[-1, 1], [1, -1]])
        assert m.entry(1, 1) == 1
        assert m.entry(1, 2) == -1
        assert m.entry(2, 1) == -1
        assert m.entry(2, 2) == 1

    def test_x_matrix_is_that_shape(self):
        assert X_MATRIX == matrix_from_rows_top_first([[-1, 1], [1, -1]])
        assert X_MATRIX.nonzero_cells() == ((1, 1), (1, 2), (2, 1), (2, 2))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            ZeroPmOneMatrix(1, 1, ((2,),))

    @pytest.mark.parametrize("entry", [True, False, 1.0, 0.0, -1.0])
    def test_rejects_entries_equal_to_but_not_ints(self, entry):
        with pytest.raises(ValueError, match="must be -1, 0, or 1"):
            ZeroPmOneMatrix(1, 1, ((entry,),))

    @pytest.mark.parametrize("cols, rows", [(True, 1), (1, True), (1.0, 1), ("1", 1)])
    def test_rejects_dimensions_that_are_not_ints(self, cols, rows):
        with pytest.raises(ValueError, match="must be ints"):
            ZeroPmOneMatrix(cols, rows, ((1,),))

    def test_json_roundtrip_every_small_matrix(self):
        matrices = list(all_matrices(2, 2))
        assert len(matrices) == 3 + 9 + 9 + 81
        for m in matrices:
            assert matrix_from_json(matrix_to_json(m)) == m

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            ZeroPmOneMatrix(2, 1, ((1,),))
        with pytest.raises(ValueError):
            matrix_from_rows_top_first([[1, 1], [1]])
        with pytest.raises(ValueError):
            matrix_from_rows_top_first([])

    def test_entry_bounds(self):
        with pytest.raises(IndexError):
            X_MATRIX.entry(3, 1)
        with pytest.raises(IndexError):
            X_MATRIX.entry(1, 0)

    def test_json_roundtrip(self):
        data = matrix_to_json(X_MATRIX)
        assert data == {"cols": 2, "rows": 2, "entries": [[-1, 1], [1, -1]]}
        assert matrix_from_json(data) == X_MATRIX

    def test_json_accepts_string(self):
        text = '{"cols": 1, "rows": 1, "entries": [[-1]]}'
        assert matrix_from_json(text) == matrix_from_rows_top_first([[-1]])

    @pytest.mark.parametrize(
        "data",
        [
            {"rows": 1, "entries": [[1]]},
            {"cols": 1, "entries": [[1]]},
            {"cols": 1, "rows": 1},
            {"cols": "1", "rows": 1, "entries": [[1]]},
            {"cols": 1, "rows": True, "entries": [[1]]},
            {"cols": 1, "rows": 1, "entries": [1]},
            [[1]],
        ],
    )
    def test_json_missing_or_ill_typed_field(self, data):
        with pytest.raises(ValueError, match="a matrix is an object"):
            matrix_from_json(data)

    def test_json_shape_mismatch(self):
        with pytest.raises(ValueError):
            matrix_from_json({"cols": 3, "rows": 2, "entries": [[-1, 1], [1, -1]]})

    def test_all_matrices_counts(self):
        assert len(list(all_matrices(1, 1))) == 3
        # 1x1 (3) + 1x2 (9) + 2x1 (9) + 2x2 (81)
        assert len(list(all_matrices(2, 2))) == 102


class TestCellGraph:
    def test_x_matrix_gives_four_cycle(self):
        g = cell_graph(X_MATRIX)
        assert g.n == 4
        assert g.labels == ((1, 1), (1, 2), (2, 1), (2, 2))
        assert sorted(g.edges) == [(1, 2), (1, 3), (2, 4), (3, 4)]
        assert classify(g)["is_cycle"]

    def test_zero_cells_do_not_block_edges(self):
        g = cell_graph(matrix_from_rows_top_first([[1, 0, 1]]))
        assert g.n == 2
        assert sorted(g.edges) == [(1, 2)]

    def test_nonzero_cell_between_blocks_edge(self):
        g = cell_graph(matrix_from_rows_top_first([[1, 1, 1]]))
        assert sorted(g.edges) == [(1, 2), (2, 3)]

    def test_single_cell(self):
        g = cell_graph(matrix_from_rows_top_first([[-1]]))
        assert g.n == 1
        assert g.edges == frozenset()


def _compositions(total, parts):
    """Weak compositions in lexicographic order (the previous cut source)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def validate_gridded_by_scans(gp, m):
    """Oracle: :func:`grids.validate_gridded` as it was first written, with
    a value→row dict and one scan of every entry per distinct cell."""
    pi = gp.perm
    n = len(pi)
    if any(type(v) is not int for v in pi) or set(pi) != set(range(1, n + 1)):
        return False
    for cell in gp.cells:
        if len(cell) != 2 or any(type(x) is not int for x in cell):
            return False
        k, l = cell
        if not (1 <= k <= m.cols and 1 <= l <= m.rows) or m.entry(k, l) == 0:
            return False
    for i in range(n - 1):
        if gp.cells[i][0] > gp.cells[i + 1][0]:
            return False
    row_of_value = {pi[i]: gp.cells[i][1] for i in range(n)}
    for v in range(1, n):
        if row_of_value[v] > row_of_value[v + 1]:
            return False
    for cell in set(gp.cells):
        content = [pi[i] for i in range(n) if gp.cells[i] == cell]
        sign = m.entry(*cell)
        ordered = sorted(content) if sign == 1 else sorted(content, reverse=True)
        if content != ordered:
            return False
    return True


def composition_griddings(pi, m):
    """Every (column cut, value cut) pair of ``pi`` as a gridding, legal or
    not, column cuts outer and value cuts inner, each cut a weak
    composition of the entries in lexicographic order."""
    n = len(pi)
    for col_sizes in _compositions(n, m.cols):
        col_of_pos = [k for k, size in enumerate(col_sizes, start=1) for _ in range(size)]
        for row_sizes in _compositions(n, m.rows):
            row_of_value = [l for l, size in enumerate(row_sizes, start=1) for _ in range(size)]
            yield GriddedPermutation(pi, [(col_of_pos[i], row_of_value[pi[i] - 1]) for i in range(n)])


def griddings_from_compositions(pi, m):
    """Oracle: every legal gridding, in the order of
    :func:`composition_griddings`, decided by the scanning recheck, so it
    shares no code with the gridding kernel."""
    return [gp for gp in composition_griddings(pi, m) if validate_gridded_by_scans(gp, m)]


def cell_graph_by_scan(m):
    """Oracle: join two nonzero cells of a common column or row when every
    cell strictly between them is zero."""
    cells = m.nonzero_cells()
    index = {cell: i + 1 for i, cell in enumerate(cells)}
    edges = set()
    for a in cells:
        for b in cells:
            if a >= b:
                continue
            if a[0] == b[0]:
                between = [m.entry(a[0], l) for l in range(a[1] + 1, b[1])]
            elif a[1] == b[1]:
                between = [m.entry(k, a[1]) for k in range(a[0] + 1, b[0])]
            else:
                continue
            if not any(between):
                edges.add((index[a], index[b]))
    return (len(cells), frozenset(edges), cells if cells else None)


class TestAgainstOracles:
    @staticmethod
    def _assert_same_griddings(pi, m):
        got = [gp.cells for gp in grids._griddings(pi, m)]
        assert got == [gp.cells for gp in griddings_from_compositions(pi, m)], (m, pi)
        return got

    def test_griddings_every_matrix_up_to_two_by_two(self):
        # the recheck agrees with the scanning oracle on every pair of cuts,
        # legal or not, and the kernel yields exactly the legal ones
        found = 0
        for m in all_matrices(2, 2):
            for n in range(6):
                for pi in all_perms(n):
                    pairs = list(composition_griddings(pi, m))
                    verdicts = [validate_gridded_by_scans(gp, m) for gp in pairs]
                    assert [validate_gridded(gp, m) for gp in pairs] == verdicts, (m, pi)
                    got = [gp.cells for gp in grids._griddings(pi, m)]
                    assert got == [gp.cells for gp, ok in zip(pairs, verdicts) if ok], (m, pi)
                    found += len(got)
        assert found == 22_288

    @pytest.mark.parametrize(
        "rows",
        [
            [[-1, 1], [1, -1]],
            [[1, 0, -1], [0, 1, 1]],
            [[1, -1], [0, 1], [1, 0]],
            [[-1, 1, 0], [0, -1, 1]],
            [[0, -1], [1, 1], [-1, 0]],
        ],
    )
    def test_griddings_at_six(self, rows):
        m = matrix_from_rows_top_first(rows)
        many = 0
        for pi in all_perms(6):
            many += len(self._assert_same_griddings(pi, m)) > 1
        assert many > 0

    @pytest.mark.parametrize(
        "rows",
        [[list(signs)] for signs in itertools.product((1, -1), repeat=3)]
        + [[[s] for s in signs] for signs in itertools.product((1, -1), repeat=3)]
        + [[[1, 1, 1], [1, -1, 1], [1, 1, 1]]],
    )
    # the single line of each 1×3 and 3×1 matrix with no zero entry, and
    # every line of the 3×3 one, has three nonzero cells
    def test_griddings_with_three_cells_in_a_line(self, rows):
        m = matrix_from_rows_top_first(rows)
        for n in range(6):
            for pi in all_perms(n):
                self._assert_same_griddings(pi, m)

    def test_cell_graphs_every_matrix_up_to_three_by_three(self):
        for m in all_matrices(3, 3):
            g = cell_graph(m)
            assert (g.n, g.edges, g.labels) == cell_graph_by_scan(m), m


def line_fits_by_splits(order, signs):
    """Oracle: some split of ``order`` into ``len(signs)`` consecutive,
    possibly empty, parts has each part monotone in its sign."""
    if not signs:
        return not order
    for sizes in _compositions(len(order), len(signs)):
        start, ok = 0, True
        for size, s in zip(sizes, signs):
            part = order[start:start + size]
            ok = ok and all((b - a) * s > 0 for a, b in zip(part, part[1:]))
            start += size
        if ok:
            return True
    return False


class TestBandTest:
    def test_line_fits_against_every_split(self):
        cases = 0
        for n in range(7):
            for order in all_perms(n):
                for length in range(4):
                    for signs in itertools.product((1, -1), repeat=length):
                        assert grids._line_fits(order, signs) == line_fits_by_splits(
                            order, signs
                        ), (order, signs)
                        cases += 1
        assert cases == 13_110


class TestMonotoneGridding:
    @staticmethod
    def _assert_identity_gridded_in_little_memory(m):
        tracemalloc.start()
        try:
            gp = grid_member(tuple(range(1, 13)), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gp is not None and validate_gridded(gp, m)
        assert peak < 1_000_000, peak

    def test_first_column_cut_needs_no_cut_list(self):
        # 1×10 all-increasing: the first column cut already grids the
        # identity, so the other 293 929 column cuts are never built
        self._assert_identity_gridded_in_little_memory(
            ZeroPmOneMatrix(10, 1, tuple((1,) for _ in range(10)))
        )

    def test_first_row_cut_needs_no_cut_list(self):
        # 10×1 all-increasing: the first row cut that the one column cut
        # meets grids the identity, so the other row cuts are never built
        self._assert_identity_gridded_in_little_memory(ZeroPmOneMatrix(1, 10, ((1,) * 10,)))

    @staticmethod
    def _fitting_pairs(pi, m):
        """How many (column cut, row cut) pairs of fitting cuts ``pi`` has."""
        inv = sorted(range(1, len(pi) + 1), key=lambda i: pi[i - 1])
        columns = [[s for s in col if s] for col in m.signs]
        rows = [[col[l] for col in m.signs if col[l]] for l in range(m.rows)]
        return sum(1 for _ in grids._fitting_cuts(inv, columns)) * sum(
            1 for _ in grids._fitting_cuts(pi, rows)
        )

    def test_pairs_built_only_from_fitting_cuts(self, monkeypatch):
        calls = []

        def counting(gp, m):
            calls.append(gp)
            return validate_gridded(gp, m)

        monkeypatch.setattr(grids, "validate_gridded", counting)
        # the one column cut leaves a decreasing column in a +1 cell
        assert grid_member((2, 1), ZeroPmOneMatrix(1, 1, ((1,),))) is None
        assert calls == []
        # over S6: each line keeps only the cuts whose entries split into one
        # monotone band per nonzero cell, which leaves 3 074 of X's 720 · 49
        # (column cut, row cut) pairs and 6 900 of the 720 · 28 · 7 pairs of
        # a 3×2 matrix.  Each pair is decided inline, so only the griddings
        # found are built and rechecked
        for rows, pairs, found in (
            ([[-1, 1], [1, -1]], 3_074, 2_092),
            ([[1, 0, -1], [0, 1, 1]], 6_900, 1_093),
        ):
            m = matrix_from_rows_top_first(rows)
            calls.clear()
            griddings = sum(len(list(grids._griddings(pi, m))) for pi in all_perms(6))
            assert sum(self._fitting_pairs(pi, m) for pi in all_perms(6)) == pairs, rows
            assert (len(calls), griddings) == (found, found), rows

    def test_failed_recheck_raises(self, monkeypatch):
        monkeypatch.setattr(grids, "validate_gridded", lambda gp, m: False)
        with pytest.raises(RuntimeError, match="fails its own recheck"):
            grid_member((1, 2), ZeroPmOneMatrix(1, 1, ((1,),)))

    def test_member_witness(self):
        gp = grid_member((3, 1, 4, 2), X_MATRIX)
        assert gp is not None
        assert gp.perm == (3, 1, 4, 2)
        assert validate_gridded(gp, X_MATRIX)

    def test_nonmember(self):
        assert grid_member((2, 1, 4, 3), X_MATRIX) is None

    def test_every_witness_validates(self):
        for n in range(1, 6):
            for pi in enumerate_grid(X_MATRIX, n, "monotone"):
                assert validate_gridded(grid_member(pi, X_MATRIX), X_MATRIX)

    def test_counts(self):
        got = [len(enumerate_grid(X_MATRIX, n, "monotone")) for n in range(1, 7)]
        assert got == [1, 2, 6, 22, 86, 340]

    def test_negative_length_refused(self):
        with pytest.raises(ValueError, match="negative"):
            enumerate_grid(X_MATRIX, -2, "monotone")

    def test_class_is_av_2143_3412(self):
        c = avoiding((2, 1, 4, 3), (3, 4, 1, 2))
        for n in range(1, 6):
            assert enumerate_grid(X_MATRIX, n, "monotone") == enumerate_members(c, n)

    def test_basis_recovered(self):
        found = minimal_nonmembers(
            lambda p: grid_member(p, X_MATRIX) is not None, 5
        )
        assert found == ((2, 1, 4, 3), (3, 4, 1, 2))

    def test_validate_rejects_garbled_cells(self):
        # column assignment must be weakly increasing with position
        gp = GriddedPermutation((1, 2), ((2, 2), (1, 1)))
        assert not validate_gridded(gp, X_MATRIX)

    def test_validate_rejects_zero_cell(self):
        m = matrix_from_rows_top_first([[0, 1]])
        gp = GriddedPermutation((1,), ((1, 1),))
        assert not validate_gridded(gp, m)

    def test_validate_rejects_cell_outside_matrix(self):
        for cells in (((3, 1), (1, 1)), ((1, 1), (1, 3)), ((0, 1), (1, 1)), ((1, 0), (1, 1))):
            assert not validate_gridded(GriddedPermutation((1, 2), cells), X_MATRIX), cells

    #: Griddings that are not a permutation of 1..n (a gap, a repeat, a 0,
    #: entries that are not integers), or whose cells are not pairs of
    #: integers.
    MALFORMED = [
        GriddedPermutation(perm, ((1, 1), (1, 1)))
        for perm in ((1, 3), (1, 1), (0, 1), (1.0, 2), ([1], 2))
    ] + [
        GriddedPermutation((1,), (cell,))
        for cell in ((1, 1, 1), (1,), ("a", 1), (1.5, 1), (True, 1))
    ]

    def test_validate_rejects_malformed_griddings(self):
        # each is refused, never raised on, as by the scanning oracle (which
        # TestAgainstOracles compares on every pair of cuts up to 2×2)
        for gp in self.MALFORMED:
            assert validate_gridded(gp, X_MATRIX) is False, gp
            assert validate_gridded_by_scans(gp, X_MATRIX) is False, gp

    def test_cells_length_checked(self):
        with pytest.raises(ValueError):
            GriddedPermutation((1, 2), ((1, 1),))

    @pytest.mark.parametrize("decide", [grid_member, geom_member])
    @pytest.mark.parametrize(
        "pi", [(5, 1), (1, 1), (0, 1), (-1, 1), (True, 2), (1.0, 2), ("1", 2), [1, 2]]
    )
    def test_non_permutation_refused_before_any_cut(self, monkeypatch, decide, pi):
        calls = []
        monkeypatch.setattr(grids, "_fitting_cuts", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="not a permutation"):
            decide(pi, X_MATRIX)
        assert calls == []


class TestGeometricGridding:
    def test_counts(self):
        got = [len(enumerate_grid(X_MATRIX, n, "geometric")) for n in range(1, 8)]
        assert got == [1, 2, 6, 20, 68, 232, 792]
        # the recurrence the rational generating function of the word
        # encoding predicts
        for n in (6, 7):
            assert got[n - 1] == 4 * got[n - 2] - 2 * got[n - 3]

    def test_difference_at_four(self):
        mono = set(enumerate_grid(X_MATRIX, 4, "monotone"))
        geo = set(enumerate_grid(X_MATRIX, 4, "geometric"))
        assert mono - geo == {(2, 4, 1, 3), (3, 1, 4, 2)}
        assert geo <= mono

    def test_known_members_and_nonmembers(self):
        assert geom_member((1, 2, 3, 4), X_MATRIX) is not None
        assert geom_member((3, 1, 4, 2), X_MATRIX) is None
        assert geom_member((2, 4, 1, 3), X_MATRIX) is None
        assert geom_member((2, 1, 4, 3), X_MATRIX) is None

    def test_class_is_skew_merged_and_separable(self):
        c = avoiding((2, 1, 4, 3), (3, 4, 1, 2), (2, 4, 1, 3), (3, 1, 4, 2))
        for n in range(1, 6):
            assert enumerate_grid(X_MATRIX, n, "geometric") == enumerate_members(c, n)

    def test_basis_recovered(self):
        found = minimal_nonmembers(
            lambda p: geom_member(p, X_MATRIX) is not None, 5
        )
        assert found == (
            (2, 1, 4, 3),
            (2, 4, 1, 3),
            (3, 1, 4, 2),
            (3, 4, 1, 2),
        )

    def test_witness_gridding_validates(self):
        gp, params = geom_member((1, 3, 2), X_MATRIX)
        assert validate_gridded(gp, X_MATRIX)
        assert len(params) == 3

    def test_single_negative_cell(self):
        gp, params = geom_member((3, 2, 1), matrix_from_rows_top_first([[-1]]))
        assert gp.cells == ((1, 1), (1, 1), (1, 1))


class TestDrawings:
    def _assert_faithful(self, pi, m):
        gp, params = geom_member(pi, m)
        pts = drawing_coordinates(gp, m, params)
        for i in range(len(pi)):
            for j in range(i + 1, len(pi)):
                assert pts[i][0] < pts[j][0]
                assert (pts[i][1] < pts[j][1]) == (pi[i] < pi[j])

    def test_points_realize_the_permutation(self):
        self._assert_faithful((2, 1, 3), X_MATRIX)
        self._assert_faithful((1, 4, 2, 3), X_MATRIX)
        self._assert_faithful((4, 3, 2, 1), X_MATRIX)

    def test_parameter_count_checked(self):
        gp, params = geom_member((2, 1, 3), X_MATRIX)
        for wrong in (params[:2], params + (params[0],), ()):
            with pytest.raises(ValueError, match="parameters for a gridding of 3 points"):
                drawing_coordinates(gp, X_MATRIX, wrong)

    def test_parameters_stay_inside_cells(self):
        gp, params = geom_member((2, 1, 3), X_MATRIX)
        assert all(0 < t < 1 for t in params)

    def test_witness_failing_its_system_raises(self, monkeypatch):
        # an explicit check, so it also holds under python -O
        monkeypatch.setattr(grids, "solve_strict", lambda nvars, rows: (0,) * nvars)
        with pytest.raises(RuntimeError, match="fails its own constraints"):
            geom_member((2, 1, 3), X_MATRIX)


class TestBoundaryRegression:
    """Where monotone and geometric memberships first part ways, over every
    matrix with at most two columns and rows (frozen empirical data)."""

    @staticmethod
    def _first_difference(m, nmax):
        for n in range(1, nmax + 1):
            if enumerate_grid(m, n, "monotone") != enumerate_grid(m, n, "geometric"):
                return n
        return None

    def test_forest_matrices_agree(self):
        forest = [m for m in all_matrices(2, 2) if classify(cell_graph(m))["is_forest"]]
        assert len(forest) == 86
        for m in forest:
            assert self._first_difference(m, 4) is None

    def test_non_forest_boundary(self):
        nonforest = [
            m for m in all_matrices(2, 2) if not classify(cell_graph(m))["is_forest"]
        ]
        # only the all-nonzero 2x2 matrices have a cycle in the cell graph
        assert len(nonforest) == 16
        assert all(m.nonzero_cells() == ((1, 1), (1, 2), (2, 1), (2, 2)) for m in nonforest)
        profile = sorted(
            (
                sum(1 for col in m.signs for e in col if e == -1),
                self._first_difference(m, 5),
            )
            for m in nonforest
        )
        # exactly the six matrices with two -1 entries differ by length 5:
        # the two with -1 on a diagonal at length 4, the other four at 5
        assert profile == [
            (0, None),
            (1, None), (1, None), (1, None), (1, None),
            (2, 4), (2, 4), (2, 5), (2, 5), (2, 5), (2, 5),
            (3, None), (3, None), (3, None), (3, None),
            (4, None),
        ]

    def test_all_plus_first_differs_at_six(self):
        m = matrix_from_rows_top_first([[1, 1], [1, 1]])
        witness = (2, 4, 3, 6, 5, 1)
        assert grid_member(witness, m) is not None
        assert geom_member(witness, m) is None

    def test_all_minus_first_differs_at_six(self):
        m = matrix_from_rows_top_first([[-1, -1], [-1, -1]])
        witness = (1, 5, 6, 3, 4, 2)
        assert grid_member(witness, m) is not None
        assert geom_member(witness, m) is None

    def test_odd_minus_representative_agrees_at_six(self):
        m = matrix_from_rows_top_first([[1, 1], [1, -1]])
        assert enumerate_grid(m, 6, "monotone") == enumerate_grid(m, 6, "geometric")


def sweep_grid(m, n, kind):
    """Length-n members of a grid class by deciding every permutation."""
    decide = grid_member if kind == "monotone" else geom_member
    return tuple(pi for pi in all_perms(n) if decide(pi, m) is not None)


#: The 2×3 and 3×2 matrices of the benchmark's ``geometric`` workload.
WORKLOAD_ROWS = [
    [[1, 0, -1], [0, 1, 1]],
    [[-1, 1, 0], [0, -1, 1]],
    [[1, -1], [0, 1], [1, 0]],
    [[0, -1], [1, 1], [-1, 0]],
]


class TestLayersAgainstSweep:
    @pytest.mark.parametrize("kind", grids.GRID_KINDS)
    def test_every_matrix_up_to_two_by_two(self, kind):
        for m in all_matrices(2, 2):
            for n in range(6):
                assert enumerate_grid(m, n, kind) == sweep_grid(m, n, kind), (m, n)

    @pytest.mark.parametrize("rows", WORKLOAD_ROWS)
    def test_workload_matrices_at_six(self, rows):
        m = matrix_from_rows_top_first(rows)
        assert enumerate_grid(m, 6, "geometric") == sweep_grid(m, 6, "geometric")

    def test_non_orientable_matrix_at_six(self):
        m = matrix_from_rows_top_first([[1, 1], [1, -1]])
        assert grids._orientation(m) is None
        assert enumerate_grid(m, 6, "geometric") == sweep_grid(m, 6, "geometric")

    @pytest.mark.parametrize("kind", grids.GRID_KINDS)
    @pytest.mark.parametrize(
        "rows",
        [[[-1, 1], [1, -1]], [[1, 0, -1], [0, 1, 1]], [[1, -1], [0, 1], [1, 0]]],
    )
    def test_larger_matrices_at_five(self, kind, rows):
        m = matrix_from_rows_top_first(rows)
        assert enumerate_grid(m, 5, kind) == sweep_grid(m, 5, kind)


def orientation_by_search(m):
    """Oracle: whether some column and row signs multiply to every nonzero
    entry, trying all of them."""
    cells = m.nonzero_cells()
    return any(
        all(c[k - 1] * r[l - 1] == m.entry(k, l) for k, l in cells)
        for c in itertools.product((1, -1), repeat=m.cols)
        for r in itertools.product((1, -1), repeat=m.rows)
    )


class TestOrientation:
    def test_signs_multiply_to_every_nonzero_entry(self):
        oriented = 0
        for m in all_matrices(3, 3):
            signs = grids._orientation(m)
            if signs is None:
                continue
            c, r = signs
            assert len(c) == m.cols and len(r) == m.rows, m
            assert set(c) | set(r) <= {1, -1}, m
            assert all(c[k - 1] * r[l - 1] == m.entry(k, l) for k, l in m.nonzero_cells()), m
            oriented += 1
        assert oriented > 0

    def test_none_exactly_when_no_signs_exist(self):
        for m in all_matrices(3, 2):
            assert (grids._orientation(m) is not None) == orientation_by_search(m), m
        # of the 102 matrices up to 2×2, the eight full 2×2 ones with an odd
        # number of −1 entries have no consistent orientation
        refused = [m for m in all_matrices(2, 2) if grids._orientation(m) is None]
        assert len(refused) == 8

    def test_no_solver_for_an_oriented_matrix(self, monkeypatch):
        calls = []

        def counting(nvars, rows):
            calls.append(nvars)
            return solve_strict(nvars, rows)

        monkeypatch.setattr(grids, "solve_strict", counting)
        assert len(enumerate_grid(X_MATRIX, 5, "geometric")) == 68
        assert calls == []
        # a matrix with no consistent orientation stays on the decider
        enumerate_grid(matrix_from_rows_top_first([[1, 1], [1, -1]]), 5, "geometric")
        assert calls


def four_branch_system(gp, m):
    """The drawing constraints with one branch per sign pair of a same-row
    pair, as :func:`grids._geometric_system` was first written."""
    pi = gp.perm
    n = len(pi)
    constraints = []

    def row(*pairs, rhs):
        coeffs = [0] * n
        for idx, c in pairs:
            coeffs[idx] += c
        return (tuple(coeffs), rhs)

    for i in range(n):
        constraints.append(row((i, 1), rhs=1))
        constraints.append(row((i, -1), rhs=0))
    for i in range(n):
        for j in range(i + 1, n):
            ki, li = gp.cells[i]
            kj, lj = gp.cells[j]
            if ki == kj:
                constraints.append(row((i, 1), (j, -1), rhs=0))
            if li == lj:
                lo, hi = (i, j) if pi[i] < pi[j] else (j, i)
                slo = m.entry(*gp.cells[lo])
                shi = m.entry(*gp.cells[hi])
                if slo == 1 and shi == 1:
                    constraints.append(row((lo, 1), (hi, -1), rhs=0))
                elif slo == -1 and shi == -1:
                    constraints.append(row((hi, 1), (lo, -1), rhs=0))
                elif slo == 1 and shi == -1:
                    constraints.append(row((lo, 1), (hi, 1), rhs=1))
                else:
                    constraints.append(row((lo, -1), (hi, -1), rhs=-1))
    return constraints


def test_geometric_system_matches_four_branches():
    griddings = 0
    for m in all_matrices(2, 2):
        for n in range(5):
            for pi in all_perms(n):
                for gp in grids._griddings(pi, m):
                    assert grids._geometric_system(gp, m) == four_branch_system(gp, m), gp
                    griddings += 1
    assert griddings == 7502


def _chain(k, direction):
    """The k-fold direct sum of 21 or the k-fold skew sum of 12."""
    block = (2, 1) if direction == "direct" else (1, 2)
    chain = ()
    for _ in range(k):
        chain = sum_perms(chain, block, direction)
    return chain


def _exits(verdict):
    return zip((verdict.sum_exit, verdict.skew_exit), ("direct", "skew"))


class TestGriddabilityVerdict:
    def test_component_rule_matches_brute_force(self):
        # Av(beta) has an exit iff beta lies in the chain of |beta| blocks
        checked = 0
        for n in range(1, 8):
            for beta in all_perms(n):
                for out, direction in _exits(griddability_verdict(avoiding(beta))):
                    assert (out is not None) == contains(beta, _chain(n, direction)), (beta, direction)
                    checked += 1
        assert checked == 2 * 5913

    def test_exit_is_the_least_k_and_its_witness_reduces_to_beta(self):
        for n in range(1, 8):
            for beta in all_perms(n):
                for out, direction in _exits(griddability_verdict(avoiding(beta))):
                    if out is None:
                        continue
                    k, found, witness = out
                    chain = _chain(k, direction)
                    assert found == beta
                    assert reduce_sequence([chain[i - 1] for i in witness]) == beta
                    assert not contains(beta, _chain(k - 1, direction)), (beta, direction)

    def test_fewest_components_win_over_basis_order(self):
        # 123 comes first in the basis but leaves the chain at 3 blocks;
        # 2143 leaves it at 2
        v = griddability_verdict(avoiding((1, 2, 3), (2, 1, 4, 3)))
        assert v.sum_exit == (2, (2, 1, 4, 3), (1, 2, 3, 4))
        assert v.skew_exit is None

    @pytest.mark.parametrize(
        "basis, sum_k, skew_k, griddable",
        [
            (((1,),), 1, 1, True),
            (((1, 2),), 2, 1, True),
            (((2, 1, 4, 3), (3, 4, 1, 2)), 2, 2, True),
            (((3, 2, 1),), None, 3, False),
            (((2, 1, 4, 3),), 2, None, False),
            (((2, 4, 1, 3), (3, 1, 4, 2)), None, None, False),
            ((), None, None, False),
            (((),), 0, 0, True),
        ],
    )
    def test_pinned_verdicts(self, basis, sum_k, skew_k, griddable):
        v = griddability_verdict(PermClass(basis))
        assert v.griddable is griddable
        for out, k in zip((v.sum_exit, v.skew_exit), (sum_k, skew_k)):
            assert (out is None) if k is None else (out[0] == k)

    def test_empty_class_exits_at_the_empty_chain(self):
        v = griddability_verdict(PermClass(((),)))
        assert v.sum_exit == v.skew_exit == (0, (), ())


class TestGuards:
    def test_enumerate_guard(self):
        with pytest.raises(SizeGuardError):
            enumerate_grid(X_MATRIX, 8, "monotone")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            enumerate_grid(X_MATRIX, 3, "affine")

    def test_grid_member_guard_and_override(self):
        long_identity = tuple(range(1, 14))
        with pytest.raises(SizeGuardError):
            grid_member(long_identity, X_MATRIX)
        assert grid_member(long_identity, X_MATRIX, max_n=13) is not None

    def test_geom_member_guard(self):
        with pytest.raises(SizeGuardError):
            geom_member(tuple(range(1, 12)), X_MATRIX)
