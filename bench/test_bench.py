"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m unittest discover -s bench -p "test_*.py"
"""
from __future__ import annotations

import dataclasses
import itertools
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import permpat as P  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import MATRICES, WORKLOADS, X_INDEX, Query, matrix_object  # noqa: E402

#: permpat's default size cap for each guarded call the workloads make.
SIZE_CAPS = {
    "enumerate_members": 10,
    "minimal_nonmembers": 9,
    "plus_one_basis": 9,
    "simples_in_class": 9,
    "grid_member": 12,
    "geom_member": 10,
    "enumerate_grid": 7,
}


def first_rounds(workload, count=3):
    return list(itertools.islice(workload.rounds(), count))


def kinds(rounds):
    return [[q.kind for q in rnd] for rnd in rounds]


class SeedTests(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for cls in WORKLOADS.values():
            a, b = cls(7), cls(7)
            self.assertEqual(a.inputs, b.inputs, cls.name)
            self.assertEqual(first_rounds(a), first_rounds(b), cls.name)

    def test_other_seed_other_inputs_same_mix(self):
        for cls in WORKLOADS.values():
            a, b = first_rounds(cls(7)), first_rounds(cls(8))
            self.assertEqual(kinds(a), kinds(b), cls.name)
            self.assertNotEqual(a, b, cls.name)

    def test_inputs_stay_under_default_caps(self):
        for cls in WORKLOADS.values():
            for seed in (1, 2, 3):
                for rnd in first_rounds(cls(seed), 4):
                    for q in rnd:
                        self.assertTrue(within_caps(q), (cls.name, q))


def within_caps(q: Query) -> bool:
    d = q.data
    if q.kind == "enum":
        return d[1] <= SIZE_CAPS["enumerate_members"]
    if q.kind == "minimal":
        return d[1] <= SIZE_CAPS["minimal_nonmembers"]
    if q.kind == "plus_one":
        m = max(map(len, d[0]))
        return m * (m + 1) <= SIZE_CAPS["plus_one_basis"]
    if q.kind == "simples":
        return d[1] <= SIZE_CAPS["simples_in_class"]
    if q.kind == "grid":
        return len(d[1]) <= SIZE_CAPS["grid_member"]
    if q.kind == "geom":
        return len(d[1]) <= SIZE_CAPS["geom_member"]
    if q.kind == "enum_grid":
        return d[1] <= SIZE_CAPS["enumerate_grid"]
    return True  # the remaining calls have no size guard


class OracleTests(unittest.TestCase):
    """Each check accepts permpat's answer and rejects a corrupted one."""

    def assert_rejects(self, workload, q, corrupt):
        ctx = workload.build(P)
        answer = workload.run(ctx, q)
        self.assertTrue(workload.check(q, answer), q)
        self.assertFalse(workload.check(q, corrupt(answer)), q)

    def sample(self, workload, kind, where=None):
        """The first query of ``kind`` whose data agrees with ``where``
        (position -> value)."""
        for rnd in first_rounds(workload, 2):
            for q in rnd:
                if q.kind == kind and all(q.data[i] == v for i, v in (where or {}).items()):
                    return q
        raise LookupError(kind)

    def test_enumerate(self):
        w = WORKLOADS["enumerate"](3)
        anchor = Query("enum", (((3, 2, 1),), 6, "321"))
        self.assert_rejects(w, anchor, lambda a: a[:-1])
        self.assert_rejects(w, anchor, lambda a: a[:-1] + a[-2:-1])
        self.assert_rejects(w, self.sample(w, "enum", {2: None}), lambda a: a[1:])
        self.assert_rejects(w, self.sample(w, "minimal"), lambda a: a[:-1])
        self.assert_rejects(
            w,
            self.sample(w, "plus_one"),
            lambda a: dataclasses.replace(a, basis_class=P.PermClass(a.basis_class.basis[1:])),
        )
        self.assert_rejects(w, self.sample(w, "union"), lambda a: P.PermClass(a.basis[:-1]))
        self.assert_rejects(w, self.sample(w, "simples"), lambda a: a[:-1])

    def test_search(self):
        w = WORKLOADS["search"](3)
        self.assert_rejects(w, self.sample(w, "contain", {2: True}), lambda a: a[:-1] + (a[-1] + 1,))
        self.assert_rejects(w, self.sample(w, "contain", {2: False}), lambda a: (1, 2, 3, 4))
        for flavour in ("antichain", "compass"):
            q = self.sample(w, "labeled", {0: flavour, 1: True})
            self.assert_rejects(w, q, lambda a: None)
            q = self.sample(w, "labeled", {0: flavour, 1: False})
            self.assert_rejects(w, q, lambda a: tuple(range(1, len(q.data[2][0]) + 1)))
        self.assert_rejects(w, self.sample(w, "member", {2: True}), lambda a: not a)
        self.assert_rejects(w, self.sample(w, "member", {2: False}), lambda a: not a)
        self.assert_rejects(w, self.sample(w, "embed", {2: True}), lambda a: (a[1],) + a[1:])
        self.assert_rejects(w, self.sample(w, "embed", {2: False}), lambda a: (1, 2, 3, 4))
        self.assert_rejects(w, self.sample(w, "classify"), lambda a: {**a, "is_forest": not a["is_forest"]})
        self.assert_rejects(w, self.sample(w, "longcycle"), lambda a: True)
        self.assert_rejects(w, Query("antichain", ("amr-oscillation", 1, 4)), lambda a: (False, (1, 2)))
        self.assert_rejects(w, Query("antichain", ("widdershins", 1, 3)), lambda a: (True, None))
        self.assert_rejects(w, Query("antichain", ("widdershins", 1, 3)), lambda a: (False, (2, 1)))

    def test_decompose(self):
        w = WORKLOADS["decompose"](3)
        q = Query("decompose", ((2, 1, 4, 3, 6, 8, 5, 7),))
        other = P.decompose_tree((1, 2, 3, 4, 6, 8, 5, 7))
        for i, bad in enumerate([other, [(1, 2)], None, [(1, 2)], [(8, 7)], None, None]):
            def corrupt(a, i=i, bad=bad):
                a = list(a)
                a[i] = (not a[i]) if bad is None else bad
                return tuple(a)

            self.assert_rejects(w, q, corrupt)

    def test_geometric(self):
        w = WORKLOADS["geometric"](3)
        drawn_grid = self.sample(w, "grid", {2: True})
        self.assert_rejects(w, drawn_grid, lambda a: None)
        self.assert_rejects(
            w, drawn_grid, lambda a: dataclasses.replace(a, cells=((9, 9),) + a.cells[1:])
        )
        drawn_geom = self.sample(w, "geom", {2: True})
        self.assert_rejects(w, drawn_geom, lambda a: None)
        self.assert_rejects(w, drawn_geom, lambda a: (a[0], (2,) + tuple(a[1][1:])))
        x_member = Query("geom", (X_INDEX, (2, 1, 3, 4), False))
        self.assert_rejects(w, x_member, lambda a: None)
        self.assert_rejects(w, Query("enum_grid", (X_INDEX, 4, "geometric")), lambda a: a[:-1])
        self.assert_rejects(w, Query("enum_grid", (X_INDEX, 4, "monotone")), lambda a: a + a[:1])

    def test_matrices_follow_all_matrices(self):
        ours = [matrix_object(P, m) for m in MATRICES[:X_INDEX]]
        self.assertEqual(ours, [m for m in P.all_matrices(2, 2) if m.nonzero_cells()])
        self.assertEqual(matrix_object(P, MATRICES[X_INDEX]), P.X_MATRIX)


class RunTests(unittest.TestCase):
    def test_one_round_of_each_workload_passes(self):
        for cls in WORKLOADS.values():
            w = cls(5)
            played = run.Pass()
            run.play_round(w, w.build(P), first_rounds(w, 1)[0], played)
            self.assertEqual(played.failures, [], cls.name)
            self.assertEqual(played.refusals, 0, cls.name)

    def test_tracer_wraps_every_binding_and_restores_it(self):
        tracer = Tracer(P)
        tracer.install()
        try:
            # wrapped where grids imported it, not only where it is defined
            self.assertTrue(hasattr(P.grids.solve_strict, "__wrapped__"))
            self.assertIs(P.grids.solve_strict, P.feasibility.solve_strict)
            self.assertTrue(hasattr(P.PermClass.member, "__wrapped__"))
        finally:
            tracer.uninstall()
        self.assertFalse(hasattr(P.grids.solve_strict, "__wrapped__"))
        self.assertFalse(hasattr(P.PermClass.member, "__wrapped__"))

    def test_layer_self_times_tile_the_traced_wall(self):
        w = WORKLOADS["geometric"](5)
        tracer = Tracer(P)
        untraced, traced = run.play_traced(w, w.build(P), 1e-9, tracer)
        self.assertEqual(traced.rounds, 1)
        metrics, consistent = run.per_layer(tracer, traced, untraced)
        self.assertTrue(consistent)
        self.assertGreater(metrics["feasibility.calls"][0], 0)
        self.assertGreater(metrics["feasibility.geom_member_share"][0], 0.5)
        self.assertEqual(untraced.failures + traced.failures, [])


if __name__ == "__main__":
    unittest.main()
