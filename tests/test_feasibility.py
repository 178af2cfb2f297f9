"""Tests for the strict UTVPI feasibility decision: every witness satisfies
its system strictly, and every refusal carries a positive combination of
rows that sums to ``0 < c`` with ``c <= 0``."""

import random
from fractions import Fraction

import pytest

from permpat.feasibility import _certificate, _decide, _unit_rows, check_strict, solve_strict
from permpat.grids import X_MATRIX, _geometric_system, _griddings
from permpat.perm import all_perms


def assert_refutes(nvars, rows, certificate):
    """Re-sum the certificate's rows from scratch."""
    assert certificate
    coeffs = [Fraction(0)] * nvars
    total = Fraction(0)
    for index, mult in certificate:
        assert mult > 0
        row_coeffs, rhs = rows[index]
        total += mult * Fraction(rhs)
        for i, c in enumerate(row_coeffs):
            coeffs[i] += mult * Fraction(c)
    assert not any(coeffs) and total <= 0


def assert_certified(nvars, rows):
    witness, certificate = _decide(nvars, rows)
    assert (witness is None) != (certificate is None)
    assert solve_strict(nvars, rows) == witness
    if witness is None:
        assert_refutes(nvars, rows, certificate)
    else:
        assert len(witness) == nvars
        assert check_strict(witness, rows)
    return witness is not None


def random_row(rng, nvars):
    coeffs = [0] * nvars
    scale = rng.choice([1, 1, 1, 2, Fraction(1, 3)])
    shape = rng.random()
    if nvars and shape < 0.3:
        coeffs[rng.randrange(nvars)] = rng.choice([-1, 1]) * scale
    elif nvars >= 2 and shape < 0.95:
        for i in rng.sample(range(nvars), 2):
            coeffs[i] = rng.choice([-1, 1]) * scale
    # otherwise a constant row 0 < rhs
    rhs = rng.choice([-1, 0, 0, 1, 1, 2, Fraction(1, 2), Fraction(-2, 3)])
    return tuple(coeffs), rhs


def test_random_systems_are_certified_both_ways():
    rng = random.Random(20130)
    verdicts = set()
    for _ in range(1500):
        nvars = rng.randint(0, 6)
        rows = [random_row(rng, nvars) for _ in range(rng.randint(0, 3 * nvars + 2))]
        verdicts.add(assert_certified(nvars, rows))
    assert verdicts == {True, False}


def test_geometric_systems_are_certified_both_ways():
    verdicts = []
    for n in range(1, 6):
        for pi in all_perms(n):
            for gp in _griddings(pi, X_MATRIX):
                verdicts.append(assert_certified(n, _geometric_system(gp, X_MATRIX)))
    assert True in verdicts and False in verdicts


def test_strictness_counts():
    # t0 < t1 < t0 + 1 is feasible, t0 < t1 <= t0 is not
    assert solve_strict(2, [((1, -1), 0), ((-1, 1), 1)]) is not None
    assert solve_strict(2, [((1, -1), 0), ((-1, 1), 0)]) is None
    # a cycle through both signs of one variable: 0 < t0 and t0 < 0
    assert solve_strict(1, [((-1,), 0), ((1,), 0)]) is None


def test_constant_rows():
    assert solve_strict(2, [((0, 0), Fraction(1, 5))]) == (0, 0)
    assert _decide(2, [((1, 0), 3), ((0, 0), 0)]) == (None, ((1, 1),))
    assert solve_strict(0, []) == ()


def test_scaled_rows_and_fraction_rhs():
    rows = [((2, -2), Fraction(1, 3)), ((0, Fraction(-1, 2)), Fraction(-1, 4))]
    witness = solve_strict(2, rows)
    assert witness is not None and check_strict(witness, rows)
    _, certificate = _decide(2, [((3, 3), 1), ((-1, -1), Fraction(-1, 3))])
    assert certificate == ((0, Fraction(1, 3)), (1, Fraction(1)))


@pytest.mark.parametrize(
    "coeffs",
    [(1, 1, 1), (1, 2, 0), (Fraction(1, 2), -1, 0)],
)
def test_non_utvpi_rows_raise(coeffs):
    with pytest.raises(ValueError, match="unit two-variable"):
        solve_strict(3, [(coeffs, 1)])


def test_wrong_row_length_raises():
    with pytest.raises(ValueError, match="expected 2 coefficients"):
        solve_strict(2, [((1,), 1)])


def test_check_strict_refuses_rows_of_another_length():
    # the witness never reaches t_2, or t_2 is never read
    with pytest.raises(ValueError, match="expected 1 coefficients, got 2"):
        check_strict((Fraction(1, 2),), [((1, 1), 1)])
    with pytest.raises(ValueError, match="expected 2 coefficients, got 1"):
        check_strict((0, 5), [((1,), 1)])


def dense_check(witness, rows):
    """The witness check summing every term, zeros included, in Fractions."""
    for coeffs, rhs in rows:
        total = sum(Fraction(c) * Fraction(x) for c, x in zip(coeffs, witness))
        if not total < Fraction(rhs):
            return False
    return True


def test_check_strict_matches_the_dense_sum():
    rng = random.Random(20131)
    values = [0, 0, 0, 0.0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 0.5, -1.5]
    verdicts = []
    for _ in range(3000):
        nvars = rng.randint(0, 4)
        witness = tuple(rng.choice(values) for _ in range(nvars))
        rows = [
            (tuple(rng.choice(values) for _ in range(nvars)), rng.choice(values))
            for _ in range(rng.randint(0, 2))
        ]
        verdict = check_strict(witness, rows)
        assert verdict == dense_check(witness, rows), (witness, rows)
        verdicts.append(verdict)
    assert 0.2 < sum(verdicts) / len(verdicts) < 0.8


def test_bad_refutation_raises():
    rows = _unit_rows(2, [((1, -1), 0), ((-1, 1), 1)])
    with pytest.raises(RuntimeError):
        _certificate(rows, {0: 1, 1: 1})
