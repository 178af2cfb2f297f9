"""Exact rational feasibility for strict unit two-variable (UTVPI) systems.

Every row must read ``s_a·t_a + s_b·t_b < c`` or ``s·t_a < c`` with signs
``s = ±1`` once scaled by a positive number (the octagon constraints of
Miné 2006); anything else raises ``ValueError``.  Such a system is decided
by negative-cycle detection on the doubled constraint graph, whose nodes are
``+t_i`` and ``−t_i``: a binary row gives the edges ``−s_b·t_b → s_a·t_a``
and ``−s_a·t_a → s_b·t_b`` of weight ``c``, a unary row the edge
``−s·t_a → s·t_a`` of weight ``2c``.  Right-hand sides are scaled to a
common integer denominator ``den`` and each weight ``w`` becomes the integer
``w·K − 1`` with ``K = 2·nvars + 1``: a simple cycle has at most
``2·nvars`` edges, so it is negative exactly when its true weight is ≤ 0,
strictness counted.

Both outcomes carry a certificate.  With no negative cycle, Bellman–Ford
distances ``d`` from a virtual source give the witness
``t_i = (d(+t_i) − d(−t_i)) / (2·K·den)``.  A negative cycle's rows, with
multiplier 1 for binary rows and 2 for unary ones, sum to ``0 < c`` with
``c ≤ 0``; that sum is re-checked before the system is declared infeasible.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence

# A constraint is (coeffs, rhs) meaning sum(coeffs[i] * x[i]) < rhs.
Constraint = tuple


def _unit_rows(nvars: int, constraints: Iterable[Constraint]) -> tuple:
    """Each row scaled to unit coefficients, as ``(terms, rhs, scale)`` with
    ``terms`` the ``(variable, sign)`` pairs and ``scale`` the positive
    divisor applied to the original row."""
    rows = []
    for coeffs, rhs in constraints:
        if len(coeffs) != nvars:
            raise ValueError(f"expected {nvars} coefficients, got {len(coeffs)}")
        nonzero = [(i, c) for i, c in enumerate(coeffs) if c != 0]
        scale = abs(nonzero[0][1]) if nonzero else 1
        if len(nonzero) > 2 or any(abs(c) != scale for _, c in nonzero):
            raise ValueError(f"not a unit two-variable row: {tuple(coeffs)} < {rhs}")
        if scale != 1 or not isinstance(rhs, int):
            rhs = Fraction(rhs) / scale
        rows.append((tuple([(i, 1 if c > 0 else -1) for i, c in nonzero]), rhs, scale))
    return tuple(rows)


def _decide(nvars: int, constraints: Iterable[Constraint]) -> tuple:
    """``(witness, None)`` for a feasible strict system, else
    ``(None, certificate)``: ``(row index, multiplier)`` pairs with positive
    multipliers under which the rows sum to ``0 < c`` for some ``c ≤ 0``.

    >>> _decide(1, [((1,), 0), ((-1,), 0)])
    (None, ((0, Fraction(2, 1)), (1, Fraction(2, 1))))
    """
    rows = _unit_rows(nvars, constraints)
    den = lcm(*(rhs.denominator for _, rhs, _ in rows))
    k = 2 * nvars + 1
    edges = []  # (tail, head, weight, row index, multiplier)
    for index, (terms, rhs, _) in enumerate(rows):
        c = rhs.numerator * (den // rhs.denominator)
        # Node 2i is +t_i and node 2i+1 is −t_i, so node ^ 1 negates.
        heads = [2 * i + (s < 0) for i, s in terms]
        if not heads:
            if c <= 0:
                return None, _certificate(rows, {index: 1})
        elif len(heads) == 1:
            edges.append((heads[0] ^ 1, heads[0], 2 * c * k - 1, index, 2))
        else:
            na, nb = heads
            edges.append((nb ^ 1, na, c * k - 1, index, 1))
            edges.append((na ^ 1, nb, c * k - 1, index, 1))

    # Every distance starts at 0, as if a virtual source had a zero-weight
    # edge to each node.  Without a negative cycle, 2·nvars rounds settle
    # them all; a round after that which still relaxes an edge proves one.
    nodes = 2 * nvars
    dist = [0] * nodes
    pred = [None] * nodes
    for _ in range(nodes + 1):
        last = None
        for edge in edges:
            d = dist[edge[0]] + edge[2]
            if d < dist[edge[1]]:
                dist[edge[1]] = d
                pred[edge[1]] = edge
                last = edge[1]
        if last is None:
            return tuple([
                Fraction(dist[2 * i] - dist[2 * i + 1], 2 * k * den) for i in range(nvars)
            ]), None

    # Walking back 2·nvars predecessor edges from the last relaxed node
    # lands on a cycle of the predecessor graph, and such a cycle is negative.
    node = last
    for _ in range(nodes):
        node = pred[node][0]
    multipliers, at = {}, node
    while True:
        edge = pred[at]
        multipliers[edge[3]] = multipliers.get(edge[3], 0) + edge[4]
        at = edge[0]
        if at == node:
            return None, _certificate(rows, multipliers)


def _certificate(rows: tuple, multipliers: dict) -> tuple:
    """The unit rows summed with ``multipliers`` must read ``0 < c``, c ≤ 0;
    returns the multipliers for the original rows."""
    coeffs, total = {}, 0
    for index, mult in multipliers.items():
        terms, rhs, _ = rows[index]
        total += mult * rhs
        for i, s in terms:
            coeffs[i] = coeffs.get(i, 0) + mult * s
    if any(coeffs.values()) or total > 0:
        raise RuntimeError(f"refutation does not sum to 0 < c <= 0: {coeffs}, {total}")
    return tuple([
        (index, Fraction(mult) / rows[index][2]) for index, mult in sorted(multipliers.items())
    ])


def solve_strict(
    nvars: int, constraints: Iterable[Constraint]
) -> Optional[tuple]:
    """A rational witness for ``coeffs · x < rhs`` on every constraint, or
    None when the strict system is infeasible.

    Each constraint is ``(coeffs, rhs)`` with ``len(coeffs) == nvars``;
    entries may be ints or Fractions, and every row must be a positive
    multiple of a unit two-variable row.  The witness is a tuple of
    ``nvars`` Fractions satisfying every constraint strictly.

    >>> solve_strict(1, [((1,), 1), ((-1,), 0)])
    (Fraction(1, 6),)
    >>> solve_strict(1, [((1,), 0), ((-1,), 0)]) is None
    True
    """
    return _decide(nvars, constraints)[0]


def check_strict(
    witness: Sequence, constraints: Iterable[Constraint]
) -> bool:
    """True iff the witness satisfies every ``coeffs · x < rhs`` strictly.
    Each row needs one coefficient per witness entry; zero terms are skipped."""
    for coeffs, rhs in constraints:
        if len(coeffs) != len(witness):
            raise ValueError(f"expected {len(witness)} coefficients, got {len(coeffs)}")
        total = sum(Fraction(c) * Fraction(x) for c, x in zip(coeffs, witness) if c)
        if not total < Fraction(rhs):
            return False
    return True
