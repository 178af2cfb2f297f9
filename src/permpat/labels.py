"""Finite label quasi-orders, labeled permutations and their containment
order, generalized subword order, good-pair scanning, and three label
encodings (last-entry, zero-stripping, compass) together with their decoders.

Label posets are explicit finite relations; user input may be a cover
relation, and the reflexive-transitive closure is computed at construction.
Quasi-orders (non-antisymmetric relations) are permitted; equality of labels
always means element identity.
"""
from __future__ import annotations

import json
from collections.abc import Hashable
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .perm import Perm, _move_points, _witness, check_perm, delete_entry, format_perm, reduce_sequence


# ---------------------------------------------------------------------------
# finite posets / quasi-orders


class FinitePoset:
    """A finite quasi-order given by elements and an explicit relation.

    The relation passed in may be any subset of the intended order (for
    example a cover relation); reflexivity and transitivity are closed over
    at construction.  Antisymmetry is checked and reported via
    ``is_partial_order`` but not required.
    """

    def __init__(self, elements: Sequence, pairs: Iterable[tuple] = ()):  # noqa: D401
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("poset elements must be distinct")
        index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        for a, b in pairs:
            if a not in index or b not in index:
                raise ValueError(f"relation pair ({a!r}, {b!r}) uses unknown elements")
            leq[index[a]][index[b]] = True
        for k in range(n):  # Warshall transitive closure
            row_k = leq[k]
            for i in range(n):
                if leq[i][k]:
                    row_i = leq[i]
                    for j in range(n):
                        if row_k[j]:
                            row_i[j] = True
        self._index = index
        self._leq = leq
        self.is_partial_order = not any(
            leq[i][j] and leq[j][i] and i != j for i in range(n) for j in range(n)
        )

    def __contains__(self, element) -> bool:
        return element in self._index

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FinitePoset({list(self.elements)!r}, pairs={sorted(self.pairs())!r})"

    def leq(self, a, b) -> bool:
        """True iff ``a <= b`` in the closed relation."""
        try:
            return self._leq[self._index[a]][self._index[b]]
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} is not a poset element") from exc

    def pairs(self) -> list:
        """All ordered pairs (a, b) with a <= b, including reflexive ones."""
        return [
            (a, b)
            for a in self.elements
            for b in self.elements
            if self.leq(a, b)
        ]

    @classmethod
    def antichain(cls, elements: Sequence) -> "FinitePoset":
        """Distinct elements, none below another."""
        return cls(elements)

    @classmethod
    def chain(cls, elements: Sequence) -> "FinitePoset":
        """A total order in the listed order."""
        pairs = [
            (elements[i], elements[i + 1]) for i in range(len(elements) - 1)
        ]
        return cls(elements, pairs)

    def adjoin_minimum(self, zero) -> "FinitePoset":
        """A new poset with ``zero`` added strictly below every element."""
        if zero in self:
            raise ValueError(f"{zero!r} is already an element")
        pairs = [(a, b) for a, b in self.pairs()]
        pairs += [(zero, e) for e in self.elements]
        return FinitePoset((zero,) + self.elements, pairs)

    def product(self, other: "FinitePoset") -> "FinitePoset":
        """Componentwise order on pairs of elements."""
        elements = [
            (a, b) for a in self.elements for b in other.elements
        ]
        pairs = [
            (x, y)
            for x in elements
            for y in elements
            if self.leq(x[0], y[0]) and other.leq(x[1], y[1])
        ]
        return FinitePoset(elements, pairs)


#: The two-element antichain used by the label encodings: "o" (hollow)
#: and "*" (filled) are incomparable.
TWO_ANTICHAIN = FinitePoset.antichain(("o", "*"))

HOLLOW = "o"
FILLED = "*"


def _label_from_json(value):
    """A decoded JSON value as a label: arrays become tuples, recursively,
    since labels and poset elements are compared and looked up by hash."""
    if isinstance(value, list):
        return tuple([_label_from_json(v) for v in value])
    if not isinstance(value, Hashable):
        raise ValueError(f"label {value!r} is not hashable")
    return value


def poset_from_json(data) -> FinitePoset:
    """Build a poset from ``{"elements": [...], "leq": [[a, b], ...]}``."""
    if isinstance(data, str):
        data = json.loads(data)
    leq = data.get("leq", []) if isinstance(data, dict) else None
    if not (
        isinstance(leq, list)
        and all(isinstance(pair, list) and len(pair) == 2 for pair in leq)
        and isinstance(data.get("elements"), list)
    ):
        raise ValueError("a poset is an object whose elements are an array and leq an array of pairs")
    return FinitePoset(_label_from_json(data["elements"]), _label_from_json(leq))


def poset_to_json(poset: FinitePoset) -> dict:
    return {"elements": list(poset.elements), "leq": [list(p) for p in poset.pairs()]}


# ---------------------------------------------------------------------------
# labeled permutations


@dataclass(frozen=True)
class LabeledPermutation:
    """A permutation together with one label per 1-based index."""

    perm: Perm
    labels: tuple

    def __post_init__(self):
        if len(self.perm) != len(self.labels):
            raise ValueError(
                f"got {len(self.labels)} labels for a permutation of length {len(self.perm)}"
            )
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "perm", check_perm(self.perm))

    def __len__(self) -> int:
        return len(self.perm)

    def label(self, i: int):
        """The label at 1-based position ``i``."""
        return self.labels[i - 1]

    def format(self) -> str:
        """One-line notation with ``pos:label`` annotations."""
        body = format_perm(self.perm)
        marks = " ".join(f"{i + 1}:{lab}" for i, lab in enumerate(self.labels))
        return f"{body} [{marks}]" if self.labels else body


def labeled_from_json(data) -> LabeledPermutation:
    """Build from ``{"perm": [...], "labels": [...]}``."""
    if isinstance(data, str):
        data = json.loads(data)
    perm, labels = (data.get("perm"), data.get("labels")) if isinstance(data, dict) else (None, None)
    if not (
        isinstance(perm, list) and all(type(v) is int for v in perm) and isinstance(labels, list)
    ):
        raise ValueError("a labeled permutation is an object whose perm is an array of integers and labels an array")
    return LabeledPermutation(perm, _label_from_json(labels))


def labeled_to_json(p: LabeledPermutation) -> dict:
    return {"perm": list(p.perm), "labels": list(p.labels)}


def constant_labels(pi: Perm, label) -> LabeledPermutation:
    return LabeledPermutation(pi, tuple([label for _ in pi]))


def labeled_containment_witness(
    s: LabeledPermutation, p: LabeledPermutation, poset: FinitePoset
) -> Optional[tuple]:
    """The lexicographically least witness of labeled containment, or None.

    A witness is an increasing 1-based index sequence of ``p`` whose entries
    reduce to ``s.perm`` and whose labels dominate the pattern's labels
    componentwise in ``poset`` (pattern label <= text label at each matched
    index).  The search is :func:`permpat.perm.containment_witness`'s, one
    loop that takes a pattern of any length.
    """
    # the order relation's row per pattern slot, element index per text position
    index = poset._index
    try:
        rows = [poset._leq[index[lab]] for lab in s.labels]
        cols = [index[lab] for lab in p.labels]
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} is not an element of the poset") from None
    return _witness(s.perm, p.perm, lambda j, pos: rows[j][cols[pos]])


def labeled_contains(
    s: LabeledPermutation, p: LabeledPermutation, poset: FinitePoset
) -> bool:
    """True iff ``p`` contains ``s`` with labels dominating in ``poset``."""
    return labeled_containment_witness(s, p, poset) is not None


def apply_symmetry_labeled(p: LabeledPermutation, name: str) -> LabeledPermutation:
    """The symmetry image with labels transported along with their points:
    the label of point ``(i, p.perm[i])`` travels to that point's image.

    >>> apply_symmetry_labeled(LabeledPermutation((2, 1, 3), ("a", "b", "c")), "inverse").labels
    ('b', 'a', 'c')
    """
    image, positions = _move_points(p.perm, name)
    labels = [None] * len(image)
    for j, lab in zip(positions, p.labels):
        labels[j - 1] = lab
    return LabeledPermutation(image, tuple(labels))


# ---------------------------------------------------------------------------
# generalized subword order


def subword_leq(v: Sequence, w: Sequence, poset: FinitePoset) -> bool:
    """Generalized subword order: some subsequence of ``w`` dominates ``v``
    letterwise in ``poset``.  Decided by the greedy leftmost embedding.

    >>> eq = FinitePoset.antichain(("a", "b"))
    >>> subword_leq("ba", "aba", eq)
    True
    >>> subword_leq("ab", "ba", eq)
    False
    """
    pos = 0
    for letter in v:
        while pos < len(w) and not poset.leq(letter, w[pos]):
            pos += 1
        if pos == len(w):
            return False
        pos += 1
    return True


def find_good_pair(seq: Sequence, leq: Callable) -> Optional[tuple]:
    """The lexicographically least 1-based pair ``(i, j)`` with ``i < j`` and
    ``seq[i] <= seq[j]``, or ``None`` if the sequence is an antichain scan.

    >>> find_good_pair(["x", "x"], lambda a, b: a == b)
    (1, 2)
    """
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if leq(seq[i], seq[j]):
                return (i + 1, j + 1)
    return None


# ---------------------------------------------------------------------------
# encoding 1: last-entry


def last_entry_encoding(beta: Perm) -> LabeledPermutation:
    """Delete the last entry and record, per remaining index, whether its
    entry sat below (hollow ``o``) or above (filled ``*``) the deleted one.

    >>> last_entry_encoding((2, 8, 7, 3, 6, 9, 1, 5, 4)).perm
    (2, 7, 6, 3, 5, 8, 1, 4)
    >>> last_entry_encoding((2, 8, 7, 3, 6, 9, 1, 5, 4)).labels
    ('o', '*', '*', 'o', '*', '*', 'o', '*')
    """
    if len(beta) == 0:
        raise ValueError("needs a nonempty permutation")
    last = beta[-1]
    body = delete_entry(beta, len(beta))
    labels = tuple([HOLLOW if v < last else FILLED for v in beta[:-1]])
    return LabeledPermutation(body, labels)


def last_entry_decoding(p: LabeledPermutation) -> Perm:
    """Invert :func:`last_entry_encoding`: re-insert the deleted entry at the
    end, with value one more than the number of hollow labels."""
    v = sum(1 for lab in p.labels if lab == HOLLOW) + 1
    out = [x if x < v else x + 1 for x in p.perm]
    out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# encoding 2: zero-stripping


def strip_zero_labels(p: LabeledPermutation, zero) -> LabeledPermutation:
    """Delete every entry labeled ``zero`` (identity comparison), reduce the
    remaining entries, and keep their labels in order.

    >>> strip_zero_labels(LabeledPermutation((3, 1, 4, 2), (0, "x", 0, "y")), 0).perm
    (1, 2)
    >>> strip_zero_labels(LabeledPermutation((3, 1, 4, 2), (0, "x", 0, "y")), 0).labels
    ('x', 'y')
    """
    keep = [i for i, lab in enumerate(p.labels) if lab != zero]
    return LabeledPermutation(
        reduce_sequence([p.perm[i] for i in keep]),
        tuple([p.labels[i] for i in keep]),
    )


# ---------------------------------------------------------------------------
# encoding 3: compass

#: Compass directions name where the deleted entry sits relative to a
#: retained one: e.g. "se" means the deleted entry is later and lower.
COMPASS_DIRECTIONS = ("sw", "se", "ne", "nw")


def compass_direction(i: int, pi_i: int, a: int, pi_a: int) -> str:
    """Direction of the deleted point ``(a, pi_a)`` as seen from ``(i, pi_i)``."""
    if i < a:
        return "se" if pi_i > pi_a else "ne"
    return "sw" if pi_i > pi_a else "nw"


def compass_poset(label_poset: FinitePoset) -> FinitePoset:
    """The label poset compass images travel in: 3-tuples
    ``(label(i), label(a), direction)`` ordered componentwise, with the
    direction component a 4-antichain."""
    elements = [
        (x, y, d)
        for x in label_poset.elements
        for y in label_poset.elements
        for d in COMPASS_DIRECTIONS
    ]
    pairs = [
        (u, w)
        for u in elements
        for w in elements
        if label_poset.leq(u[0], w[0])
        and label_poset.leq(u[1], w[1])
        and u[2] == w[2]
    ]
    return FinitePoset(elements, pairs)


def compass_encoding(p: LabeledPermutation, a: int) -> LabeledPermutation:
    """Delete the entry at 1-based position ``a`` and annotate every retained
    index ``i`` with ``(label(i), label(a), direction)``, where the direction
    records the quadrant of the deleted point relative to the retained one.

    The output's labels are flat 3-tuples travelling in the product order
    built by :func:`compass_poset` (with nesting flattened away).
    """
    if len(p) < 2:
        raise ValueError("needs a permutation of length at least 2")
    if not 1 <= a <= len(p):
        raise IndexError(f"position {a} out of range for length {len(p)}")
    pi = p.perm
    pi_a = pi[a - 1]
    label_a = p.labels[a - 1]
    body = delete_entry(pi, a)
    labels = tuple([
        (p.labels[i], label_a, compass_direction(i + 1, pi[i], a, pi_a))
        for i in range(len(pi))
        if i != a - 1
    ])
    return LabeledPermutation(body, labels)


def compass_decoding(p: LabeledPermutation) -> tuple:
    """Invert :func:`compass_encoding`: returns ``(labeled_permutation, a)``.

    The deleted position is one past the count of ``se``/``ne`` marks (those
    sit left of the deletion); the deleted value is one past the count of
    ``ne``/``nw`` marks (those sit below it).  Raises ``ValueError`` when the
    labels are not a consistent compass image.
    """
    if any(len(lab) != 3 for lab in p.labels):
        raise ValueError("labels are not compass triples")
    second = {lab[1] for lab in p.labels}
    if len(second) > 1:
        raise ValueError("inconsistent deleted-entry labels in compass image")
    label_a = next(iter(second)) if second else None
    a = sum(1 for lab in p.labels if lab[2] in ("se", "ne")) + 1
    v = sum(1 for lab in p.labels if lab[2] in ("ne", "nw")) + 1
    values = [x if x < v else x + 1 for x in p.perm]
    values.insert(a - 1, v)
    labels = [lab[0] for lab in p.labels]
    if label_a is None:
        raise ValueError("cannot decode an empty compass image")
    labels.insert(a - 1, label_a)
    decoded = LabeledPermutation(tuple(values), tuple(labels))
    # validate: re-encoding must reproduce the image exactly
    if compass_encoding(decoded, a).labels != p.labels:
        raise ValueError("labels are not a consistent compass image")
    return decoded, a
