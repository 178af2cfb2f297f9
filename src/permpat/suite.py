"""Desk-scale property battery: cross-validates every module's invariants
with independent oracles, exhaustively where the stated domain is affordable
and by seeded sampling above that (each check's detail string records its
exact quantification domain).

The battery is honest: checks report what actually holds.  One check is
expected to fail — the widdershins family extrapolation is not an antichain
(its first two members nest), and the battery says so rather than hiding it.
"""
from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from . import antichains as ac
from . import classes as cl
from . import grids as gr
from . import invgraph as ig
from . import labels as lb
from . import perm as pm


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class SuiteResult:
    results: tuple
    seconds: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> tuple:
        return tuple(r for r in self.results if not r.passed)


#: Informational diagnostics: questions the library can only gather bounded
#: evidence about, never decide.  Reported by the battery, never scored.
OPEN_QUESTIONS = (
    "one-point extension of an infinitely based class: only bounded basis "
    "search evidence is produced (open)",
    "whether well-quasi-order of the one-point extension forces labeled "
    "well-quasi-order: open; not decidable from a basis here",
    "whether well-quasi-order of the substitution closure forces labeled "
    "well-quasi-order: open; not decidable from a basis here",
    "n-fold labeled well-quasi-order beyond 2 labels: only bounded-length "
    "evidence, never a verdict",
    "whether inversion-graph well-quasi-order forces permutation-class "
    "well-quasi-order: bounded evidence only",
    "whether every monotone grid class is finitely based: out of deciding "
    "scope",
)


def _rng(seed: int, check_id: str) -> random.Random:
    return random.Random(f"{seed}:{check_id}")


def _random_perm(rng: random.Random, n: int) -> pm.Perm:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return tuple(vals)


def _random_labeled(rng: random.Random, n: int, atoms) -> lb.LabeledPermutation:
    return lb.LabeledPermutation(
        _random_perm(rng, n), tuple(rng.choice(atoms) for _ in range(n))
    )


# ---------------------------------------------------------------------------
# perm-core checks


def check_contains_vs_naive(seed: int) -> str:
    universe = {m: list(pm.all_perms(m)) for m in range(0, 7)}
    for n in range(0, 7):
        for pi in universe[n]:
            exact = pm.all_patterns(pi)
            for m in range(0, n + 1):
                for sigma in universe[m]:
                    assert pm.contains(sigma, pi) == (sigma in exact), (sigma, pi)
    rng = _rng(seed, "contains-vs-naive")
    extra = 0
    for n in (7, 8):
        for _ in range(40):
            pi = _random_perm(rng, n)
            exact = pm.all_patterns(pi)
            for sigma in exact:
                assert pm.contains(sigma, pi), (sigma, pi)
            for m in range(1, n + 1):
                for _ in range(12):
                    sigma = _random_perm(rng, m)
                    assert pm.contains(sigma, pi) == (sigma in exact), (sigma, pi)
                    extra += 1
    return (
        "agrees with subset enumeration on all pairs |pi| <= 6; "
        f"40 seeded texts each at n=7,8 (all their patterns + {extra} random probes)"
    )


def check_symmetry_involutions(seed: int) -> str:
    count = 0
    for n in range(0, 9):
        for pi in pm.all_perms(n):
            inv = pm.inverse(pi)
            rc = pm.reverse_complement(pi)
            rci = pm.rc_inverse(pi)
            assert pm.inverse(inv) == pi
            assert pm.reverse_complement(rc) == pi
            x = pm.rc_inverse(pm.rc_inverse(pm.rc_inverse(rci)))
            assert x == pi
            assert pm.rc_inverse(rci) == pi  # in fact an involution
            assert rci == pm.inverse(rc) == pm.reverse_complement(inv)
            count += 1
    return f"involutions and fourth-power identity on all {count} permutations |pi| <= 8"


def check_components_fold(seed: int) -> str:
    count = 0
    for n in range(0, 10):
        for pi in pm.all_perms(n):
            for direction in pm.SUM_DIRECTIONS:
                comps = pm.components(pi, direction)
                folded = ()
                for c in comps:
                    folded = pm.sum_perms(folded, c, direction)
                assert folded == pi, (pi, direction)
                for c in comps:
                    assert len(pm.components(c, direction)) == 1, (pi, c)
            count += 1
    return f"fold-back identity and component indecomposability, both directions, all |pi| <= 9 ({count} permutations)"


def check_simple_iff_no_intervals(seed: int) -> str:
    def brute_intervals(pi):
        n = len(pi)
        found = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if j - i + 1 == n:
                    continue
                window = set(pi[i - 1 : j])
                if max(window) - min(window) + 1 == len(window):
                    found.append((i, j))
        return found

    for n in range(0, 8):
        for pi in pm.all_perms(n):
            assert pm.intervals(pi) == brute_intervals(pi), pi
    count = 0
    for n in range(2, 10):
        for pi in pm.all_perms(n):
            assert pm.is_simple(pi) == (pm.intervals(pi) == []), pi
            count += 1
    return (
        "intervals agree with a set-based window scan for |pi| <= 7; "
        f"simplicity <=> no proper interval on all {count} permutations with 2 <= |pi| <= 9"
    )


def check_tree_roundtrip(seed: int) -> str:
    count = 0
    for n in range(1, 10):
        for pi in pm.all_perms(n):
            tree = pm.decompose_tree(pi)
            assert tree.evaluate() == pi, pi
            for node, _ in tree.preorder():
                for child in node.children:
                    assert not (node.kind == child.kind == "plus"), "plus child of plus"
                    assert not (node.kind == child.kind == "minus"), "minus child of minus"
                    if node.kind == "simple":
                        assert pm.is_simple(node.skeleton) and len(node.skeleton) >= 4
            count += 1
    return f"decomposition trees evaluate back and obey node shape rules on all {count} permutations |pi| <= 9"


def check_inflate_contains(seed: int) -> str:
    rng = _rng(seed, "inflate-contains")
    checked = 0
    # exhaustive small: every skeleton up to 3, blocks up to length 2
    for m in range(1, 4):
        for sigma in pm.all_perms(m):
            for blocks in itertools.product([(1,), (1, 2), (2, 1)], repeat=m):
                result = pm.inflate(sigma, list(blocks))
                assert pm.contains(sigma, result), (sigma, blocks)
                for alpha in blocks:
                    assert pm.contains(alpha, result), (sigma, blocks)
                checked += 1
    # seeded: random skeletons and blocks with total length <= 9
    for _ in range(1500):
        m = rng.randint(1, 4)
        sigma = _random_perm(rng, m)
        budget = 9 - m
        blocks = []
        for i in range(m):
            spare = budget - (m - 1 - i)
            extra = rng.randint(0, max(0, min(3, spare)))
            budget -= extra
            blocks.append(_random_perm(rng, 1 + extra))
        result = pm.inflate(sigma, blocks)
        assert pm.contains(sigma, result)
        for alpha in blocks:
            assert pm.contains(alpha, result)
        checked += 1
    return f"skeleton and every block embed in the inflation ({checked} instances: exhaustive small + seeded, |result| <= 9)"


# ---------------------------------------------------------------------------
# labels checks


def check_degenerate_labels(seed: int) -> str:
    one = lb.FinitePoset.antichain(("x",))
    rng = _rng(seed, "degenerate-labels")
    pairs = 0
    for np_ in range(0, 6):
        for pi in pm.all_perms(np_):
            lpi = lb.constant_labels(pi, "x")
            for ns in range(0, 5):
                for sigma in pm.all_perms(ns):
                    ls = lb.constant_labels(sigma, "x")
                    assert lb.labeled_contains(ls, lpi, one) == pm.contains(sigma, pi)
                    pairs += 1
    for _ in range(300):
        pi = _random_perm(rng, 7)
        sigma = _random_perm(rng, rng.randint(1, 5))
        assert lb.labeled_contains(
            lb.constant_labels(sigma, "x"), lb.constant_labels(pi, "x"), one
        ) == pm.contains(sigma, pi)
        pairs += 1
    return f"one-atom labels reduce to plain containment ({pairs} pairs: exhaustive |sigma|<=4 x |pi|<=5, seeded at 7)"


def check_subword_vs_bruteforce(seed: int) -> str:
    def brute(v, w, poset):
        for positions in itertools.combinations(range(len(w)), len(v)):
            if all(poset.leq(v[j], w[positions[j]]) for j in range(len(v))):
                return True
        return len(v) == 0

    chain2 = lb.FinitePoset.chain(("a", "b"))
    anti2 = lb.FinitePoset.antichain(("a", "b"))
    pairs = 0
    for poset in (chain2, anti2):
        words = [
            tuple(w)
            for k in range(0, 5)
            for w in itertools.product(("a", "b"), repeat=k)
        ]
        for v in words:
            for w in words:
                assert lb.subword_leq(v, w, poset) == brute(v, w, poset), (v, w)
                pairs += 1
    rng = _rng(seed, "subword")
    chain3 = lb.FinitePoset.chain(("a", "b", "c"))
    anti3 = lb.FinitePoset.antichain(("a", "b", "c"))
    vee = lb.FinitePoset(("a", "b", "c"), [("a", "b"), ("a", "c")])
    for poset in (chain3, anti3, vee):
        for _ in range(400):
            v = tuple(rng.choice("abc") for _ in range(rng.randint(0, 5)))
            w = tuple(rng.choice("abc") for _ in range(rng.randint(0, 8)))
            assert lb.subword_leq(v, w, poset) == brute(v, w, poset), (v, w)
            pairs += 1
    return f"greedy subword decision matches subsequence search ({pairs} pairs: exhaustive len<=4 size-2 posets, seeded len<=8 size-3)"


def check_last_entry_reflection(seed: int) -> str:
    count = 0
    for n in range(1, 8):
        for gamma in pm.all_perms(n):
            image = lb.last_entry_encoding(gamma)
            body, labels = image.perm, image.labels
            for sub in itertools.chain.from_iterable(
                itertools.combinations(range(n - 1), k) for k in range(n)
            ):
                q = lb.LabeledPermutation(
                    pm.reduce_sequence([body[i] for i in sub]),
                    tuple(labels[i] for i in sub),
                )
                beta = lb.last_entry_decoding(q)
                assert pm.contains(beta, gamma), (gamma, sub, beta)
                count += 1
    return (
        "every labeled subpattern of an encoding decodes to a contained "
        f"permutation — covers the reflection implication for all pairs |beta|,|gamma| <= 7 ({count} subpatterns)"
    )


def check_compass_reflection(seed: int) -> str:
    rng = _rng(seed, "compass-reflection")
    base = lb.TWO_ANTICHAIN
    cposet = lb.compass_poset(base)
    atoms = base.elements
    hits = 0
    trials = 0
    while trials < 1200:
        npi = rng.randint(2, 7)
        nsig = rng.randint(2, npi)
        p = _random_labeled(rng, npi, atoms)
        a = rng.randint(1, npi)
        if rng.random() < 0.5:
            s = _random_labeled(rng, nsig, atoms)
            b = rng.randint(1, nsig)
        else:
            # derived case: carve sigma out of pi so the antecedent can fire
            positions = sorted(rng.sample(range(1, npi + 1), nsig))
            s = lb.LabeledPermutation(
                pm.reduce_sequence([p.perm[i - 1] for i in positions]),
                tuple(p.labels[i - 1] for i in positions),
            )
            if a in positions:
                b = positions.index(a) + 1
            else:
                b = rng.randint(1, nsig)
        trials += 1
        im_s = lb.compass_encoding(s, b)
        im_p = lb.compass_encoding(p, a)
        w = lb.labeled_containment_witness(im_s, im_p, cposet)
        if w is None:
            continue
        hits += 1
        # reconstruct a full witness matching the deleted entries, and check it
        full = [0] * len(s)
        for j in range(1, len(s) + 1):
            if j == b:
                full[j - 1] = a
            else:
                img_index = j if j < b else j - 1
                hit = w[img_index - 1]
                full[j - 1] = hit if hit < a else hit + 1
        assert all(full[i] < full[i + 1] for i in range(len(full) - 1)), (s, p, full)
        assert pm.reduce_sequence([p.perm[i - 1] for i in full]) == s.perm
        for j in range(1, len(s) + 1):
            assert base.leq(s.label(j), p.label(full[j - 1])), (s, p, full)
    assert hits >= 25, f"antecedent fired only {hits} times; sampler too weak"
    return (
        f"image containment implies labeled containment with deleted entries matched "
        f"({trials} seeded pairs, lengths <= 7, antecedent fired {hits} times)"
    )


def check_strip_zero_preserving(seed: int) -> str:
    rng = _rng(seed, "strip-zero")
    base = lb.TWO_ANTICHAIN
    l0 = base.adjoin_minimum(0)
    atoms0 = l0.elements
    hits = 0
    for trial in range(900):
        npi = rng.randint(1, 7)
        p = _random_labeled(rng, npi, atoms0)
        if rng.random() < 0.5:
            nsig = rng.randint(1, npi)
            s = _random_labeled(rng, nsig, atoms0)
        else:
            nsig = rng.randint(1, npi)
            positions = sorted(rng.sample(range(1, npi + 1), nsig))
            labels = []
            for i in positions:
                lab = p.labels[i - 1]
                labels.append(0 if rng.random() < 0.3 else lab)
            s = lb.LabeledPermutation(
                pm.reduce_sequence([p.perm[i - 1] for i in positions]), tuple(labels)
            )
        if not lb.labeled_contains(s, p, l0):
            continue
        hits += 1
        assert lb.labeled_contains(
            lb.strip_zero_labels(s, 0), lb.strip_zero_labels(p, 0), base
        ), (s, p)
    assert hits >= 40, f"antecedent fired only {hits} times"
    return f"zero-stripping preserves labeled containment (900 seeded pairs, lengths <= 7, antecedent fired {hits} times)"


def check_compass_roundtrip(seed: int) -> str:
    rng = _rng(seed, "compass-roundtrip")
    atoms = lb.TWO_ANTICHAIN.elements
    count = 0
    for n in range(2, 8):
        for pi in pm.all_perms(n):
            labelings = [
                tuple(atoms[0] for _ in range(n)),
                tuple(atoms[1] for _ in range(n)),
                tuple(rng.choice(atoms) for _ in range(n)),
            ]
            for labels in labelings:
                p = lb.LabeledPermutation(pi, labels)
                for a in range(1, n + 1):
                    decoded, back = lb.compass_decoding(lb.compass_encoding(p, a))
                    assert decoded == p and back == a, (p, a)
                    count += 1
    return f"decode(encode) is the identity for every (pi, a), |pi| <= 7, three labelings each ({count} instances)"


# ---------------------------------------------------------------------------
# inversion-graph checks


def check_graph_symmetry_iso(seed: int) -> str:
    count = 0
    for n in range(1, 8):
        for pi in pm.all_perms(n):
            g = ig.inversion_graph(pi)
            images = {
                "inverse": (pm.inverse(pi), lambda i: pi[i - 1]),
                "reverse-complement": (pm.reverse_complement(pi), lambda i: n + 1 - i),
                "rc-inverse": (pm.rc_inverse(pi), lambda i: n + 1 - pi[i - 1]),
            }
            for name, (image, vmap) in images.items():
                h = ig.inversion_graph(image)
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        assert g.has_edge(i, j) == h.has_edge(vmap(i), vmap(j)), (
                            pi,
                            name,
                        )
                count += 1
    return f"explicit vertex maps realize the three symmetry isomorphisms for all |pi| <= 7 ({count} graph pairs)"


def check_containment_embeds(seed: int) -> str:
    rng = _rng(seed, "containment-embeds")
    count = 0
    for n in range(1, 6):
        for pi in pm.all_perms(n):
            g = ig.inversion_graph(pi)
            for k in range(1, n + 1):
                for sub in itertools.combinations(range(n), k):
                    sigma = pm.reduce_sequence([pi[i] for i in sub])
                    assert ig.induced_embeds(ig.inversion_graph(sigma), g) is not None
                    count += 1
    for n in (6, 7):
        for _ in range(60):
            pi = _random_perm(rng, n)
            g = ig.inversion_graph(pi)
            for _ in range(6):
                k = rng.randint(1, n)
                sub = sorted(rng.sample(range(n), k))
                sigma = pm.reduce_sequence([pi[i] for i in sub])
                assert ig.induced_embeds(ig.inversion_graph(sigma), g) is not None
                count += 1
    return f"contained patterns embed as induced subgraphs ({count} pairs: exhaustive |pi| <= 5, seeded at 6,7)"


def check_no_long_cycles(seed: int) -> str:
    rng = _rng(seed, "no-long-cycles")
    count = 0
    for n in range(1, 8):
        for pi in pm.all_perms(n):
            assert not ig.has_long_induced_cycle(ig.inversion_graph(pi), 5), pi
            count += 1
    for _ in range(400):
        pi = _random_perm(rng, 8)
        assert not ig.has_long_induced_cycle(ig.inversion_graph(pi), 5), pi
        count += 1
    return f"no inversion graph has an induced cycle of length >= 5 (exhaustive |pi| <= 7 + 400 seeded at 8; {count} graphs)"


def check_graph_correspondences(seed: int) -> str:
    rng = _rng(seed, "correspondences")
    av321 = cl.avoiding((3, 2, 1))
    forest_cls = cl.avoiding((3, 2, 1), (3, 4, 1, 2))
    linear_cls = cl.avoiding((3, 2, 1), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))
    cograph_cls = cl.avoiding((2, 4, 1, 3), (3, 1, 4, 2))

    def check_one(pi):
        g = ig.inversion_graph(pi)
        assert ig.is_bipartite(g) == av321.member(pi), pi
        assert ig.is_forest(g) == forest_cls.member(pi), pi
        assert ig.is_linear_forest(g) == linear_cls.member(pi), pi
        assert ig.is_cograph(g) == cograph_cls.member(pi), pi
        assert ig.is_connected(g) == pm.is_sum_indecomposable(pi), pi

    count = 0
    for n in range(1, 8):
        for pi in pm.all_perms(n):
            check_one(pi)
            count += 1
    for _ in range(1200):
        check_one(_random_perm(rng, 8))
        count += 1
    return f"five structure/avoidance correspondences hold (exhaustive |pi| <= 7 + 1200 seeded at 8; {count} permutations)"


def check_gallai_preimages(seed: int) -> str:
    verified = 0
    for n in range(4, 8):
        perms = list(pm.all_perms(n))
        keyed = {}
        for pi in perms:
            g = ig.inversion_graph(pi)
            key = (len(g.edges), g.degree_sequence())
            keyed.setdefault(key, []).append((pi, g))
        for sigma in perms:
            if not pm.is_simple(sigma):
                continue
            gs = ig.inversion_graph(sigma)
            if not ig.is_prime(gs):
                continue
            expected = pm.symmetry_class(sigma)
            key = (len(gs.edges), gs.degree_sequence())
            found = {
                pi
                for pi, g in keyed[key]
                if ig.is_isomorphic(g, gs)
            }
            assert found == expected, (sigma, found, expected)
            auts = ig.automorphisms(gs)
            assert len(auts) in (1, 2, 4), (sigma, len(auts))
            realized = set(ig.symmetry_automorphism_maps(sigma).values())
            assert set(auts) == realized, (sigma, auts, realized)
            verified += 1
    return f"prime inversion graphs determine exactly the four symmetry images, automorphisms realized by symmetries ({verified} simple patterns, lengths 4..7)"


def check_labeled_gallai(seed: int) -> str:
    atoms = lb.TWO_ANTICHAIN.elements
    verified = 0
    for n in range(4, 7):
        simples = [s for s in pm.all_perms(n) if pm.is_simple(s)]
        for sigma in simples:
            gs = ig.inversion_graph(sigma)
            if not ig.is_prime(gs):
                continue
            taus = ig.preimages(gs, n)
            for labels in itertools.product(atoms, repeat=n):
                lsigma = lb.LabeledPermutation(sigma, labels)
                expected = {lsigma}
                for name in pm.SYMMETRY_NAMES:
                    expected.add(lb.apply_symmetry_labeled(lsigma, name))
                for tau in taus:
                    gt = ig.inversion_graph(tau)
                    for f in ig.all_isomorphisms(gt, gs):
                        ltau = lb.LabeledPermutation(
                            tau, tuple(labels[f[i] - 1] for i in range(n))
                        )
                        assert ltau in expected, (lsigma, ltau)
                verified += 1
    return f"label-preserving graph isomorphism forces a symmetry image with transported labels ({verified} labeled simple patterns, lengths 4..6, exhaustive labelings)"


# ---------------------------------------------------------------------------
# class checks


def check_enumeration_anchors(seed: int) -> str:
    av321 = cl.avoiding((3, 2, 1))
    sep = cl.avoiding((2, 4, 1, 3), (3, 1, 4, 2))
    catalan = [1, 2, 5, 14, 42, 132, 429]
    schroeder = [1, 2, 6, 22, 90, 394, 1806]
    for n in range(1, 8):
        assert len(cl.enumerate_members(av321, n)) == catalan[n - 1], n
        assert len(cl.enumerate_members(sep, n)) == schroeder[n - 1], n
    return "member counts reproduce the Catalan and Schroeder sequences for n <= 7"


def check_plus_one_conditions(seed: int) -> str:
    details = []
    for c in (cl.avoiding((1, 2)), cl.avoiding((1,)), cl.avoiding((1, 2), (2, 1))):
        r = cl.plus_one_basis(c)
        assert r.exact
        basis = r.basis_class.basis
        for b in basis:
            assert not cl.plus_one_member(b, c), (c.basis, b)
            for d in set(pm.one_point_deletions(b)):
                assert cl.plus_one_member(d, c), (c.basis, b, d)
            for other in basis:
                if other != b:
                    assert not pm.contains(other, b), (b, other)
        details.append(f"Av{c.basis}: {len(basis)} elements, bound {r.searched_to}")
    capped = cl.plus_one_basis(cl.avoiding((3, 2, 1)), cap=6)
    assert not capped.exact and capped.searched_to == 6
    for b in capped.basis_class.basis:
        assert not cl.plus_one_member(b, cl.avoiding((3, 2, 1)))
    return "antichain/minimality conditions hold (" + "; ".join(details) + "); capped search reports evidence only"


SAMPLE_CLASSES = (
    ((1,),),
    ((1, 2),),
    ((3, 2, 1),),
    ((2, 4, 1, 3), (3, 1, 4, 2)),
    ((2, 1, 4, 3),),
)


def substitution_closure_by_patterns(pi: pm.Perm, c: cl.PermClass) -> bool:
    """Substitution-closure membership by the simple-pattern filter: a
    nonempty π is in the closure iff the single entry and every simple
    pattern of π are in C (Albert–Atkinson 2005).  It tests every pattern of
    every length, so it is exponential in |π|; it is the oracle of
    ``closure_member(·, "substitution")``, which walks the decomposition."""
    if not pi:
        return c.member(pi)
    if not c.member((1,)):
        return False
    for sigma in ((1, 2), (2, 1)):
        if pm.contains(sigma, pi) and not c.member(sigma):
            return False
    # no pattern of length 3 is simple
    for k in range(4, len(pi) + 1):
        for pattern in pm.patterns_of_length(pi, k):
            if pm.is_simple(pattern) and not c.member(pattern):
                return False
    return True


def _sum_closure_layers(c: cl.PermClass, sums: tuple, nmax: int) -> list:
    """The members of each length 0..nmax of the closure of C under the
    given sum functions, built bottom-up: a member of length n is a member
    of C or a sum of two shorter nonempty members."""
    layers = []
    for n in range(nmax + 1):
        layer = set(cl.enumerate_members(c, n))
        for k in range(1, n):
            for a in layers[k]:
                for b in layers[n - k]:
                    layer.update(s(a, b) for s in sums)
        layers.append(layer)
    return layers


#: The sums each closure other than the substitution closure is closed under.
_CLOSURE_SUMS = {
    "sum": (pm.direct_sum,),
    "skew": (pm.skew_sum,),
    "separable": (pm.direct_sum, pm.skew_sum),
}


def check_closure_agreement(seed: int) -> str:
    rng = _rng(seed, "closure-agreement")
    exhaustive = [pi for n in range(0, 8) for pi in pm.all_perms(n)]
    perms = exhaustive + [_random_perm(rng, 8) for _ in range(1000)]
    count = 0
    for basis in SAMPLE_CLASSES:
        c = cl.PermClass(basis)
        for kind, sums in _CLOSURE_SUMS.items():
            layers = _sum_closure_layers(c, sums, 8)
            for pi in perms:
                assert cl.closure_member(pi, c, kind) == (pi in layers[len(pi)]), (kind, pi, basis)
        for pi in perms:
            assert cl.closure_member(pi, c, "substitution") == substitution_closure_by_patterns(pi, c), (pi, basis)
        count += 4 * len(perms)
    return (
        "the decomposition walk agrees with oracles that share none of its code: "
        "sum, skew and separable closures with bottom-up generation from C's members "
        "by direct and skew sums, the substitution closure with the simple-pattern "
        f"filter ({count} decisions: exhaustive |pi| <= 7 + 1000 seeded at 8, 5 bases, 4 kinds)"
    )


def check_closure_ordering(seed: int) -> str:
    rng = _rng(seed, "closure-ordering")
    classes = [cl.PermClass(b) for b in SAMPLE_CLASSES]
    count = 0
    exhaustive = (pi for n in range(0, 8) for pi in pm.all_perms(n))
    seeded = (_random_perm(rng, 8) for _ in range(600))
    for pi in itertools.chain(exhaustive, seeded):
        for c in classes:
            for kind in ("sum", "skew"):
                if cl.closure_member(pi, c, kind):
                    assert cl.closure_member(pi, c, "separable"), (pi, c.basis)
            count += 1
    return f"sum and skew closures sit inside the separable closure ({count} decisions: exhaustive |pi| <= 7 + 600 seeded at 8)"


def check_separable_bottom_up(seed: int) -> str:
    sep = cl.avoiding((2, 4, 1, 3), (3, 1, 4, 2))
    single = cl.avoiding((1, 2), (2, 1))
    layers = _sum_closure_layers(single, _CLOSURE_SUMS["separable"], 7)
    for n in range(1, 8):
        assert set(cl.enumerate_members(sep, n)) == layers[n], n
    return "Av(2413,3142) equals the bottom-up sum/skew closure of the single entry for n <= 7"


# ---------------------------------------------------------------------------
# grid checks


def _forest_and_c4_matrices():
    forests, c4s = [], []
    for m in gr.all_matrices(2, 2):
        g = gr.cell_graph(m)
        if ig.is_forest(g):
            forests.append(m)
        else:
            c4s.append(m)
    return forests, c4s


def check_geom_inside_grid(seed: int) -> str:
    rng = _rng(seed, "geom-inside-grid")
    matrices = list(gr.all_matrices(2, 2))
    cases = [(m, n) for m in matrices for n in range(1, 5)]
    cases += [(m, 5) for m in rng.sample(matrices, 12)]
    count = 0
    for m, n in cases:
        for pi in pm.all_perms(n):
            geo = gr.geom_member(pi, m)
            if geo is not None:
                gp, params = geo
                assert gr.validate_gridded(gp, m), (pi,)
                assert gr.grid_member(pi, m) is not None, (pi,)
            count += 1
    return f"geometric members are monotone-griddable too, witnesses re-validated ({count} decisions: all 102 matrices for |pi| <= 4, 12 seeded at 5)"


def check_forest_agreement(seed: int) -> str:
    rng = _rng(seed, "forest-agreement")
    forests, c4s = _forest_and_c4_matrices()
    assert len(forests) == 86 and len(c4s) == 16
    for m in forests:
        for n in range(1, 5):
            assert gr.enumerate_grid(m, n, "monotone") == gr.enumerate_grid(m, n, "geometric"), n
    for m in rng.sample(forests, 18):
        assert gr.enumerate_grid(m, 5, "monotone") == gr.enumerate_grid(m, 5, "geometric")
    mono = gr.enumerate_grid(gr.X_MATRIX, 4, "monotone")
    geo = gr.enumerate_grid(gr.X_MATRIX, 4, "geometric")
    assert (3, 1, 4, 2) in set(mono) - set(geo)
    assert set(geo) < set(mono)
    return (
        "all 86 forest matrices: monotone = geometric for n <= 4 (18 seeded also at 5); "
        "the four-cell cycle shape differs at n = 4 with witness 3142"
    )


def check_stankova(seed: int) -> str:
    stankova = cl.avoiding((2, 1, 4, 3), (3, 4, 1, 2))
    for n in range(1, 7):
        assert set(gr.enumerate_grid(gr.X_MATRIX, n, "monotone")) == set(
            cl.enumerate_members(stankova, n)
        ), n
    return "the X-shape monotone class equals Av(2143,3412) for n <= 6"


#: The k-fold direct sums of 21 and the k-fold skew sums of 12.
_CHAINS = (("direct", (2, 1)), ("skew", (1, 2)))


def _chain(k: int, direction: str, block: pm.Perm) -> pm.Perm:
    chain: pm.Perm = ()
    for _ in range(k):
        chain = pm.sum_perms(chain, block, direction)
    return chain


def check_griddability_verdict(seed: int) -> str:
    """The verdict read off the basis agrees with membership of the chains,
    and no matrix up to 2 x 2 grids a chain past the pigeonhole bound."""
    stankova = cl.avoiding((2, 1, 4, 3), (3, 4, 1, 2))
    classes = [cl.PermClass(b) for b in SAMPLE_CLASSES] + [stankova]
    for c in classes:
        v = gr.griddability_verdict(c)
        for out, (direction, block) in zip((v.sum_exit, v.skew_exit), _CHAINS):
            for j in range(1, 7):
                held = out is None or j < out[0]
                assert c.member(_chain(j, direction, block)) == held, (c.basis, direction, j)
    # the X-shape grid class (grids.stankova)
    assert gr.griddability_verdict(stankova).griddable
    attained = set()
    for m in gr.all_matrices(2, 2):
        k = len(m.nonzero_cells()) + m.cols + m.rows - 1
        for direction, block in _CHAINS:
            assert gr.grid_member(_chain(k, direction, block), m, max_n=2 * k) is None, (m, direction)
            if k > 1 and gr.grid_member(_chain(k - 1, direction, block), m, max_n=2 * k):
                attained.add(m)
    assert attained
    return (
        f"verdict = chain membership for j <= 6 on {len(classes)} classes (Av(2143,3412) griddable); "
        "no chain of m+c+r-1 blocks grids on any of the 102 matrices up to 2 x 2, "
        f"and a nonempty chain of m+c+r-2 blocks grids on {len(attained)} of them"
    )


def check_drawing_witnesses(seed: int) -> str:
    rng = _rng(seed, "drawing-witnesses")
    matrices = list(gr.all_matrices(2, 2))
    validated = 0
    for _ in range(250):
        m = rng.choice(matrices)
        n = rng.randint(1, 6)
        pi = _random_perm(rng, n)
        geo = gr.geom_member(pi, m)
        if geo is None:
            continue
        gp, params = geo
        assert gr.validate_gridded(gp, m)
        points = gr.drawing_coordinates(gp, m, params)
        xs = [p[0] for p in points]
        assert all(xs[i] < xs[i + 1] for i in range(len(xs) - 1))
        assert pm.reduce_sequence([p[1] for p in points]) == pi
        for t in params:
            assert 0 < t < 1
        validated += 1
    assert validated >= 60, f"only {validated} drawings produced"
    return f"every drawing witness re-validates end to end: x-order, y-reduction, open-interval parameters ({validated} drawings, seeded)"


def check_guard_invariance(seed: int) -> str:
    rng = _rng(seed, "guard-invariance")
    matrices = list(gr.all_matrices(2, 2))
    for _ in range(30):
        m = rng.choice(matrices)
        pi = _random_perm(rng, rng.randint(1, 5))
        low = gr.geom_member(pi, m)
        high = gr.geom_member(pi, m, max_n=12)
        assert (low is None) == (high is None), (pi,)
    return "geometric verdicts are unchanged by a larger size cap (30 seeded instances)"


# ---------------------------------------------------------------------------
# antichain checks


def check_oscillation_filter(seed: int) -> str:
    for n in range(1, 9):
        assert ac.increasing_oscillations(n) == ac.oscillations_by_filter(n), n
    return "generator agrees with the sum-indecomposable path-graph filter for n <= 8"


def check_oscillation_hasse(seed: int) -> str:
    for n in range(3, 8):
        for small in ac.increasing_oscillations(n):
            for big in ac.increasing_oscillations(n + 1):
                assert pm.contains(small, big), (small, big)
    return "every oscillation of length n embeds in both of length n+1, for 3 <= n <= 7"


def check_oscillation_wqo_evidence(seed: int) -> str:
    pool = [p for n in range(3, 9) for p in sorted(ac.increasing_oscillations(n))]
    for trio in itertools.combinations(pool, 3):
        assert any(
            pm.contains(a, b) or pm.contains(b, a)
            for a, b in itertools.combinations(trio, 2)
        ), trio
    members = [ac.labeled_antichain_member(k) for k in range(1, 6)]
    ok, pair = ac.verify_antichain(
        members, lambda a, b: lb.labeled_contains(a, b, lb.TWO_ANTICHAIN)
    )
    assert ok, pair
    return (
        "unlabeled oscillations of lengths 3..8 contain no 3-element antichain; "
        "the first 5 labeled members are pairwise incomparable"
    )


def check_anchor_deletion(seed: int) -> str:
    linear_cls = cl.avoiding((3, 2, 1), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))
    checked = 0
    for family, anchors, kmax in (
        ("amr-oscillation", ac.amr_oscillation_anchors, 7),
        ("amr-tarjan", ac.amr_tarjan_anchors, 8),
    ):
        for k in range(1, kmax + 1):
            pi = ac.antichain_member(family, k)
            assert len(pi) <= 18
            body = pi
            for pos in sorted(anchors(k), reverse=True):
                body = pm.delete_entry(body, pos)
            assert linear_cls.member(body), (family, k)
            checked += 1
    return f"deleting anchor entries leaves a linear-forest-class member ({checked} members, lengths <= 18)"


def check_family_antichains(seed: int) -> str:
    """Every family's first members are pairwise incomparable.  Fails by
    design on ``widdershins``: its spiral members nest (member 1 embeds in
    member 2 at positions 3..6), so the certifier reports that pair."""
    problems = []
    for family, first in (
        ("amr-oscillation", 5),
        ("amr-tarjan", 6),
        ("widdershins", 4),
    ):
        members = [ac.antichain_member(family, k) for k in range(1, first + 1)]
        ok, pair = ac.verify_antichain(members, pm.contains)
        if not ok:
            problems.append(f"{family}: members {pair[0]} and {pair[1]} are comparable")
    labeled = [ac.labeled_antichain_member(k) for k in range(1, 7)]
    ok, pair = ac.verify_antichain(
        labeled, lambda a, b: lb.labeled_contains(a, b, lb.TWO_ANTICHAIN)
    )
    if not ok:
        problems.append(f"labeled-path: members {pair[0]} and {pair[1]} are comparable")
    if problems:
        raise AssertionError("; ".join(problems))
    return "first 4-6 members of every family are pairwise incomparable"


# ---------------------------------------------------------------------------
# registry and runner


CHECKS: List[tuple] = [
    ("perm.contains-vs-naive", check_contains_vs_naive),
    ("perm.symmetry-involutions", check_symmetry_involutions),
    ("perm.components-fold", check_components_fold),
    ("perm.simple-iff-no-intervals", check_simple_iff_no_intervals),
    ("perm.tree-roundtrip", check_tree_roundtrip),
    ("perm.inflate-contains", check_inflate_contains),
    ("labels.degenerate-labels", check_degenerate_labels),
    ("labels.subword-vs-bruteforce", check_subword_vs_bruteforce),
    ("labels.last-entry-reflection", check_last_entry_reflection),
    ("labels.compass-reflection", check_compass_reflection),
    ("labels.strip-zero-preserving", check_strip_zero_preserving),
    ("labels.compass-roundtrip", check_compass_roundtrip),
    ("invgraph.symmetry-iso", check_graph_symmetry_iso),
    ("invgraph.containment-embeds", check_containment_embeds),
    ("invgraph.no-long-cycles", check_no_long_cycles),
    ("invgraph.correspondences", check_graph_correspondences),
    ("invgraph.gallai-preimages", check_gallai_preimages),
    ("invgraph.labeled-gallai", check_labeled_gallai),
    ("classes.enumeration-anchors", check_enumeration_anchors),
    ("classes.plus-one-conditions", check_plus_one_conditions),
    ("classes.closure-agreement", check_closure_agreement),
    ("classes.closure-ordering", check_closure_ordering),
    ("classes.separable-bottom-up", check_separable_bottom_up),
    ("grids.geom-inside-grid", check_geom_inside_grid),
    ("grids.forest-agreement", check_forest_agreement),
    ("grids.stankova", check_stankova),
    ("grids.griddability-verdict", check_griddability_verdict),
    ("grids.drawing-witnesses", check_drawing_witnesses),
    ("grids.guard-invariance", check_guard_invariance),
    ("antichains.oscillation-filter", check_oscillation_filter),
    ("antichains.oscillation-hasse", check_oscillation_hasse),
    ("antichains.wqo-evidence", check_oscillation_wqo_evidence),
    ("antichains.anchor-deletion", check_anchor_deletion),
    ("antichains.family-antichains", check_family_antichains),
]


def run_suite(
    seed: int = 0,
    report: Optional[Callable[[str], None]] = None,
    only: Optional[str] = None,
) -> SuiteResult:
    """Run every registered check (or those whose id contains ``only``),
    in registry order, with deterministic per-check seeding; refused under
    ``python -O``, which strips the ``assert`` statements the checks use."""
    if not __debug__:
        raise ValueError("python -O strips the battery's assert statements; run it without -O")
    say = report or (lambda line: None)
    results = []
    t_start = time.perf_counter()
    for check_id, fn in CHECKS:
        if only and only not in check_id:
            continue
        t0 = time.perf_counter()
        try:
            detail = fn(seed)
            passed = True
        except AssertionError as exc:
            detail = str(exc) or "assertion failed"
            passed = False
        dt = time.perf_counter() - t0
        results.append(CheckResult(check_id, passed, detail, dt))
        say(f"{'PASS' if passed else 'FAIL'} {check_id} ({dt:.2f}s): {detail}")
    total = time.perf_counter() - t_start
    say("")
    say("open questions (reported, not scored):")
    for line in OPEN_QUESTIONS:
        say(f"  - {line}")
    say("")
    n_pass = sum(1 for r in results if r.passed)
    say(f"{n_pass}/{len(results)} checks passed in {total:.1f}s")
    return SuiteResult(tuple(results), total)
