"""The ten acceptance checks.

Each test does its full verification first, then prints exactly one
``criterion N: PASS/FAIL — message`` line to the live terminal (outside
pytest's capture) and asserts.  Time budgets are part of the contract and
are asserted alongside the substance.
"""

import itertools
import random
import time

import pytest

from permpat import (
    LabeledPermutation,
    PermClass,
    TWO_ANTICHAIN,
    X_MATRIX,
    all_matrices,
    all_perms,
    amr_oscillation_member,
    amr_tarjan_member,
    antichain_member,
    apply_symmetry,
    automorphisms,
    avoiding,
    avoids,
    cell_graph,
    classify,
    closure_member_tree,
    compass_encoding,
    compass_poset,
    containment_witness,
    contains,
    decompose_tree,
    enumerate_grid,
    enumerate_members,
    geom_member,
    grid_member,
    increasing_oscillations,
    inflate,
    inversion_graph,
    is_simple,
    is_sum_indecomposable,
    labeled_antichain_member,
    labeled_containment_witness,
    labeled_contains,
    last_entry_decoding,
    last_entry_encoding,
    plus_one_basis,
    plus_one_member,
    preimages,
    reduce_sequence,
    run_suite,
    symmetry_automorphism_maps,
    verify_antichain,
    widdershins_member,
)
from permpat.suite import substitution_closure_by_patterns


def _report(capsys, number: int, ok: bool, message: str) -> None:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} — {message}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_perm(rng: random.Random, n: int) -> tuple:
    values = list(range(1, n + 1))
    rng.shuffle(values)
    return tuple(values)


def test_criterion_01_containment_anchor(capsys):
    t0 = time.monotonic()
    text = (4, 3, 2, 6, 7, 9, 1, 8, 5)
    witness = containment_witness((3, 2, 5, 1, 4), text)
    ok = (
        witness is not None
        and reduce_sequence([text[i - 1] for i in witness]) == (3, 2, 5, 1, 4)
        and not contains((5, 4, 3, 2, 1), text)
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1
    _report(
        capsys, 1, ok,
        f"witness {witness} reduces to 32514 and 54321 is absent ({elapsed:.3f}s)",
    )


def test_criterion_02_inflation_anchor(capsys):
    t0 = time.monotonic()
    blown = inflate((2, 4, 1, 3), [(1,), (1, 3, 2), (3, 2, 1), (1, 2)])
    tree = decompose_tree(blown)
    ok = (
        blown == (4, 7, 9, 8, 3, 2, 1, 5, 6)
        and tree.evaluate() == blown
        and tree.shape()
        == "2413[leaf, +[leaf, -[leaf, leaf]], -[leaf, leaf, leaf], +[leaf, leaf]]"
    )
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1
    _report(
        capsys, 2, ok,
        f"inflate(2413; 1,132,321,12) = 479832156 and its tree round-trips ({elapsed:.3f}s)",
    )


def test_criterion_03_graph_correspondences(capsys):
    t0 = time.monotonic()
    # the library's own exhaustive battery checks (<= 7 plus seeded length 8)
    suite_ok = (
        run_suite(only="invgraph.correspondences").passed
        and run_suite(only="invgraph.no-long-cycles").passed
    )
    # independent set-equality formulation, exhaustive for n <= 7
    correspondences = [
        ("is_bipartite", ((3, 2, 1),)),
        ("is_forest", ((3, 2, 1), (3, 4, 1, 2))),
        ("is_linear_forest", ((3, 2, 1), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))),
        ("is_cograph", ((2, 4, 1, 3), (3, 1, 4, 2))),
    ]
    violations = 0
    perms_examined = subsets_examined = 0
    for n in range(1, 8):
        perms = tuple(all_perms(n))
        flags_by_pi = {}
        for pi in perms:
            perms_examined += 1
            g = inversion_graph(pi)
            flags_by_pi[pi] = classify(g)
            adjacency = {v: set() for v in range(1, n + 1)}
            for a, b in g.edges:
                adjacency[a].add(b)
                adjacency[b].add(a)
            for k in range(5, n + 1):
                for sub in itertools.combinations(range(1, n + 1), k):
                    subsets_examined += 1
                    inside = set(sub)
                    if not all(len(adjacency[v] & inside) == 2 for v in sub):
                        continue
                    seen = {sub[0]}
                    frontier = [sub[0]]
                    while frontier:
                        v = frontier.pop()
                        for u in adjacency[v] & inside:
                            if u not in seen:
                                seen.add(u)
                                frontier.append(u)
                    if len(seen) == k:  # induced k-cycle, k >= 5
                        violations += 1
        for key, basis in correspondences:
            graph_side = {pi for pi in perms if flags_by_pi[pi][key]}
            avoid_side = {pi for pi in perms if avoids(pi, basis)}
            if graph_side != avoid_side:
                violations += 1
        connected = {pi for pi in perms if flags_by_pi[pi]["is_connected"]}
        indecomposable = {pi for pi in perms if is_sum_indecomposable(pi)}
        if connected != indecomposable:
            violations += 1
    elapsed = time.monotonic() - t0
    # the work the exhaustive claim stands for: sum of n! for n <= 7, and
    # every vertex subset of size >= 5 of each of those inversion graphs
    ok = (
        suite_ok
        and violations == 0
        and perms_examined == 5913
        and subsets_examined == 151_320
        and elapsed <= 120
    )
    _report(
        capsys, 3, ok,
        "five correspondences hold as set equalities and no induced cycle of "
        f"length >= 5 exists, exhaustive n <= 7 ({perms_examined} permutations, "
        f"{subsets_examined} vertex subsets of size >= 5; {elapsed:.1f}s, at most 120s)",
    )


def test_criterion_04_prime_graph_preimages(capsys):
    t0 = time.monotonic()
    checked = 0
    violations = 0
    for n in range(4, 7):
        for sigma in all_perms(n):
            if not is_simple(sigma):
                continue
            checked += 1
            g = inversion_graph(sigma)
            rc = apply_symmetry(sigma, "reverse-complement")
            expected = {
                sigma,
                apply_symmetry(sigma, "inverse"),
                rc,
                apply_symmetry(rc, "inverse"),
            }
            if preimages(g, n) != expected:
                violations += 1
            auts = automorphisms(g)
            if len(auts) not in (1, 2, 4):
                violations += 1
            if set(auts) != set(symmetry_automorphism_maps(sigma).values()):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = checked == 2 + 6 + 46 and violations == 0 and elapsed < 60
    _report(
        capsys, 4, ok,
        f"all {checked} simple patterns of lengths 4-6 have exactly the four "
        f"symmetry preimages and symmetry-realized automorphism groups of size "
        f"1, 2, or 4 ({elapsed:.1f}s)",
    )


def test_criterion_05_one_point_extension_basis(capsys):
    t0 = time.monotonic()
    result = plus_one_basis(avoiding((1, 2)))
    basis = result.basis_class.basis
    expected = ((1, 2, 3), (2, 1, 4, 3), (2, 4, 1, 3), (3, 1, 4, 2), (3, 4, 1, 2))
    structural = (
        result.searched_to == 6  # m(m+1) for max basis length m = 2
        and result.exact
        and basis == expected
        and (1, 2, 3) in basis
        and verify_antichain(basis, contains) == (True, None)
    )
    # independent re-verification: no seventh-length basis element exists,
    # i.e. every length-7 avoider of the found basis is within one deletion
    # of the base class
    scan_violations = sum(
        1
        for pi in all_perms(7)
        if avoids(pi, basis) and not plus_one_member(pi, avoiding((1, 2)))
    )
    elapsed = time.monotonic() - t0
    ok = structural and scan_violations == 0 and elapsed < 30
    _report(
        capsys, 5, ok,
        "one-point extension of the decreasing class: search stops at length 6 "
        "with the exact five-element antichain containing 123, and the length-7 "
        f"scan adds nothing ({elapsed:.1f}s)",
    )


def test_criterion_06_order_reflection(capsys):
    t0 = time.monotonic()
    # last-entry encoding: every labeled subpattern of an encoded image
    # decodes to a contained permutation — this covers the reflection
    # implication for every pair of lengths <= 6
    exhaustive_checked = 0
    for n in range(1, 7):
        for gamma in all_perms(n):
            image = last_entry_encoding(gamma)
            body, labels = image.perm, image.labels
            for k in range(n):
                for sub in itertools.combinations(range(n - 1), k):
                    q = LabeledPermutation(
                        reduce_sequence([body[i] for i in sub]),
                        tuple(labels[i] for i in sub),
                    )
                    beta = last_entry_decoding(q)
                    assert contains(beta, gamma), (beta, gamma)
                    exhaustive_checked += 1
    # the same implication cross-validated through the generic labeled
    # containment search on seeded pairs
    rng = random.Random("acceptance:criterion6")
    direct_hits = 0
    for _ in range(4000):
        nb = rng.randint(1, 5)
        ng = rng.randint(nb, 6)
        beta = _random_perm(rng, nb)
        gamma = _random_perm(rng, ng)
        if labeled_contains(
            last_entry_encoding(beta), last_entry_encoding(gamma), TWO_ANTICHAIN
        ):
            direct_hits += 1
            assert contains(beta, gamma), (beta, gamma)
    # compass encoding over the two-element label antichain: image
    # containment must reflect to labeled containment with the marked
    # entries matched; reconstruct and recheck the full witness
    base = TWO_ANTICHAIN
    cposet = compass_poset(base)
    atoms = base.elements
    compass_hits = 0
    for _ in range(1000):
        npi = rng.randint(2, 6)
        nsig = rng.randint(2, npi)
        p = LabeledPermutation(
            _random_perm(rng, npi), tuple(rng.choice(atoms) for _ in range(npi))
        )
        a = rng.randint(1, npi)
        if rng.random() < 0.5:
            s = LabeledPermutation(
                _random_perm(rng, nsig), tuple(rng.choice(atoms) for _ in range(nsig))
            )
            b = rng.randint(1, nsig)
        else:
            positions = sorted(rng.sample(range(1, npi + 1), nsig))
            s = LabeledPermutation(
                reduce_sequence([p.perm[i - 1] for i in positions]),
                tuple(p.labels[i - 1] for i in positions),
            )
            b = positions.index(a) + 1 if a in positions else rng.randint(1, nsig)
        w = labeled_containment_witness(
            compass_encoding(s, b), compass_encoding(p, a), cposet
        )
        if w is None:
            continue
        compass_hits += 1
        full = [0] * len(s)
        for j in range(1, len(s) + 1):
            if j == b:
                full[j - 1] = a
            else:
                img_index = j if j < b else j - 1
                hit = w[img_index - 1]
                full[j - 1] = hit if hit < a else hit + 1
        assert all(full[i] < full[i + 1] for i in range(len(full) - 1)), (s, p)
        assert reduce_sequence([p.perm[i - 1] for i in full]) == s.perm, (s, p)
        assert all(
            base.leq(s.label(j), p.label(full[j - 1])) for j in range(1, len(s) + 1)
        ), (s, p)
    elapsed = time.monotonic() - t0
    ok = direct_hits >= 500 and compass_hits >= 100 and elapsed < 120
    _report(
        capsys, 6, ok,
        f"last-entry reflection exhaustive for lengths <= 6 ({exhaustive_checked} "
        f"subpatterns, antecedent fired on {direct_hits} of 4000 seeded pairs) and "
        f"compass reflection on 1000 seeded pairs (antecedent fired {compass_hits}, "
        f"witnesses reconstructed) with zero violations ({elapsed:.1f}s)",
    )


def test_criterion_07_x_class(capsys):
    t0 = time.monotonic()
    monotone_basis = avoiding((2, 1, 4, 3), (3, 4, 1, 2))
    geometric_basis = avoiding((2, 1, 4, 3), (3, 4, 1, 2), (2, 4, 1, 3), (3, 1, 4, 2))
    violations = 0
    counts = {}
    for n in range(1, 7):
        mono = enumerate_grid(X_MATRIX, n, "monotone")
        geo = enumerate_grid(X_MATRIX, n, "geometric")
        counts[n] = (len(mono), len(geo))
        if mono != enumerate_members(monotone_basis, n):
            violations += 1
        if geo != enumerate_members(geometric_basis, n):
            violations += 1
    elapsed = time.monotonic() - t0
    ok = (
        violations == 0
        and counts[4] == (22, 20)
        and geom_member((3, 1, 4, 2), X_MATRIX) is None
        and elapsed < 300
    )
    _report(
        capsys, 7, ok,
        "monotone X class = Av(2143,3412) and geometric X class = "
        "Av(2143,3412,2413,3142) for n <= 6, counts at n=4 are 22 and 20, "
        f"and 3142 has no drawing ({elapsed:.1f}s)",
    )


def test_criterion_08_forest_criterion(capsys):
    t0 = time.monotonic()

    def first_difference(m, nmax):
        for n in range(1, nmax + 1):
            if enumerate_grid(m, n, "monotone") != enumerate_grid(m, n, "geometric"):
                return n
        return None

    forest_violations = 0
    non_forest = []
    for m in all_matrices(2, 2):
        if classify(cell_graph(m))["is_forest"]:
            if first_difference(m, 5) is not None:
                forest_violations += 1
        else:
            non_forest.append(m)
    shape_ok = len(non_forest) == 16 and all(
        m.nonzero_cells() == ((1, 1), (1, 2), (2, 1), (2, 2)) for m in non_forest
    )
    profile = sorted(
        (
            sum(1 for col in m.signs for entry in col if entry == -1),
            first_difference(m, 5),
        )
        for m in non_forest
    )
    # frozen boundary: exactly the six two-sign matrices differ by n = 5
    # (the two diagonal ones already at n = 4, the X-shape among them)
    expected_profile = [
        (0, None),
        (1, None), (1, None), (1, None), (1, None),
        (2, 4), (2, 4), (2, 5), (2, 5), (2, 5), (2, 5),
        (3, None), (3, None), (3, None), (3, None),
        (4, None),
    ]
    x_difference = first_difference(X_MATRIX, 5)
    elapsed = time.monotonic() - t0
    ok = (
        forest_violations == 0
        and shape_ok
        and profile == expected_profile
        and x_difference == 4
        and elapsed < 300
    )
    _report(
        capsys, 8, ok,
        "every forest-cell-graph matrix up to 2x2 agrees to n=5; the non-forest "
        "shape (all four cells set, cell graph a 4-cycle) exhibits a difference "
        "— the X-shape at n=4 and six two-sign matrices in all; note 10 of its "
        "16 sign choices still agree to n=5, so the difference is a property of "
        f"the shape, not of every signing ({elapsed:.1f}s)",
    )


def test_criterion_09_antichain_anchors(capsys):
    t0 = time.monotonic()
    failures = []
    anchors_16 = {
        "amr-oscillation": (4, 1, 2, 6, 3, 8, 5, 10, 7, 12, 9, 14, 11, 15, 16, 13),
        "amr-tarjan": (2, 15, 4, 1, 6, 3, 8, 5, 10, 7, 12, 9, 14, 11, 16, 13),
        "widdershins": (15, 1, 13, 2, 11, 4, 9, 6, 10, 8, 12, 7, 14, 5, 16, 3),
    }
    generated = {
        "amr-oscillation": amr_oscillation_member(6),
        "amr-tarjan": amr_tarjan_member(7),
        "widdershins": widdershins_member(4),
    }
    for family, expected in anchors_16.items():
        if generated[family] != expected:
            failures.append(f"{family} length-16 member is not bit-exact")
    labeled_16 = labeled_antichain_member(15)
    if labeled_16.perm != (3, 1, 5, 2, 7, 4, 9, 6, 11, 8, 13, 10, 15, 12, 16, 14):
        failures.append("labeled-path length-16 member is not bit-exact")
    if tuple(i + 1 for i, lab in enumerate(labeled_16.labels) if lab == "*") != (2, 15):
        failures.append("labeled-path length-16 marks are not at positions 2 and 15")

    # The widdershins family cannot be an antichain, whatever generates its
    # short members.  Member 1 has length 4 and is an anticlockwise spiral,
    # so it is 3142: the pinned member 4 avoids only 2143 and 3412 (a sum
    # and a skew sum, not spirals) and 2413 (the mirror image of 3142, which
    # winds clockwise).  Member 2 holds a full 3142 turn as well, so the
    # certifier must refute the family at its first pair, (1, 2).
    avoided = [p for p in all_perms(4) if not contains(p, anchors_16["widdershins"])]
    if avoided != [(2, 1, 4, 3), (2, 4, 1, 3), (3, 4, 1, 2)]:
        failures.append(f"widdershins length-16 anchor avoids {avoided} among length 4")
    expected_verdicts = {
        "amr-oscillation": (True, None),
        "amr-tarjan": (True, None),
        "widdershins": (False, (1, 2)),
    }
    for family, expected in expected_verdicts.items():
        members = [antichain_member(family, k) for k in range(1, 5)]
        verdict, pair = verify_antichain(members, contains)
        if (verdict, pair) != expected:
            failures.append(
                f"{family} first-4 verification returns {(verdict, pair)}, "
                f"expected {expected}"
            )

    labeled_members = [labeled_antichain_member(k) for k in range(1, 6)]
    verdict, pair = verify_antichain(
        labeled_members, lambda a, b: labeled_contains(a, b, TWO_ANTICHAIN)
    )
    if not verdict:
        failures.append(f"labeled-path first-5 members comparable at {pair}")

    for n in range(3, 8):
        for small in increasing_oscillations(n):
            for big in increasing_oscillations(n + 1):
                if not contains(small, big):
                    failures.append(
                        f"oscillation chain breaks between lengths {n} and {n + 1}"
                    )

    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120
    detail = (
        "; ".join(failures)
        if failures
        else "all four length-16 anchors bit-exact, AMR and labeled families "
        "verified, widdershins refuted at (1, 2) as its anchor forces, chain holds"
    )
    _report(capsys, 9, ok, f"{detail} ({elapsed:.1f}s)")


def test_criterion_10_closure_consistency(capsys):
    t0 = time.monotonic()
    sample_bases = (
        ((1,),),
        ((1, 2),),
        ((3, 2, 1),),
        ((2, 4, 1, 3), (3, 1, 4, 2)),
        ((2, 1, 4, 3),),
    )
    mismatches = 0
    for basis in sample_bases:
        c = PermClass(basis)
        for n in range(1, 8):
            for pi in all_perms(n):
                via_simples = substitution_closure_by_patterns(pi, c)
                via_tree = closure_member_tree(pi, c)
                if via_simples != via_tree:
                    mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120
    _report(
        capsys, 10, ok,
        "substitution-closure membership by the decomposition walk "
        "(closure_member_tree) agrees with the battery's simple-pattern filter "
        f"on all of S1..S7 for 5 base classes ({elapsed:.1f}s)",
    )
