"""The four workloads: seeded inputs, the calls each query makes, and the
answer check for each query kind.

A workload is a fixed round of query kinds repeated until the run's time is
up.  Only the inputs come from the seed, so every seed sees the same mix.
Input generation is plain Python on tuples; the library objects that inputs
refer to (classes, posets, graphs, matrices, family members) are built by
``build`` during set-up.  Every size stays under permpat's default caps.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import oracle as O

PERMS3_4 = [p for n in (3, 4) for p in itertools.permutations(range(1, n + 1))]
WITH_321 = [p for p in PERMS3_4 if O.contains_321(p)]
SIMPLE_SKELETONS = [p for p in O.simple_perms_upto(5) if len(p) >= 4]
SIMPLES_UPTO_7 = O.simple_perms_upto(7)

@dataclass(frozen=True)
class Query:
    kind: str
    data: tuple


@dataclass
class Context:
    """Library objects built during set-up, keyed by their input data."""

    P: object
    classes: dict = field(default_factory=dict)
    graphs: dict = field(default_factory=dict)
    labeled: dict = field(default_factory=dict)
    posets: dict = field(default_factory=dict)
    matrices: list = field(default_factory=list)
    families: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# input generation


def rand_perm(rng: random.Random, n: int) -> tuple:
    return tuple(rng.sample(range(1, n + 1), n))


def two_merge(rng: random.Random, n: int) -> tuple:
    """A union of two increasing sequences, hence a member of Av(321)."""
    first = set(rng.sample(range(1, n + 1), rng.randint(1, n - 1)))
    slots = set(rng.sample(range(n), len(first)))
    a, b = iter(sorted(first)), iter(sorted(set(range(1, n + 1)) - first))
    return tuple(next(a) if i in slots else next(b) for i in range(n))


def carve(rng: random.Random, pi: tuple, k: int) -> tuple:
    positions = sorted(rng.sample(range(len(pi)), k))
    return positions, O.reduce([pi[i] for i in positions])


def with_321(rng: random.Random, k: int) -> tuple:
    while True:
        sigma = rand_perm(rng, k)
        if O.contains_321(sigma):
            return sigma


def plant(rng: random.Random, n: int, beta: tuple) -> tuple:
    """A uniform permutation rearranged so ``beta`` occurs at known positions."""
    pi = list(rand_perm(rng, n))
    positions = sorted(rng.sample(range(n), len(beta)))
    values = sorted(pi[i] for i in positions)
    for i, b in zip(positions, beta):
        pi[i] = values[b - 1]
    return tuple(pi), tuple(positions)


def antichain_basis(rng: random.Random, lengths: tuple, pool=PERMS3_4) -> tuple:
    """Patterns of the given lengths, none containing another, sorted."""
    while True:
        basis = O.minimalize(rng.choice([p for p in pool if len(p) == k]) for k in lengths)
        if len(basis) == len(lengths):
            return basis


def nested(rng: random.Random, n: int) -> tuple:
    """Random nested inflations and sums: a tree with many intervals."""
    if n == 1:
        return (1,)
    if n >= 4 and rng.random() < 0.4:
        skeleton = rng.choice([s for s in SIMPLE_SKELETONS if len(s) <= n])
        sizes = split(rng, n, len(skeleton))
        return O.inflate(skeleton, [nested(rng, s) for s in sizes])
    sizes = split(rng, n, rng.randint(2, min(n, 3)))
    out = ()
    for block in (nested(rng, s) for s in sizes):
        out = O.direct_sum(out, block) if rng.random() < 0.5 else O.skew_sum(out, block)
    return out


def split(rng: random.Random, n: int, parts: int) -> list:
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def draw(rng: random.Random, matrix: tuple, n: int) -> tuple:
    """Points placed on the matrix's standard figure, read as a permutation."""
    _, _, signs = matrix
    cells = sorted(c for c, s in signs.items() if s)
    while True:
        points = []
        for _ in range(n):
            (k, l), t = rng.choice(cells), rng.random()
            points.append((k - 1 + t, (l - 1 + t) if signs[(k, l)] == 1 else (l - t)))
        xs, ys = {x for x, _ in points}, {y for _, y in points}
        # t = 0 would put a point on a cell corner; ties would merge points
        if all(p[0] % 1 for p in points) and len(xs) == n and len(ys) == n:
            points.sort()
            return O.reduce([y for _, y in points])


def rows_to_matrix(rows) -> tuple:
    """(cols, rows, {(column, row): sign}) from top-first display rows."""
    u, t = len(rows), len(rows[0])
    return (t, u, {(k, u - r): rows[r][k - 1] for r in range(u) for k in range(1, t + 1)})


def small_matrices() -> list:
    """Every 0/±1 matrix up to 2x2 with a nonzero entry, in the order of
    ``all_matrices(2, 2)``, then X and four 2x3 / 3x2 matrices."""
    out = []
    for t in (1, 2):
        for u in (1, 2):
            for flat in itertools.product((-1, 0, 1), repeat=t * u):
                if any(flat):
                    signs = {(k, l): flat[(k - 1) * u + (l - 1)] for k in range(1, t + 1) for l in range(1, u + 1)}
                    out.append((t, u, signs))
    out.append(rows_to_matrix([[-1, 1], [1, -1]]))
    for rows in (
        [[1, 0, -1], [0, 1, 1]],
        [[-1, 1, 0], [0, -1, 1]],
        [[1, -1], [0, 1], [1, 0]],
        [[0, -1], [1, 1], [-1, 0]],
    ):
        out.append(rows_to_matrix(rows))
    return out


MATRICES = small_matrices()
X_INDEX = len(MATRICES) - 5


def matrix_object(P, matrix: tuple):
    cols, rows, signs = matrix
    return P.ZeroPmOneMatrix(
        cols, rows, tuple(tuple(signs[(k, l)] for l in range(1, rows + 1)) for k in range(1, cols + 1))
    )


def memo(table: dict, key, compute):
    if key not in table:
        table[key] = compute()
    return table[key]


def by_length(perms) -> tuple:
    return tuple(sorted(perms, key=lambda p: (len(p), p)))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """A named round of query slots.  Subclasses give ``make`` (seeded
    pools), ``build`` (library objects), ``slot`` (one query for one slot)
    and the ``run_*`` / ``check_*`` pair for every kind."""

    name = ""
    round_slots: tuple = ()

    def __init__(self, seed: int):
        self.seed = seed
        self.inputs = self.make(random.Random(f"{self.name}/{seed}/inputs"))
        self.expected: dict = {}

    def make(self, rng: random.Random) -> dict:
        return {}

    def rounds(self):
        """Rounds of queries without end; the same seed gives the same rounds."""
        rng = random.Random(f"{self.name}/{self.seed}/stream")
        cursors: dict = {}
        while True:
            yield [self.slot(rng, spec, cursors) for spec in self.round_slots]

    def next_from(self, pool: str, cursors: dict, key=None):
        """Walk a pool in order, so consecutive uses get different inputs."""
        items = self.inputs[pool] if key is None else self.inputs[pool][key]
        i = cursors.get((pool, key), 0)
        cursors[(pool, key)] = i + 1
        return items[i % len(items)]

    def build(self, P) -> Context:
        return Context(P)

    def run(self, ctx: Context, q: Query):
        return getattr(self, "run_" + q.kind)(ctx, *q.data)

    def check(self, q: Query, answer) -> bool:
        return bool(getattr(self, "check_" + q.kind)(answer, *q.data))

    def warmup(self, ctx: Context) -> None:
        """One small query of every kind, so lazy imports and first-call
        costs fall in set-up."""
        for q in self.warmup_queries():
            self.run(ctx, q)

    def warmup_queries(self) -> list:
        return []


SHAPES = ((3,), (4,), (3, 3), (3, 4), (4, 4), (3, 4, 4))
ANCHORS = {
    "321": ((3, 2, 1),),
    "separable": ((2, 4, 1, 3), (3, 1, 4, 2)),
    "skew-merged": ((2, 1, 4, 3), (3, 4, 1, 2)),
}
SMALL_CLASSES = (((1, 2),), ((2, 1),), ((1, 2), (2, 1)))


class Enumerate(Workload):
    name = "enumerate"
    # 40 slots.  Sizes are fixed per slot so each round costs about the same
    # whatever the seed; only one Av(321) n=8 call (2.5%) keeps p95 inside
    # the n=7 group.
    round_slots = (
        ("anchor", "321", 8),
        *(("anchor", a, 7) for a in ANCHORS),
        *(("anchor", a, 6) for a in ANCHORS),
        ("enum", 3, 7), ("enum", 4, 7),
        *(("enum", s, 6) for s in (0, 1, 2, 3, 4, 5, 0, 3)),
        *(("minimal", s) for s in (0, 1, 2, 3, 4, 5)),
        *(("plus_one", i) for i in range(3)),
        *(("union",) for _ in range(6)),
        *(("simples", s, 6) for s in (0, 1, 2, 3, 4, 5)),
        ("simples", 2, 7), ("simples", 4, 7),
    )

    def make(self, rng):
        bases = {s: [antichain_basis(rng, SHAPES[s]) for _ in range(16)] for s in range(len(SHAPES))}
        threes = [p for p in PERMS3_4 if len(p) == 3]
        unions = []
        while len(unions) < 16:
            a = O.minimalize(rng.sample(threes, rng.randint(1, 2)))
            b = O.minimalize(rng.sample(threes, rng.randint(1, 2)))
            if a != b:
                unions.append((a, b))
        return {"bases": bases, "unions": unions}

    def slot(self, rng, spec, cursors):
        kind = spec[0]
        if kind == "anchor":
            return Query("enum", (ANCHORS[spec[1]], spec[2], spec[1]))
        if kind == "enum":
            return Query("enum", (self.next_from("bases", cursors, spec[1]), spec[2], None))
        if kind == "minimal":
            basis = self.next_from("bases", cursors, spec[1])
            return Query("minimal", (basis, max(map(len, basis)) + 1))
        if kind == "plus_one":
            return Query("plus_one", (SMALL_CLASSES[spec[1]],))
        if kind == "union":
            return Query("union", self.next_from("unions", cursors))
        return Query("simples", (self.next_from("bases", cursors, spec[1]), spec[2]))

    def build(self, P):
        ctx = Context(P)
        all_bases = [*ANCHORS.values(), *SMALL_CLASSES]
        all_bases += [b for pool in self.inputs["bases"].values() for b in pool]
        all_bases += [b for pair in self.inputs["unions"] for b in pair]
        for basis in all_bases:
            ctx.classes[basis] = P.PermClass(basis)
        return ctx

    def warmup_queries(self):
        return [
            Query("enum", (ANCHORS["321"], 4, "321")),
            Query("minimal", (ANCHORS["321"], 4)),
            Query("plus_one", (SMALL_CLASSES[2],)),
            Query("union", (((1, 2),), ((2, 1),))),
            Query("simples", (ANCHORS["321"], 4)),
        ]

    def run_enum(self, ctx, basis, n, anchor):
        return ctx.P.enumerate_members(ctx.classes[basis], n)

    def check_enum(self, answer, basis, n, anchor):
        if anchor is None:
            return answer == memo(self.expected, ("enum", basis, n), lambda: O.members_of_length(basis, n))
        key = ("anchor", basis, n)
        if key not in self.expected:
            # First sighting: count from the published formula, then check
            # every member; later answers must equal the checked one.
            ok = (
                isinstance(answer, tuple)
                and len(answer) == O.ANCHOR_COUNTS[anchor](n)
                and list(answer) == sorted(set(answer))
                and all(sorted(p) == list(range(1, n + 1)) and O.avoids_all(p, basis) for p in answer)
            )
            if not ok:
                return False
            self.expected[key] = answer
        return answer == self.expected[key]

    def run_minimal(self, ctx, basis, nmax):
        return ctx.P.minimal_nonmembers(ctx.classes[basis].member, nmax)

    def check_minimal(self, answer, basis, nmax):
        return answer == memo(self.expected, ("basis", basis), lambda: O.minimalize(basis))

    def run_plus_one(self, ctx, basis):
        return ctx.P.plus_one_basis(ctx.classes[basis])

    def check_plus_one(self, answer, basis):
        return answer.exact and answer.basis_class.basis == O.plus_one_expected(basis)

    def run_union(self, ctx, a, b):
        return ctx.P.union_basis(ctx.classes[a], ctx.classes[b])

    def check_union(self, answer, a, b):
        return answer.basis == memo(self.expected, ("union", a, b), lambda: O.union_basis_expected(a, b))

    def run_simples(self, ctx, basis, nmax):
        return ctx.P.simples_in_class(ctx.classes[basis], nmax)

    def check_simples(self, answer, basis, nmax):
        return answer == memo(
            self.expected,
            ("simples", basis, nmax),
            lambda: by_length(p for p in SIMPLES_UPTO_7 if len(p) <= nmax and O.avoids_all(p, basis)),
        )


FAMILIES = {
    # family -> members used.  The two AMR families and the labeled path
    # family are antichains; consecutive widdershins members nest.
    "amr-oscillation": 5,
    "amr-tarjan": 6,
    "labeled-path": 5,
    "widdershins": 4,
}
TWO_CHAIN = ("o", "*")


def label_leq(flavour: str, a, b) -> bool:
    """Label order: identity on the two-element antichain; on compass
    triples, the o<* chain on both labels and equal directions."""
    if flavour == "antichain":
        return a == b
    return (a[0] == b[0] or a[0] == "o") and (a[1] == b[1] or a[1] == "o") and a[2] == b[2]


class Search(Workload):
    name = "search"
    # 40 slots; the 12 graph queries keep p95 inside the n=9 induced-cycle
    # scans, which cost 100x a containment query.
    round_slots = (
        *(("contain", True),) * 6,
        *(("contain", False),) * 6,
        *(("labeled", f, present) for f in ("antichain", "compass") for present in (True, True, False, False)),
        *(("member", verdict) for verdict in (True, True, True, False, False, False)),
        *(("embed", present) for present in (True, True, False, False)),
        *(("classify",),) * 4,
        *(("longcycle",),) * 4,
        *(("antichain",),) * 2,
    )

    def make(self, rng):
        labeled = {}
        for flavour in ("antichain", "compass"):
            for present in (True, False):
                pool = []
                for _ in range(256):
                    n, k = rng.randint(10, 30), rng.randint(4, 8)
                    pool.append(self.labeled_pair(rng, flavour, present, n, k))
                labeled[(flavour, present)] = pool
        graphs = {
            "classify": [rand_perm(rng, rng.randint(7, 9)) for _ in range(128)],
            "longcycle": [rand_perm(rng, 9) for _ in range(128)],
        }
        embeds = {True: [], False: []}
        for _ in range(128):
            g = rand_perm(rng, rng.randint(8, 10))
            embeds[True].append((carve(rng, g, rng.randint(4, 6))[1], g))
            embeds[False].append((with_321(rng, rng.randint(4, 6)), two_merge(rng, rng.randint(8, 10))))
        # every basis element contains 321, so two-merge texts are members
        shapes = ((3,), (4,), (4, 4), (4, 4, 4))
        classes = [antichain_basis(rng, shapes[i % len(shapes)], WITH_321) for i in range(24)]
        windows = []
        for family, top in FAMILIES.items():
            for lo in range(1, top):
                for hi in range(lo + 1, top + 1):
                    windows.append((family, lo, hi))
        rng.shuffle(windows)
        return {"labeled": labeled, "graphs": graphs, "embeds": embeds, "classes": classes, "windows": windows}

    @staticmethod
    def labeled_pair(rng, flavour, present, n, k):
        def label():
            if flavour == "antichain":
                return rng.choice(TWO_CHAIN)
            return (rng.choice(TWO_CHAIN), rng.choice(TWO_CHAIN), rng.choice(("sw", "se", "ne", "nw")))

        if present:
            pi = rand_perm(rng, n)
            plabels = tuple(label() for _ in pi)
            positions, sigma = carve(rng, pi, k)
            # pattern labels sit at or below the text labels they match
            slabels = []
            for i in positions:
                lab = plabels[i]
                if flavour == "compass" and rng.random() < 0.5:
                    lab = ("o", "o", lab[2])
                slabels.append(lab)
            return sigma, tuple(slabels), pi, plabels
        pi = two_merge(rng, n)
        sigma = with_321(rng, k)
        return sigma, tuple(label() for _ in sigma), pi, tuple(label() for _ in pi)

    def slot(self, rng, spec, cursors):
        kind = spec[0]
        if kind == "contain":
            n, k = rng.randint(10, 30), rng.randint(4, 8)
            if spec[1]:
                pi = rand_perm(rng, n)
                return Query("contain", (carve(rng, pi, k)[1], pi, True))
            return Query("contain", (with_321(rng, k), two_merge(rng, n), False))
        if kind == "labeled":
            return Query("labeled", (spec[1], spec[2], self.next_from("labeled", cursors, (spec[1], spec[2]))))
        if kind == "member":
            basis = self.next_from("classes", cursors)
            n = rng.randint(10, 30)
            if spec[1]:
                return Query("member", (basis, two_merge(rng, n), True, None))
            text, positions = plant(rng, n, rng.choice(basis))
            return Query("member", (basis, text, False, positions))
        if kind == "embed":
            h, g = self.next_from("embeds", cursors, spec[1])
            return Query("embed", (h, g, spec[1]))
        if kind in ("classify", "longcycle"):
            return Query(kind, (self.next_from("graphs", cursors, kind),))
        return Query("antichain", self.next_from("windows", cursors))

    def build(self, P):
        ctx = Context(P)
        ctx.posets["antichain"] = P.TWO_ANTICHAIN
        ctx.posets["compass"] = P.compass_poset(P.FinitePoset.chain(TWO_CHAIN))
        for (flavour, _), pool in self.inputs["labeled"].items():
            for sigma, slabels, pi, plabels in pool:
                ctx.labeled[(sigma, slabels, pi, plabels)] = (
                    P.LabeledPermutation(sigma, slabels),
                    P.LabeledPermutation(pi, plabels),
                )
        perms = [p for pool in self.inputs["graphs"].values() for p in pool]
        perms += [p for pool in self.inputs["embeds"].values() for pair in pool for p in pair]
        for pi in perms:
            ctx.graphs[pi] = P.inversion_graph(pi)
        for basis in self.inputs["classes"]:
            ctx.classes[basis] = P.PermClass(basis)
        for family, top in FAMILIES.items():
            if family == "labeled-path":
                ctx.families[family] = [P.labeled_antichain_member(k) for k in range(1, top + 1)]
            else:
                ctx.families[family] = [P.antichain_member(family, k) for k in range(1, top + 1)]
        return ctx

    def warmup_queries(self):
        lab = self.inputs["labeled"]
        return [
            Query("contain", ((2, 1), (1, 3, 2), True)),
            Query("labeled", ("antichain", True, lab[("antichain", True)][0])),
            Query("labeled", ("compass", True, lab[("compass", True)][0])),
            Query("member", (self.inputs["classes"][0], (1, 2, 3), True, None)),
            Query("embed", (*self.inputs["embeds"][True][0], True)),
            Query("classify", (self.inputs["graphs"]["classify"][0],)),
            Query("longcycle", (self.inputs["graphs"]["longcycle"][0],)),
            Query("antichain", ("amr-tarjan", 1, 2)),
        ]

    def run_contain(self, ctx, sigma, pi, present):
        return ctx.P.containment_witness(sigma, pi)

    def check_contain(self, answer, sigma, pi, present):
        if present:
            return O.witness_ok(sigma, pi, answer)
        return answer is None and O.contains_321(sigma) and not O.contains_321(pi)

    def run_labeled(self, ctx, flavour, present, pair):
        s, p = ctx.labeled[pair]
        return ctx.P.labeled_containment_witness(s, p, ctx.posets[flavour])

    def check_labeled(self, answer, flavour, present, pair):
        sigma, slabels, pi, plabels = pair
        if not present:
            return answer is None and O.contains_321(sigma) and not O.contains_321(pi)
        return O.witness_ok(sigma, pi, answer) and all(
            label_leq(flavour, slabels[j], plabels[i - 1]) for j, i in enumerate(answer)
        )

    def run_member(self, ctx, basis, text, verdict, positions):
        return ctx.classes[basis].member(text)

    def check_member(self, answer, basis, text, verdict, positions):
        if answer is not verdict:
            return False
        if verdict:
            return not O.contains_321(text) and all(O.contains_321(b) for b in basis)
        return O.reduce([text[i] for i in positions]) in basis

    def run_embed(self, ctx, h, g, present):
        return ctx.P.induced_embeds(ctx.graphs[h], ctx.graphs[g])

    def check_embed(self, answer, h, g, present):
        if present:
            return O.embedding_ok(h, g, answer)
        # h holds a triangle (a 321), g is bipartite (it avoids 321)
        return answer is None and O.contains_321(h) and not O.contains_321(g)

    def run_classify(self, ctx, pi):
        return ctx.P.classify(ctx.graphs[pi])

    def check_classify(self, answer, pi):
        return answer == memo(self.expected, ("flags", pi), lambda: O.graph_flags(pi))

    def run_longcycle(self, ctx, pi):
        return ctx.P.has_long_induced_cycle(ctx.graphs[pi])

    def check_longcycle(self, answer, pi):
        # Inversion graphs are permutation graphs, which are cocomparability
        # graphs; those have no induced cycle on five or more vertices.
        return answer is False

    def run_antichain(self, ctx, family, lo, hi):
        members = ctx.families[family][lo - 1:hi]
        if family == "labeled-path":
            poset = ctx.posets["antichain"]
            return ctx.P.verify_antichain(members, lambda a, b: ctx.P.labeled_contains(a, b, poset))
        return ctx.P.verify_antichain(members, ctx.P.contains)

    def check_antichain(self, answer, family, lo, hi):
        if family != "widdershins":
            return answer == (True, None)
        # The widdershins rule yields a chain: the pair reported must really
        # be comparable, checked here on the members themselves.
        verdict, pair = answer
        if verdict is not False or pair is None:
            return False
        i, j = pair
        count = hi - lo + 1
        if not (1 <= i <= count and 1 <= j <= count and i != j):
            return False
        small = self.widdershins(lo + i - 1)
        big = self.widdershins(lo + j - 1)
        return O.occurrence(small, big) is not None

    @staticmethod
    def widdershins(k: int) -> tuple:
        """Member k of the widdershins family, from its defining spiral."""
        points = []
        for j in range(1, k + 1):
            points += [(2 * j, -2 * j), (2 * j - 1, 2 * j), (-2 * j, 2 * j - 1), (-(2 * j - 1), -(2 * j + 3))]
        points.sort()
        return O.reduce([y for _, y in points])


CLOSURE_BASES = {"substitution": ((2, 4, 1, 3), (3, 1, 4, 2)), "separable": ((2, 1),)}


class Decompose(Workload):
    name = "decompose"
    round_slots = (*(("uniform",),) * 4, *(("nested",),) * 4)

    def slot(self, rng, spec, cursors):
        n = rng.randint(8, 16)
        pi = rand_perm(rng, n) if spec[0] == "uniform" else nested(rng, n)
        return Query("decompose", (pi,))

    def build(self, P):
        ctx = Context(P)
        for basis in CLOSURE_BASES.values():
            ctx.classes[basis] = P.PermClass(basis)
        return ctx

    def warmup_queries(self):
        return [Query("decompose", ((2, 4, 1, 3, 5),))]

    def run_decompose(self, ctx, pi):
        P = ctx.P
        return (
            P.decompose_tree(pi),
            P.intervals(pi),
            P.is_simple(pi),
            P.components(pi, "direct"),
            P.components(pi, "skew"),
            P.closure_member_tree(pi, ctx.classes[CLOSURE_BASES["substitution"]]),
            P.closure_member(pi, ctx.classes[CLOSURE_BASES["separable"]], "separable"),
        )

    def check_decompose(self, answer, pi):
        tree, ivs, is_simple, direct, skew, in_subst, in_sep = answer
        if not O.tree_ok(tree, pi):
            return False
        # Every simple permutation of length >= 4 contains 2413 or 3142, and
        # the sum/skew closure of Av(21) is the separables, so both closure
        # verdicts say "no simple node in the tree".
        separable = not O.has_simple_node(tree)
        return (
            ivs == O.proper_intervals(pi)
            and is_simple == (not ivs and len(pi) >= 2)
            and O.components_ok(direct, pi, skew=False)
            and O.components_ok(skew, pi, skew=True)
            and in_subst is separable
            and in_sep is separable
        )


class Geometric(Workload):
    name = "geometric"
    # 40 slots; two enumerate_grid calls (5%) sit above p95.
    round_slots = (
        *(("grid", drawn) for drawn in (True, False) for _ in range(9)),
        *(("geom", drawn) for drawn in (True, False) for _ in range(10)),
        ("enum_grid", "geometric"),
        ("enum_grid", "monotone"),
    )

    def slot(self, rng, spec, cursors):
        if spec[0] == "enum_grid":
            index = X_INDEX if spec[1] == "geometric" else rng.randrange(len(MATRICES))
            return Query("enum_grid", (index, 4, spec[1]))
        index = rng.randrange(len(MATRICES))
        n = rng.randint(5, 8)
        pi = draw(rng, MATRICES[index], n) if spec[1] else rand_perm(rng, n)
        return Query(spec[0], (index, pi, spec[1]))

    def build(self, P):
        ctx = Context(P)
        ctx.matrices = [matrix_object(P, m) for m in MATRICES]
        return ctx

    def warmup_queries(self):
        return [
            Query("grid", (X_INDEX, (3, 1, 4, 2), False)),
            Query("geom", (X_INDEX, (2, 1, 3), False)),
            Query("enum_grid", (X_INDEX, 3, "geometric")),
        ]

    def run_grid(self, ctx, index, pi, drawn):
        return ctx.P.grid_member(pi, ctx.matrices[index])

    def check_grid(self, answer, index, pi, drawn):
        cols, rows, signs = MATRICES[index]
        if answer is not None:
            return answer.perm == pi and O.gridding_ok(pi, answer.cells, signs)
        return not drawn and not O.grid_verdict(pi, cols, rows, signs, geometric=False)

    def run_geom(self, ctx, index, pi, drawn):
        return ctx.P.geom_member(pi, ctx.matrices[index])

    def check_geom(self, answer, index, pi, drawn):
        cols, rows, signs = MATRICES[index]
        if answer is not None:
            gp, params = answer
            return gp.perm == pi and O.drawing_ok(pi, gp.cells, params, signs)
        return not drawn and not O.grid_verdict(pi, cols, rows, signs, geometric=True)

    def run_enum_grid(self, ctx, index, n, kind):
        return ctx.P.enumerate_grid(ctx.matrices[index], n, kind)

    def check_enum_grid(self, answer, index, n, kind):
        cols, rows, signs = MATRICES[index]
        if index == X_INDEX and n == 4 and len(answer) != {"monotone": 22, "geometric": 20}[kind]:
            return False
        return answer == memo(
            self.expected,
            ("enum_grid", index, n, kind),
            lambda: tuple(
                p
                for p in itertools.permutations(range(1, n + 1))
                if O.grid_verdict(p, cols, rows, signs, geometric=kind == "geometric")
            ),
        )


WORKLOADS = {w.name: w for w in (Enumerate, Search, Decompose, Geometric)}
