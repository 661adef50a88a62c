"""The bitmask matroid core against reference oracles.

``ref_make_matroid``, ``ref_cycle_matroid``, ``ref_minor`` and
``ref_has_minor`` are the direct algorithms: the pairwise containment
and exchange scan, the scan of every edge subset of rank size with a
fresh union-find, the expansion of every trace into its largest
subsets, and a minor search that builds every candidate as a
``Matroid``.  The library must agree with them exactly: the same bases,
the same witnesses, the same exception class and message.
"""

import dataclasses
import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualities import graphs as G
from dualities import matroids as M

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None, database=None)


# ---------------------------------------------------------------------------
# reference oracles


def canonical_bases(bases):
    """The distinct sets of a family as frozensets, by size and then
    lexicographically: the order of ``Matroid.bases``."""
    fam = {frozenset(b) for b in bases}
    return tuple(sorted(fam, key=lambda b: (len(b), sorted(b))))


def ref_make_matroid(ground, bases, bound=M.GROUND_BOUND):
    """Validation by scanning every pair of bases."""
    g = tuple(sorted(ground))
    if len(set(g)) != len(g):
        raise M.MatroidError("ground labels must be distinct")
    if any(not isinstance(e, int) or isinstance(e, bool) for e in g):
        raise M.MatroidError("ground labels must be integers")
    if len(g) > bound:
        raise M.GroundTooLarge(f"{len(g)} elements exceed the bound {bound}")
    fam = canonical_bases(bases)
    if not fam:
        raise M.EmptyBases("a matroid needs at least one basis")
    index = {e: i for i, e in enumerate(g)}
    masks = []
    for b in fam:
        mask = 0
        for e in b:
            if e not in index:
                raise M.ElementNotInGround(f"element {e} not in ground set")
            mask |= 1 << index[e]
        masks.append(mask)
    masks.sort()
    mask_set = set(masks)

    def members(mask):
        return frozenset(g[i] for i in range(len(g)) if mask >> i & 1)

    for a, b in itertools.combinations(masks, 2):
        if a & ~b == 0:
            raise M.ContainmentViolation(members(a), members(b))
        if b & ~a == 0:
            raise M.ContainmentViolation(members(b), members(a))
    for x in masks:
        for y in masks:
            if x == y:
                continue
            gain = [1 << i for i in range(len(g)) if (y & ~x) >> i & 1]
            for i in range(len(g)):
                if (x & ~y) >> i & 1 and not any(x ^ (1 << i) | gb in mask_set for gb in gain):
                    raise M.ExchangeFailure(members(x), members(y), g[i])
    return M.Matroid(g, fam)


def ref_cycle_matroid(g, bound=M.GROUND_BOUND):
    """Spanning forests by testing every edge subset of rank size."""
    ne = len(g.edges)
    if ne > bound:
        raise M.GroundTooLarge(f"{ne} elements exceed the bound {bound}")
    r = G.graph_invariants(g).rank
    bases = []
    for combo in itertools.combinations(range(ne), r):
        parent = list(range(g.vertex_count))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        acyclic = True
        for ei in combo:
            ru, rv = find(g.edges[ei][0]), find(g.edges[ei][1])
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if acyclic:
            bases.append(frozenset(combo))
    return M.Matroid(tuple(range(ne)), canonical_bases(bases))


def ref_minor(m, deletions=(), contractions=()):
    """M / C \\ D by expanding every trace into its largest subsets."""
    dels, cons = set(deletions), set(contractions)
    for e in dels | cons:
        if e not in m.ground:
            raise M.ElementNotInGround(f"element {e} not in ground set")
    if dels & cons:
        raise M.OverlappingSets(f"deletions and contractions share {sorted(dels & cons)}")
    loops = set(m.ground) - set().union(*m.bases)
    dels |= cons & loops
    cons -= loops
    if cons and not any(cons <= b for b in m.bases):
        raise M.DependentContraction(f"contraction set {sorted(cons)} is dependent")
    keep = [e for e in m.ground if e not in dels | cons]
    traces = {b & set(keep) for b in m.bases if cons <= b}
    best = max(len(t) for t in traces)
    out = {frozenset(c) for t in traces for c in itertools.combinations(sorted(t), best)}
    return M.Matroid(tuple(keep), canonical_bases(out))


def ref_labeled_key(m):
    idx = {e: i for i, e in enumerate(m.ground)}
    return tuple(sorted(tuple(sorted(idx[e] for e in b)) for b in m.bases))


def ref_has_minor(m, target):
    """Every (contractions, deletions) pair in combination order, each
    candidate built by ``ref_minor``."""
    nt = len(target.ground)
    if nt > len(m.ground):
        return False, None
    s = target.rank
    csize = m.rank - s
    dsize = len(m.ground) - nt - csize
    if csize < 0 or dsize < 0:
        return False, None
    tkey = ref_labeled_key(target)
    seen = {}
    for contr in itertools.combinations(m.ground, csize):
        if not any(set(contr) <= b for b in m.bases):
            continue
        rest = [e for e in m.ground if e not in contr]
        for dele in itertools.combinations(rest, dsize):
            mm = ref_minor(m, dele, contr)
            if (len(mm.bases), mm.rank) != (len(target.bases), s):
                continue
            key = ref_labeled_key(mm)
            if key == tkey:
                return True, (dele, contr)
            if key not in seen:
                seen[key] = M.is_isomorphic(mm, target)[0]
            if seen[key]:
                return True, (dele, contr)
    return False, None


# ---------------------------------------------------------------------------
# generators


def vector_matroid(rng, n, rows, p):
    """Column matroid of a random rows x n matrix over GF(p), on 1..n."""
    cols = [tuple(rng.randrange(p) for _ in range(rows)) for _ in range(n)]

    def rank(sub):
        mat = [list(cols[i]) for i in sub]
        r = 0
        for c in range(rows):
            piv = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            inv = pow(mat[r][c], p - 2, p)
            for i in range(len(mat)):
                if i != r and mat[i][c] % p:
                    f = mat[i][c] * inv
                    mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
            r += 1
        return r

    full = rank(range(n))
    ground = list(range(1, n + 1))
    bases = [[e + 1 for e in sub] for sub in itertools.combinations(range(n), full) if rank(sub) == full]
    return ground, bases


def random_multigraph(rng, max_vertices=6, max_edges=9):
    nv = rng.randint(0, max_vertices)
    if nv == 0:
        return G.Multigraph(0, ())
    edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, max_edges))]
    return G.Multigraph(nv, tuple(edges))


def random_family(rng, n):
    """Ground and bases of a matroid on 1..n from a vector or graph."""
    if rng.random() < 0.6:
        return vector_matroid(rng, n, rng.randint(1, 4), rng.choice((2, 3, 5)))
    g = random_multigraph(rng, max_edges=n)
    cm = G.cycle_matroid(g)
    shift = {e: e + 1 for e in cm.ground}
    return [shift[e] for e in cm.ground], [[shift[e] for e in b] for b in cm.bases]


def mutate(rng, ground, bases):
    """Drop, add or swap one basis; an added set has a random size."""
    fam = [sorted(b) for b in bases]
    kind = rng.choice(("drop", "add", "swap"))
    if kind in ("drop", "swap") and fam:
        fam.pop(rng.randrange(len(fam)))
    if kind in ("add", "swap"):
        size = len(fam[0]) if fam and rng.random() < 0.7 else rng.randint(0, len(ground))
        fam.append(sorted(rng.sample(list(ground), size)))
    return ground, fam


def outcome(build, ground, bases, **kw):
    try:
        m = build(ground, bases, **kw)
    except M.MatroidError as exc:
        return type(exc), str(exc)
    return m.ground, m.bases


def stored_masks_consistent(m):
    return m._masks == tuple(sorted(m._mask(b) for b in m.bases))


seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# validation


@PROPERTY
@given(seeds, st.integers(0, 8))
def test_valid_families_match_reference(seed, n):
    ground, bases = random_family(random.Random(seed), n)
    got = M.make_matroid(ground, bases)
    assert (got.ground, got.bases) == outcome(ref_make_matroid, ground, bases)
    assert stored_masks_consistent(got)


@PROPERTY
@given(seeds, st.integers(1, 8))
def test_mutated_families_match_reference(seed, n):
    rng = random.Random(seed)
    ground, bases = mutate(rng, *random_family(rng, n))
    assert outcome(M.make_matroid, ground, bases) == outcome(ref_make_matroid, ground, bases)


@pytest.mark.parametrize("name", ["fano", "fano_dual", "mk4", "mk5", "mk33", "uniform:2,4", "uniform:3,6"])
def test_mutated_named_families_match_reference(name):
    m = M.parse_named(name)
    rng = random.Random(name)
    for _ in range(12):
        ground, bases = mutate(rng, m.ground, m.bases)
        assert outcome(M.make_matroid, ground, bases) == outcome(ref_make_matroid, ground, bases)


@PROPERTY
@given(seeds, st.integers(0, 8))
def test_stray_elements_match_reference(seed, n):
    """Up to four labels outside the ground, in random bases: the error
    names the stray element met first in canonical basis order."""
    rng = random.Random(seed)
    ground, bases = random_family(rng, n)
    fam = [list(b) for b in bases]
    for _ in range(rng.randint(1, 4)):
        rng.choice(fam).append(rng.choice((0, -3, 50, 77, 1000)))
    rng.shuffle(fam)
    got = outcome(M.make_matroid, ground, fam)
    assert got[0] is M.ElementNotInGround
    assert got == outcome(ref_make_matroid, ground, fam)


@PROPERTY
@given(seeds, st.integers(0, 20))
def test_sparse_families_match_reference(seed, n):
    """A few bases on up to 20 elements, where ``make_matroid`` decides
    with the exchange check rather than the rank table once n passes
    about 10: a uniform matroid on at most five elements with the rest
    split into loops and coloops, mutated or not, or a random family of
    equal or of unequal sizes."""
    rng = random.Random(seed)
    ground = rng.sample(range(-5, 40), n)
    if rng.random() < 0.5:
        core = ground[: rng.randint(0, min(n, 5))]
        coloops = ground[len(core) : rng.randint(len(core), n)]
        bases = [[*b, *coloops] for b in itertools.combinations(core, rng.randint(0, len(core)))]
        if rng.random() < 0.7:
            _, bases = mutate(rng, ground, bases)
    else:
        r = rng.randint(0, n)
        sizes = [r] * 8 if rng.random() < 0.5 else [rng.randint(0, n) for _ in range(8)]
        bases = [rng.sample(ground, k) for k in sizes[: rng.randint(1, 8)]]
    got = outcome(M.make_matroid, ground, bases, bound=20)
    assert got == outcome(ref_make_matroid, ground, bases, bound=20)


@PROPERTY
@given(seeds, st.integers(0, 7))
def test_rank_table_agrees_with_pair_scan(seed, n):
    """Random equal-size families, most of them not matroids; the
    exchange check decides each of them as the table does."""
    rng = random.Random(seed)
    r = rng.randint(0, n)
    subsets = list(itertools.combinations(range(n), r))
    fam = rng.sample(subsets, rng.randint(1, len(subsets)))

    def accepts(check):
        try:
            check()
        except M.ExchangeFailure:
            return False
        return True

    accepted = accepts(lambda: ref_make_matroid(range(n), fam))
    assert M._rank_axioms_hold(M.Matroid(range(n), fam)) == accepted
    assert accepts(lambda: M._check_family(M.Matroid(range(n), fam))) == accepted


def test_by_size_is_the_inline_construction():
    """The cached per-size and per-element families: the construction
    ``_rank_axioms_hold`` ran inline, the same element-by-element doubling
    for the subsets lacking each element, and for n <= 10 the subsets
    counted by popcount or read by bit."""
    for n in range(M.TABLE_BOUND + 1):
        by_size, lacks = [1], []
        for i in range(n):
            by_size = [a | b << (1 << i) for a, b in zip(by_size + [0], [0] + by_size)]
            # a subset lacking j < i lacks it with or without i; lacking i, it
            # is any subset of the first i elements
            lacks = [f | f << (1 << i) for f in lacks] + [(1 << (1 << i)) - 1]
        assert M._by_size(n) == tuple(by_size)
        assert M._lacks(n) == tuple(lacks)
        if n <= 10:
            for k, family in enumerate(M._by_size(n)):
                assert family == sum(1 << x for x in range(1 << n) if x.bit_count() == k)
            for i, family in enumerate(M._lacks(n)):
                assert family == sum(1 << x for x in range(1 << n) if not x >> i & 1)
    # the n = 20 entries alone hold 2.75 MB and 2.5 MB
    M._by_size.cache_clear()
    M._lacks.cache_clear()


def test_rank_table_rejection_carries_the_pair_witness():
    # U(3,6) without {1,2,3} and {1,2,4}, which share two elements: not a
    # matroid, and dense enough that the rank table runs first
    bases = [b for b in itertools.combinations(range(1, 7), 3) if b not in ((1, 2, 3), (1, 2, 4))]
    assert len(bases) * 3 * (6 - 3) * 100 >= 6 << 6
    got = outcome(M.make_matroid, range(1, 7), bases)
    assert got[0] is M.ExchangeFailure
    assert got == outcome(ref_make_matroid, range(1, 7), bases)


# ---------------------------------------------------------------------------
# minors and minor search


def random_matroid(rng, n):
    return M.make_matroid(*random_family(rng, n))


@PROPERTY
@given(seeds, st.integers(1, 8))
def test_minors_match_reference(seed, n):
    rng = random.Random(seed)
    m = random_matroid(rng, n)
    picks = rng.sample(m.ground, rng.randint(0, len(m.ground)))
    cut = rng.randint(0, len(picks))
    dels, cons = picks[:cut], picks[cut:]
    got = outcome(lambda d, c: m.minor(d, c), dels, cons)
    assert got == outcome(lambda d, c: ref_minor(m, d, c), dels, cons)
    if not isinstance(got[0], type):
        assert stored_masks_consistent(m.minor(dels, cons))


@PROPERTY
@given(seeds, st.integers(1, 8))
def test_duals_keep_consistent_masks(seed, n):
    m = random_matroid(random.Random(seed), n)
    d = m.dual()
    assert stored_masks_consistent(d)
    assert d.bases == canonical_bases(set(m.ground) - b for b in m.bases)


def test_matroid_rejects_repeated_labels():
    with pytest.raises(M.MatroidError, match="distinct"):
        M.Matroid((1, 1), [[1]])


def test_matroid_rejects_non_integer_labels():
    with pytest.raises(M.MatroidError, match="integers"):
        M.Matroid(("x", 1), [[1]])


def test_matroid_keeps_its_ground_order():
    m = M.Matroid((2, 1), [[1]])
    assert m.ground == (2, 1) and m.bases == (frozenset({1}),)


@PROPERTY
@given(seeds, st.integers(0, 18))
def test_masks_become_canonical_bases_on_any_ground(seed, n):
    # 18 elements span three bytes of a mask; the ground is in any order
    rng = random.Random(seed)
    ground = tuple(rng.sample(range(-5, 40), n))
    masks = [rng.getrandbits(n) for _ in range(rng.randrange(1, 40))]
    m = M._from_masks(ground, masks)
    assert m.bases == canonical_bases({ground[i] for i in range(n) if x >> i & 1} for x in masks)
    assert m._masks == tuple(sorted(set(masks)))
    assert_masks_are_the_state(m)


def assert_masks_are_the_state(m):
    """``m.bases`` is the canonical family read off ``m._masks``, the
    output writes each basis sorted in that order, and the public
    constructor rebuilds an equal matroid with an equal hash."""
    g = m.ground
    assert list(m._masks) == sorted(set(m._masks))
    assert m.bases == canonical_bases({g[i] for i in range(len(g)) if x >> i & 1} for x in m._masks)
    sorted_bases = [sorted(b) for b in m.bases]
    assert m.to_json_dict() == {"ground": list(g), "bases": sorted_bases}
    assert m.to_text().splitlines()[1:] == ["basis: " + " ".join(map(str, b)) for b in sorted_bases]
    again = M.Matroid(g, m.bases)
    assert again == m and hash(again) == hash(m)


def producers(rng, n):
    """One matroid from each producer of matroids, built from a random
    family on 1..n."""
    ground, bases = random_family(rng, n)
    m = M.make_matroid(ground, bases)
    lines = [f"basis: {' '.join(map(str, rng.sample(b, len(b))))}" for b in bases]
    rng.shuffle(lines)
    text = "\n".join([f"ground: {' '.join(map(str, ground))}", *lines]) + "\n"
    contr = rng.sample(sorted(rng.choice(m.bases)), rng.randint(0, m.rank))
    rest = [e for e in m.ground if e not in contr]
    dele = rng.sample(rest, rng.randint(0, len(rest)))
    labels = rng.sample(range(-20, 40), len(m.ground))
    second = random_matroid(rng, rng.randint(0, 3))
    unsorted = tuple(rng.sample(range(-5, 40), n))
    return {
        "make_matroid": m,
        "parse_matroid": M.parse_matroid(text),
        "dual": m.dual(),
        "minor": m.minor(dele, contr),
        "relabel": M.relabel(m, dict(zip(m.ground, labels))),
        "direct_sum": M.direct_sum(m, M.relabel(second, {e: 100 - e for e in second.ground})),
        "cycle_matroid": G.cycle_matroid(random_multigraph(rng, max_edges=n)),
        "_from_masks": M._from_masks(unsorted, [rng.getrandbits(n) for _ in range(rng.randrange(1, 20))]),
    }


@PROPERTY
@given(seeds, st.integers(0, 8))
def test_every_producer_keeps_masks_as_the_state(seed, n):
    for m in producers(random.Random(seed), n).values():
        assert_masks_are_the_state(m)


@PROPERTY
@given(seeds, st.integers(0, 8))
def test_relabel_and_direct_sum_match_element_sets(seed, n):
    rng = random.Random(seed)
    m, other = random_host(rng, n), random_matroid(rng, rng.randint(0, 4))
    mapping = dict(zip(m.ground, rng.sample(range(-20, 40), len(m.ground))))
    got = M.relabel(m, mapping)
    assert got.ground == tuple(sorted(mapping.values()))
    assert got.bases == canonical_bases({mapping[e] for e in b} for b in m.bases)
    other = M.relabel(other, {e: 100 - e for e in other.ground})
    got = M.direct_sum(m, other)
    assert got.ground == tuple(sorted(m.ground + other.ground))
    assert got.bases == canonical_bases(a | b for a in m.bases for b in other.bases)


def test_matroid_fields_are_ground_and_masks():
    assert [f.name for f in dataclasses.fields(M.Matroid)] == ["ground", "_masks"]


def test_constructor_rejects_stray_elements_at_once():
    with pytest.raises(M.ElementNotInGround, match="element 3 not in ground set"):
        M.Matroid((1, 2), [{3}])


def test_long_cycle_is_planar():
    # a 30-edge block: validation stays off the 2^30 subset bitsets
    n = 30
    rep = G.is_planar(G.Multigraph(n, tuple((i, (i + 1) % n) for i in range(n))), bound=n)
    assert rep.planar and rep.embedding is not None


TARGETS = [
    M.named_matroid("uniform", (2, 4)),
    M.named_matroid("uniform", (1, 2)),
    M.named_matroid("uniform", (2, 3)),
    M.named_matroid("mk4"),
    M.named_matroid("fano"),
]


@PROPERTY
@given(seeds, st.integers(2, 8), st.integers(0, len(TARGETS)))
def test_has_minor_witness_matches_reference(seed, n, pick):
    rng = random.Random(seed)
    m = random_matroid(rng, n)
    target = TARGETS[pick] if pick < len(TARGETS) else random_matroid(rng, rng.randint(1, 5))
    assert M.has_minor(m, target) == ref_has_minor(m, target)


@pytest.mark.parametrize(
    "host,target",
    [("mk5", "mk4"), ("mk33", "mk4"), ("mk5", "uniform:2,4"), ("fano_dual", "fano"), ("mk33", "uniform:3,6")]
    # negative searches, as in the benchmark and the excluded-minor scans of classify
    + [("mk5", "fano"), ("mk33", "uniform:2,4"), ("mk33", "fano_dual"), ("fano", "uniform:2,4"),
       ("fano_dual", "uniform:2,4")],
)
def test_has_minor_on_named_matches_reference(host, target):
    m, t = M.parse_named(host), M.parse_named(target)
    assert M.has_minor(m, t) == ref_has_minor(m, t)


LOOP = M.Matroid((0,), (frozenset(),))
COLOOP = M.Matroid((0,), (frozenset({0}),))


def random_host(rng, n):
    """A random matroid on 1..n, or its direct sum with a loop or a
    coloop on element 0."""
    m = random_matroid(rng, n)
    extra = rng.choice((None, LOOP, COLOOP))
    return m if extra is None else M.direct_sum(m, extra)


@PROPERTY
@given(seeds, st.integers(1, 7), st.integers(0, len(TARGETS)))
def test_has_minor_with_loops_and_coloops_matches_reference(seed, n, pick):
    rng = random.Random(seed)
    m = random_host(rng, n)
    target = TARGETS[pick] if pick < len(TARGETS) else random_host(rng, rng.randint(0, 4))
    assert M.has_minor(m, target) == ref_has_minor(m, target)


@PROPERTY
@given(seeds, st.integers(0, 8))
def test_incidence_and_cooccurrence_match_the_bases(seed, n):
    m = random_host(random.Random(seed), n)
    cooc = M._cooc_matrix(m)
    for i, e in enumerate(m.ground):
        assert [*M._bits(m._incidence[i])] == [k for k, b in enumerate(m._masks) if b >> i & 1]
        for j, f in enumerate(m.ground):
            assert cooc[i][j] == sum(1 for b in m.bases if e in b and f in b)
    assert len(m._incidence) == len(m.ground)


# ---------------------------------------------------------------------------
# cycle matroids and planarity witnesses


@PROPERTY
@given(seeds)
def test_cycle_matroid_matches_reference(seed):
    """Multigraphs with loops, parallel edges, isolated vertices, several
    components and no edges at all."""
    g = random_multigraph(random.Random(seed), max_vertices=7, max_edges=M.GROUND_BOUND)
    got, want = G.cycle_matroid(g), ref_cycle_matroid(g)
    assert (got.ground, got.bases) == (want.ground, want.bases)
    assert stored_masks_consistent(got)


@pytest.mark.parametrize("seed", range(12))
def test_cycle_matroid_matches_reference_on_13_to_20_edges(seed):
    """Seeded multigraphs above the default ground bound, up to the limit
    of every matroid; rank at most 7 keeps the reference's subset scan
    small."""
    rng = random.Random(seed)
    nv = rng.randint(5, 8)
    ne = 13 + seed * 7 % 8  # every count from 13 to 20 occurs
    g = G.Multigraph(nv, tuple((rng.randrange(nv), rng.randrange(nv)) for _ in range(ne)))
    got, want = G.cycle_matroid(g, bound=20), ref_cycle_matroid(g, bound=20)
    assert (got.ground, got.bases) == (want.ground, want.bases)
    assert stored_masks_consistent(got)


@pytest.mark.parametrize(
    "g",
    [
        G.Multigraph(0, ()),
        G.Multigraph(4, ()),
        G.Multigraph(1, ((0, 0), (0, 0))),
        G.Multigraph(5, ((0, 1), (0, 1), (1, 1), (3, 4))),
        G.Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3))),
    ],
)
def test_cycle_matroid_edge_cases_match_reference(g):
    got, want = G.cycle_matroid(g), ref_cycle_matroid(g)
    assert (got.ground, got.bases) == (want.ground, want.bases)


def wheel(k):
    edges = [(0, i) for i in range(1, k + 1)] + [(i, i % k + 1) for i in range(1, k + 1)]
    return G.Multigraph(k + 1, tuple(edges))


# K3,3 on vertices 0-5 plus a K4 with a doubled edge on vertices 5-8
TWO_BLOCKS = G.Multigraph(
    9,
    tuple((a, b) for a in range(3) for b in range(3, 6))
    + ((5, 6), (6, 7), (7, 5), (7, 8), (8, 6), (6, 5), (8, 5)),
)


@pytest.mark.parametrize(
    "g",
    [
        G.named_graph("k5"),
        G.named_graph("k33"),
        # K3,3 with two edges subdivided
        G.Multigraph(8, ((0, 6), (6, 3), (0, 4), (0, 5), (1, 3), (1, 7), (7, 4), (1, 5), (2, 3), (2, 4), (2, 5))),
    ],
)
def test_single_block_witness_is_the_whole_graph_scan(g):
    rep = G.is_planar(g)
    cm = ref_cycle_matroid(g, bound=len(g.edges))
    for name, target in (("M(K5)", "mk5"), ("M(K3,3)", "mk33")):
        found, wit = ref_has_minor(cm, M.named_matroid(target))
        if found:
            break
    assert (rep.obstruction, rep.deletions, rep.contractions) == (name, *wit)


MULTI_BLOCK = [
    TWO_BLOCKS,
    G.Multigraph(7, G.named_graph("k5").edges + ((4, 5), (5, 6), (6, 6), (0, 0))),
    G.Multigraph(10, G.named_graph("k33").edges + ((6, 7), (7, 8), (8, 6), (8, 9))),
]


@pytest.mark.parametrize("g", MULTI_BLOCK)
def test_multi_block_witness_gives_the_obstruction(g):
    rep = G.is_planar(g)
    assert not rep.planar
    minor = G.cycle_matroid(g, bound=len(g.edges)).minor(rep.deletions, rep.contractions)
    target = {"M(K5)": "mk5", "M(K3,3)": "mk33"}[rep.obstruction]
    assert M.is_isomorphic(minor, M.named_matroid(target))[0]


def test_rotation_failing_the_genus_check_is_an_error(monkeypatch):
    """The integer face walk of the final rotation reports V - E + F = 0,
    a torus, on the one component."""
    monkeypatch.setattr(G, "_chi_by_component", lambda g, starts: (0,))
    assert G.find_planar_embedding(G.named_graph("k4")) is None
    with pytest.raises(G.GraphError, match="not genus 0"):
        G.is_planar(G.named_graph("k4"))


# ---------------------------------------------------------------------------
# time limits


def elapsed(f):
    start = time.perf_counter()
    f()
    return time.perf_counter() - start


def test_uniform_6_12_validates_within_a_second():
    assert elapsed(lambda: M.named_matroid.__wrapped__("uniform", (6, 12))) < 1.0


def test_cycle_matroid_of_wheel_within_a_second():
    assert elapsed(lambda: G.cycle_matroid(wheel(10), bound=20)) < 1.0


def test_sparse_twenty_element_family_validates_within_a_second():
    # 20 bases: the exchange check, not a table of 2^20 subsets
    ground = range(20)
    assert elapsed(lambda: M.make_matroid(ground, itertools.combinations(ground, 19), bound=20)) < 1.0


def test_dense_twenty_element_family_validates_within_a_second():
    # 1140 bases: 58,140 exchange steps, not 1.3 million pairs
    ground = range(20)
    assert elapsed(lambda: M.make_matroid(ground, itertools.combinations(ground, 3), bound=20)) < 1.0


@pytest.mark.parametrize(
    ("n", "r", "bound", "message"),
    [
        (12, 5, M.GROUND_BOUND, "no exchange for element 0 of [0, 7, 8, 9, 10] against [6, 7, 8, 9, 11]"),
        (14, 6, 20, "no exchange for element 0 of [0, 8, 9, 10, 11, 12] against [7, 8, 9, 10, 11, 13]"),
    ],
)
def test_uniform_without_two_bases_rejected_within_a_second(n, r, bound, message):
    # U(r, n) without its last two r-sets of consecutive elements: 790 and
    # 3001 bases, whose pairs took 1.8 s and 34 s to scan
    gone = (tuple(range(n - r - 1, n - 1)), tuple(range(n - r, n)))
    bases = [b for b in itertools.combinations(range(n), r) if b not in gone]
    got = []
    assert elapsed(lambda: got.append(outcome(M.make_matroid, range(n), bases, bound=bound))) < 1.0
    assert got == [(M.ExchangeFailure, message)]


def test_negative_minor_searches_at_the_ground_bound_within_a_tenth_of_a_second():
    u612 = M.named_matroid.__wrapped__("uniform", (6, 12))
    cube, octahedron = (G.cycle_matroid(G.named_graph(name)) for name in ("cube", "octahedron"))
    pairs = [(u612, M.named_matroid(t)) for t in ("mk4", "fano", "mk33")]
    pairs += [(h, M.parse_named(t)) for h in (cube, octahedron) for t in ("uniform:2,4", "fano")]
    found = []
    assert elapsed(lambda: found.extend(M.has_minor(h, t) for h, t in pairs)) < 0.1
    assert found == [(False, None)] * len(pairs)


def test_two_block_nonplanar_graph_within_a_second():
    assert elapsed(lambda: G.is_planar(TWO_BLOCKS)) < 1.0
    rep = G.is_planar(TWO_BLOCKS)
    minor = G.cycle_matroid(TWO_BLOCKS, bound=16).minor(rep.deletions, rep.contractions)
    assert rep.obstruction == "M(K3,3)"
    assert M.is_isomorphic(minor, M.named_matroid("mk33"))[0]
