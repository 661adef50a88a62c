"""The bitset matroid searches against the per-candidate loops they replace.

``ref_circuits`` is the basis scan (each circuit is the fundamental
circuit of one of its elements in a basis holding the rest),
``ref_cyclic_flats`` joins the closures of the circuits, each closure
one pass over the bases, ``ref_decide_transversal`` checks the candidate
presentation by one bipartite matching per r-subset, and
``ref_is_isomorphic`` backtracks pruned by colors and pair counts only.
The library must agree with them exactly: the same circuit tuples, the
same cyclic flats with their ranks, the same ``_Transversal`` triples
(presentation, cyclic flats, witness text) and the same (verdict,
bijection) pairs.
"""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualities import gf2
from dualities import graphs as G
from dualities import matroids as M

from test_matroid_core import COLOOP, LOOP, random_family, vector_matroid
from test_matroids import random_presented_matroid, random_rank3_paving

PROPERTY = settings(max_examples=150, derandomize=True, deadline=None, database=None)
seeds = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# reference oracles


def ref_circuits(m):
    """Every circuit as a position mask, by size and then mask, from a
    scan of the bases: B * n * r membership tests."""
    bases = m._mask_set
    singles = [1 << i for i in range(len(m.ground))]
    found = set()
    for b in m._masks:
        inside = [f for f in singles if b & f]
        for e in singles:
            if not b & e:
                found.add(e | sum(f for f in inside if b ^ f | e in bases))
    return tuple(sorted(found, key=lambda c: (c.bit_count(), c)))


def ref_cyclic_flats(m):
    """Every cyclic flat as a position mask mapped to its rank: the
    closure of the empty set, the closures of the circuits, and the
    closures of the unions of those, the joins of the lattice of cyclic
    flats.  The closure of X is X plus every element that lies in no
    basis meeting X in r(X) elements: one pass over the bases gives both
    the closure and the rank, and each is memoised."""
    full, masks = m.full_mask, m._masks
    memo = {}

    def closure(x):
        hit = memo.get(x)
        if hit is None:
            best, union = -1, 0
            for b in masks:
                k = (b & x).bit_count()
                if k > best:
                    best, union = k, b
                elif k == best:
                    union |= b
            hit = memo[x] = (x | full & ~union, best)
        return hit

    atoms = {}
    for c in M._circuits(m):
        # a flat holding C with rank r(C) = |C| - 1 is the closure of C
        if not any(rank == c.bit_count() - 1 and not c & ~f for f, rank in atoms.items()):
            f, rank = closure(c)
            atoms[f] = rank
    flats = dict([closure(0), *atoms.items()])
    todo = list(flats)
    while todo:  # every join of k atoms is the join of one atom with a join of k - 1
        f = todo.pop()
        for a in atoms:
            j, rank = closure(f | a)
            if j not in flats:
                flats[j] = rank
                todo.append(j)
    return flats


def ref_has_transversal(elems, sets):
    """Whether the positions ``elems`` are represented by distinct sets
    of ``sets``: a complete matching along augmenting paths."""
    held = {}  # set index -> the element it represents

    def place(e, tried):
        for i, s in enumerate(sets):
            if s >> e & 1 and i not in tried:
                tried.add(i)
                if i not in held or place(held[i], tried):
                    held[i] = e
                    return True
        return False

    return all(place(e, set()) for e in elems)


def ref_decide_transversal(m):
    """The cyclic-flat candidate checked by one matching per r-subset of
    the non-loops, in combination order, up to the first disagreement."""
    r, g = m.rank, m.ground

    def show(mask):
        return "{" + " ".join(str(g[i]) for i in M._bits(mask)) + "}"

    def refuted(matched, reason):
        extent = f"{len(flats)} cyclic flats, {matched} r-subsets matched"
        return M._Transversal(None, len(flats), f"no presentation (cyclic-flat search: {extent}): {reason}")

    flats = M._cyclic_flats(m)
    beta, sets = {}, []
    for f in sorted(flats, key=int.bit_count, reverse=True):
        above = sum(b for h, b in beta.items() if h & f == f)
        beta[f] = r - flats[f] - above
        if beta[f] < 0:
            return refuted(0, (
                f"cyclic flat {show(f)} has r(M) - r(F) = {r - flats[f]} < {above} = "
                "the sum of beta(G) over the cyclic flats G above it"
            ))
        sets += [m.full_mask & ~f] * beta[f]
    sets.sort(key=lambda s: (s.bit_count(), [*M._bits(s)]))
    listed = ", ".join(map(show, sets))
    nonloops = [i for i, e in enumerate(g) if e not in m.loops]
    matched = 0
    for matched, elems in enumerate(itertools.combinations(nonloops, r), 1):
        mask = sum(1 << i for i in elems)
        hit = ref_has_transversal(elems, sets)
        if hit != (mask in m._mask_set):
            claim = "is not a basis but has a" if hit else "is a basis but has no"
            return refuted(matched, (
                f"{show(mask)} {claim} system of distinct representatives "
                f"in the only candidate presentation {listed}"
            ))
    pres = tuple(m._members(s) for s in sets)
    return M._Transversal(pres, len(flats), (
        f"presentation {listed} (maximal; {len(flats)} cyclic flats, {matched} r-subsets matched)"
    ))


def ref_refine_colors(c1, c2, cooc1, cooc2):
    """Joint color refinement, iterated until the colors repeat."""
    def signatures(c, cooc):
        at = range(len(c))
        return [(c[i], tuple(sorted((c[j], cooc[i][j]) for j in at if j != i))) for i in at]

    while True:
        sig1, sig2 = signatures(c1, cooc1), signatures(c2, cooc2)
        palette = {s: k for k, s in enumerate(sorted(set(sig1) | set(sig2)))}
        new1, new2 = [palette[s] for s in sig1], [palette[s] for s in sig2]
        if new1 == c1 and new2 == c2:
            return c1, c2
        c1, c2 = new1, new2


def ref_is_isomorphic(m1, m2):
    """Backtracking over bijections pruned by colors and pair counts."""
    n = len(m1.ground)
    if (n, m1.rank, len(m1._masks)) != (len(m2.ground), m2.rank, len(m2._masks)):
        return False, None
    if n == 0:
        return True, {}
    cooc1, cooc2 = M._cooc_matrix(m1), M._cooc_matrix(m2)
    c1, c2 = ref_refine_colors(
        [cooc1[i][i] for i in range(n)], [cooc2[i][i] for i in range(n)], cooc1, cooc2
    )
    if sorted(c1) != sorted(c2):
        return False, None
    order = sorted(range(n), key=lambda i: (c1[i], i))
    assign, used = [], [False] * n

    def ok_partial(i, j):
        return c1[i] == c2[j] and all(cooc1[i][order[k]] == cooc2[j][jk] for k, jk in enumerate(assign))

    def extend(depth):
        if depth == n:
            perm = dict(zip(order, assign))
            return all(sum(1 << perm[i] for i in M._bits(b)) in m2._mask_set for b in m1._masks)
        i = order[depth]
        for j in range(n):
            if not used[j] and ok_partial(i, j):
                assign.append(j)
                used[j] = True
                if extend(depth + 1):
                    return True
                used[j] = False
                assign.pop()
        return False

    if extend(0):
        perm = dict(zip(order, assign))
        return True, {m1.ground[i]: m2.ground[perm[i]] for i in range(n)}
    return False, None


# ---------------------------------------------------------------------------
# generators


def plain(m):
    """A copy of ``m`` with nothing cached."""
    return M.Matroid(m.ground, m.bases)


def shifted(m, by):
    return M.relabel(m, {e: e + by for e in m.ground})


def relabelled(m, rng):
    images = list(m.ground)
    rng.shuffle(images)
    return M.relabel(m, dict(zip(m.ground, images)))


def parallel_copies(m, rng):
    """``m`` with one element doubled into a parallel pair."""
    e = rng.choice(m.ground)
    new = max(m.ground) + 1
    extra = [b - {e} | {new} for b in m.bases if e in b]
    return M.make_matroid(m.ground + (new,), [*m.bases, *extra])


def random_kernel_matroid(rng, n):
    """A matroid of at most 12 elements, grown from about ``n``: a
    vector, graphic, presented or paving matroid, perhaps dualized, with
    a parallel pair, loops or coloops, or summed with another."""
    kind = rng.choice(("vector", "family", "presented", "paving"))
    if kind == "vector":
        m = M.make_matroid(*vector_matroid(rng, max(n, 1), rng.randint(1, 4), rng.choice((2, 3))))
    elif kind == "family":
        m = M.make_matroid(*random_family(rng, n))
    elif kind == "presented":
        m = random_presented_matroid(rng, max(n, 1))
    else:
        m = random_rank3_paving(rng, max(n, 5))
    if rng.random() < 0.3:
        m = m.dual()
    if rng.random() < 0.2 and m.ground and len(m.ground) < 12:
        m = parallel_copies(m, rng)
    room = 12 - len(m.ground)
    for extra in (LOOP, COLOOP):
        if room and rng.random() < 0.25:
            m = M.direct_sum(m, shifted(extra, max(m.ground, default=0) + 1))
            room -= 1
    if room >= 2 and rng.random() < 0.2:
        other = M.make_matroid(*random_family(rng, rng.randint(1, min(room, 4))))
        m = M.direct_sum(m, shifted(other, max(m.ground, default=0)))
    return m


NAMED = ["fano", "fano_dual", "mk4", "mk5", "mk33", "uniform:0,3", "uniform:2,4", "uniform:3,6", "uniform:6,12"]


# ---------------------------------------------------------------------------
# circuits


@pytest.mark.parametrize("name", NAMED)
def test_circuits_of_named_matroids_match_reference(name):
    m = M.parse_named(name)
    assert M._circuits(m) == ref_circuits(m)
    assert M._circuits(m.dual()) == ref_circuits(m.dual())


@PROPERTY
@given(seeds, st.integers(0, 10))
def test_circuits_match_reference(seed, n):
    m = random_kernel_matroid(random.Random(seed), n)
    assert M._circuits(m) == ref_circuits(m)


def test_circuits_of_tiny_grounds_match_reference():
    for m in (M.Matroid((), (frozenset(),)), LOOP, COLOOP, M.direct_sum(LOOP, shifted(COLOOP, 1))):
        assert M._circuits(m) == ref_circuits(m)


@pytest.mark.parametrize(
    "bases",
    [
        list(itertools.combinations(range(20), 1)),  # U(1,20)
        list(itertools.combinations(range(20), 19)),  # U(19,20)
        [range(20)],  # the free matroid
        [[0, *b] for b in itertools.combinations(range(1, 20), 2)],  # a coloop and U(2,19)
    ],
    ids=["U(1,20)", "U(19,20)", "free", "coloop+U(2,19)"],
)
def test_circuits_at_twenty_elements_match_reference(bases):
    m = M.make_matroid(range(20), bases, bound=20)
    assert M._circuits(m) == ref_circuits(m)


def unread():
    """Bases that fail the test if anything reads them."""
    raise AssertionError("the bases were read before the ground was checked")
    yield


def test_circuits_and_transversality_refuse_a_ground_above_the_table(monkeypatch):
    """No matroid reaches circuits or transversality with a ground beyond
    their table: every producer refuses more than ``TABLE_BOUND``
    elements before it reads or builds a basis."""
    n = M.TABLE_BOUND + 1
    with pytest.raises(M.GroundTooLarge, match=f"{n} elements exceed the bound {n - 1}"):
        M.Matroid(range(n), unread())
    with pytest.raises(M.GroundTooLarge):
        M._from_masks(tuple(range(n)), unread())
    with pytest.raises(M.GroundTooLarge):
        M.make_matroid(range(n), unread(), bound=n)
    with pytest.raises(M.GroundTooLarge):
        M.parse_matroid("ground: " + " ".join(map(str, range(n))) + "\nbasis: 0\n", bound=n)
    edges = tuple((0, 1) for _ in range(n))
    with pytest.raises(M.GroundTooLarge):
        G.cycle_matroid(G.Multigraph(2, edges), bound=n)
    u = M.named_matroid("uniform", (6, 12))
    shifted = M.relabel(u, {e: e + 12 for e in u.ground})
    monkeypatch.setattr(M, "_moved", lambda *a: pytest.fail("direct_sum moved bases"))
    with pytest.raises(M.GroundTooLarge):
        M.direct_sum(u, shifted)
    assert len(G.cycle_matroid(G.Multigraph(2, edges[:-1]), bound=n).bases) == n - 1


def test_direct_sum_checks_disjointness_before_size():
    """A sum of U(6,12) with itself would have 24 elements, but its
    shared ground is reported first."""
    u = M.named_matroid("uniform", (6, 12))
    with pytest.raises(M.GroundNotDisjoint):
        M.direct_sum(u, u)


# ---------------------------------------------------------------------------
# cyclic flats on the rank table


@PROPERTY
@given(seeds, st.integers(0, 12))
def test_cyclic_flats_match_reference(seed, n):
    m = random_kernel_matroid(random.Random(seed), n)
    assert M._cyclic_flats(plain(m)) == ref_cyclic_flats(m)


def test_cyclic_flats_of_every_small_matroid_match_reference():
    """Every equal-size family on at most five elements that validates:
    the 1 + 2 + 5 + 16 + 68 + 406 labelled matroids, validated by the
    rank table wherever 0 < r < n."""
    count = 0
    for n in range(6):
        for r in range(n + 1):
            subsets = list(itertools.combinations(range(n), r))
            for pick in range(1, 1 << len(subsets)):
                fam = [b for k, b in enumerate(subsets) if pick >> k & 1]
                try:
                    m = M.make_matroid(range(n), fam)
                except M.MatroidError:
                    continue
                count += 1
                assert M._cyclic_flats(m) == ref_cyclic_flats(m)
    assert count == 498


def test_cyclic_flats_of_rank_zero_and_empty_ground():
    empty = M.Matroid((), (frozenset(),))
    assert M._cyclic_flats(empty) == ref_cyclic_flats(empty) == {0: 0}
    loops = M.make_matroid([1, 2, 3], [[]])
    assert M._cyclic_flats(loops) == ref_cyclic_flats(loops) == {0b111: 0}
    assert M._cyclic_flats(LOOP) == {1: 0}
    assert M._cyclic_flats(COLOOP) == {0: 0}


def binary_sixteen():
    """The column matroid over GF(2) of the unit vectors e1..e8 and eight
    more columns, two of them parallel to others: rank 8, 1,648 bases."""
    cols = [1 << i for i in range(8)] + [
        0b1, 0b10011001, 0b111101, 0b10011101, 0b1111001, 0b1010001, 0b111101, 0b11011101
    ]
    ground = range(1, 17)
    bases = [b for b in itertools.combinations(ground, 8) if gf2.rank_of_rows(cols[i - 1] for i in b) == 8]
    return M.make_matroid(ground, bases, bound=16)


def test_cyclic_flats_of_a_sixteen_element_binary_matroid():
    # flats of one size are visited in increasing mask order, so the
    # negative beta named is the first of its size in that order
    m = binary_sixteen()
    assert len(m.bases) == 1648
    flats = M._cyclic_flats(m)
    assert flats == ref_cyclic_flats(m)
    assert list(flats) == sorted(flats)
    got = M._decide_transversal(m)
    assert got == ref_decide_transversal(m)
    assert got.witness == (
        "no presentation (cyclic-flat search: 77 cyclic flats, 0 r-subsets matched): cyclic flat "
        "{1 4 5 7 8 9 10 14} has r(M) - r(F) = 3 < 4 = the sum of beta(G) over the cyclic flats G above it"
    )


def test_minor_search_and_isomorphism_build_no_rank_table(monkeypatch):
    """The candidates of ``has_minor`` and both sides of ``is_isomorphic``
    never build the 2^n-subset levels."""
    hosts = [M.parse_named(name) for name in ("mk5", "mk33", "fano", "uniform:6,12")] + [binary_sixteen()]
    targets = [M.parse_named(name) for name in ("uniform:2,4", "fano", "mk4")]
    monkeypatch.setattr(M.Matroid, "_levels", property(lambda m: pytest.fail("the rank table was built")))
    for host in hosts:
        for target in targets:
            M.has_minor(host, target)
        assert M.is_isomorphic(host, relabelled(host, random.Random(1)))[0]


# ---------------------------------------------------------------------------
# transversality


def test_combination_rank_is_the_enumeration_order():
    for size in range(7):
        for r in range(size + 1):
            for place, picks in enumerate(itertools.combinations(range(size), r), 1):
                assert M._combination_rank(list(picks), size) == place


@pytest.mark.parametrize("name", NAMED)
def test_transversality_of_named_matroids_matches_reference(name):
    m = M.parse_named(name)
    assert M._decide_transversal(plain(m)) == ref_decide_transversal(plain(m))
    assert M._decide_transversal(m.dual()) == ref_decide_transversal(m.dual())


@PROPERTY
@given(seeds, st.integers(0, 10))
def test_transversality_matches_reference(seed, n):
    m = random_kernel_matroid(random.Random(seed), n)
    assert M._decide_transversal(plain(m)) == ref_decide_transversal(plain(m))


@PROPERTY
@given(seeds, st.integers(1, 9))
def test_presented_and_paving_transversality_matches_reference(seed, n):
    rng = random.Random(seed)
    m = random_presented_matroid(rng, n) if rng.random() < 0.5 else random_rank3_paving(rng, max(n, 5))
    want = ref_decide_transversal(plain(m))
    assert M._decide_transversal(plain(m)) == want
    assert M._decide_transversal(plain(m).dual()) == ref_decide_transversal(plain(m).dual())


def test_transversality_names_the_first_unmatched_basis():
    # three 3-point lines through point 1: every cyclic flat has beta >= 0,
    # and the first basis has no transversal in the candidate
    lines = ({1, 2, 7}, {1, 3, 4}, {1, 5, 6})
    m = M.make_matroid(range(1, 8), [c for c in itertools.combinations(range(1, 8), 3) if set(c) not in lines])
    got = M._decide_transversal(m)
    assert got == ref_decide_transversal(plain(m))
    assert got.witness == (
        "no presentation (cyclic-flat search: 5 cyclic flats, 1 r-subsets matched): {1 2 3} is a basis "
        "but has no system of distinct representatives in the only candidate presentation "
        "{2 3 4 7}, {2 5 6 7}, {3 4 5 6}"
    )


# ---------------------------------------------------------------------------
# isomorphism


def cubic_configuration(edges):
    """The rank-3 paving matroid on 1..9 whose points are the edges of a
    cubic graph on six vertices and whose 3-point lines are the edges at
    each vertex: every point is on two lines."""
    lines = [{k + 1 for k, e in enumerate(edges) if v in e} for v in range(6)]
    ground = range(1, 10)
    return M.make_matroid(ground, [c for c in itertools.combinations(ground, 3) if not any(set(c) <= ln for ln in lines)])


K33_LINES = cubic_configuration([(a, b) for a in range(3) for b in range(3, 6)])
PRISM_LINES = cubic_configuration([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def test_same_colors_without_isomorphism_match_reference():
    # the two configurations agree on size, rank, basis count and every
    # point and pair count, so colors stay one class; only the search
    # tells them apart
    cooc1, cooc2 = M._cooc_matrix(K33_LINES), M._cooc_matrix(PRISM_LINES)
    colors = M._refine_colors([cooc1[i][i] for i in range(9)], [cooc2[i][i] for i in range(9)], cooc1, cooc2)
    assert colors == ([0] * 9, [0] * 9)
    for m1, m2 in itertools.product((K33_LINES, PRISM_LINES), repeat=2):
        got = M.is_isomorphic(m1, m2)
        assert got == ref_is_isomorphic(m1, m2)
        assert got[0] == (m1 is m2)


def test_refined_colors_match_reference():
    rng = random.Random(5)
    for _ in range(200):
        m1 = random_kernel_matroid(rng, rng.randint(0, 9))
        m2 = relabelled(m1, rng) if rng.random() < 0.5 else random_kernel_matroid(rng, len(m1.ground))
        if len(m2.ground) != len(m1.ground) or not m1.ground:
            continue
        cooc1, cooc2 = M._cooc_matrix(m1), M._cooc_matrix(m2)
        start = [cooc1[i][i] for i in range(len(m1.ground))], [cooc2[i][i] for i in range(len(m2.ground))]
        assert M._refine_colors(*start, cooc1, cooc2) == ref_refine_colors(*start, cooc1, cooc2)


@PROPERTY
@given(seeds, st.integers(0, 10))
def test_isomorphism_of_relabelled_copies_matches_reference(seed, n):
    rng = random.Random(seed)
    m = random_kernel_matroid(rng, n)
    copy = relabelled(m, rng)
    got = M.is_isomorphic(m, copy)
    assert got == ref_is_isomorphic(m, copy)
    assert got[0]


@PROPERTY
@given(seeds, st.integers(0, 9))
def test_isomorphism_of_random_pairs_matches_reference(seed, n):
    rng = random.Random(seed)
    m1, m2 = random_kernel_matroid(rng, n), random_kernel_matroid(rng, n)
    assert M.is_isomorphic(m1, m2) == ref_is_isomorphic(m1, m2)


@PROPERTY
@given(seeds, st.integers(5, 9))
def test_isomorphism_of_same_profile_paving_pairs_matches_reference(seed, n):
    # rank-3 paving matroids on one ground with as many bases agree on
    # size, rank and basis count, so only colors and the search tell them apart
    rng = random.Random(seed)
    m1 = random_rank3_paving(rng, n)
    for _ in range(20):
        m2 = random_rank3_paving(rng, n)
        if len(m2._masks) == len(m1._masks):
            break
    m2 = relabelled(m2, rng)
    assert M.is_isomorphic(m1, m2) == ref_is_isomorphic(m1, m2)


@pytest.mark.parametrize("left", NAMED)
@pytest.mark.parametrize("right", NAMED)
def test_isomorphism_of_named_pairs_matches_reference(left, right):
    m1, m2 = M.parse_named(left), M.parse_named(right)
    assert M.is_isomorphic(m1, m2) == ref_is_isomorphic(m1, m2)


# ---------------------------------------------------------------------------
# time limits


@pytest.mark.parametrize(
    ("n", "r"),
    [(16, 8), (20, 1), (20, 19), (20, 20)],
    ids=["U(8,16)", "U(1,20)", "U(19,20)", "free"],
)
def test_tables_at_sixteen_and_twenty_elements_within_a_second(n, r):
    # the basis scan and the per-subset matching took 0.19 s and 0.33 s
    # on U(8,16); the widest tables are the near-free ones at n = 20
    m = M.make_matroid(range(n), itertools.combinations(range(n), r), bound=20)
    start = time.perf_counter()
    M._circuits(m)
    M._decide_transversal(m)
    assert time.perf_counter() - start < 1.0
