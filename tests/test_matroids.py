import ast
import itertools
import math
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualities import gf2
from dualities import graphs as G
from dualities import matroids as M
from dualities.algebras import det_rational

from generators import random_planar_embedding

U23 = M.make_matroid([1, 2, 3], [[1, 2], [1, 3], [2, 3]])
U24 = M.named_matroid("uniform", (2, 4))
FANO = M.named_matroid("fano")
MK4 = M.named_matroid("mk4")


# ---------------------------------------------------------------------------
# independent oracles


def naive_isomorphic(m1, m2):
    """Try every ground bijection; no pruning, no shared code path."""
    if len(m1.ground) != len(m2.ground):
        return False
    b2 = set(m2.bases)
    for perm in itertools.permutations(m2.ground):
        mapping = dict(zip(m1.ground, perm))
        if {frozenset(mapping[e] for e in b) for b in m1.bases} == b2:
            return True
    return False


def forest_rank(edges, vertex_count, subset):
    """Union-find rank of an edge subset: edges minus cycles."""
    parent = list(range(vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rank = 0
    for ei in subset:
        u, v = edges[ei]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            rank += 1
    return rank


def spanning_tree_count(vertex_count, edges):
    """Matrix-tree theorem: determinant of a reduced Laplacian."""
    lap = [[0] * vertex_count for _ in range(vertex_count)]
    for u, v in edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    reduced = [row[1:] for row in lap[1:]]
    return int(det_rational(reduced))


def gf2_representable(m):
    """Build the fundamental-circuit representation over GF(2) against a
    fixed basis and verify every subset rank; a matroid is binary exactly
    when this representation works."""
    if m.rank == 0:
        return True
    b0 = m.bases[0]
    belems = sorted(b0)
    unit = {e: 1 << i for i, e in enumerate(belems)}
    basis_set = set(m.bases)
    cols = {}
    for e in m.ground:
        if e in unit:
            cols[e] = unit[e]
        else:
            col = 0
            for b in belems:
                if (b0 - {b}) | {e} in basis_set:
                    col |= unit[b]
            cols[e] = col
    for k in range(len(m.ground) + 1):
        for sub in itertools.combinations(m.ground, k):
            if m.rank_of(sub) != gf2.rank_of_rows([cols[e] for e in sub]):
                return False
    return True


def all_matroids(n):
    """Every labeled matroid on ground 1..n, by brute-force validation."""
    ground = tuple(range(1, n + 1))
    out = []
    for r in range(n + 1):
        subsets = list(itertools.combinations(ground, r))
        for bits in range(1, 1 << len(subsets)):
            fam = [subsets[i] for i in range(len(subsets)) if bits >> i & 1]
            try:
                out.append(M.make_matroid(ground, fam))
            except M.MatroidError:
                pass
    return out


def naive_transversal(m):
    """Unpruned search over all rank-tuples of subsets of the non-loops."""
    r = m.rank
    nonloops = sorted(set(m.ground) - m.loops)
    if r == 0:
        return True
    basis_set = set(m.bases)

    def has_sdr(tup, sets):
        for perm in itertools.permutations(range(r)):
            if all(tup[k] in sets[perm[k]] for k in range(r)):
                return True
        return False

    pool = []
    for bits in range(1, 1 << len(nonloops)):
        pool.append(frozenset(nonloops[i] for i in range(len(nonloops)) if bits >> i & 1))
    for sets in itertools.combinations_with_replacement(pool, r):
        ok = True
        for tup in itertools.combinations(nonloops, r):
            if has_sdr(tup, sets) != (frozenset(tup) in basis_set):
                ok = False
                break
        if ok:
            return True
    return False


def ref_transversal_presentation(m):
    """The pruned subset-tuple search that decided transversality before
    the cyclic-flat method, kept as a reference.

    It runs over all sorted tuples of rank-many subsets of the non-loop
    elements, pruned by the Hall-type condition that elements avoiding
    every set of a subfamily have rank at most the number of remaining
    sets, and tests each candidate on every r-subset with an r!
    permutation SDR test.  Exponential: 20-36 s on 7-element matroids of
    rank 4 that are not transversal (``fano_dual``).  Returns
    (presentation or None, number of fully checked candidates).
    """
    r = m.rank
    nonloops = [e for e in m.ground if e not in m.loops]
    t = len(nonloops)
    if r == 0:
        return (), 0

    pos = {e: i for i, e in enumerate(nonloops)}
    to_ground = [m._index[e] for e in nonloops]

    def ground_mask(cmask):
        g = 0
        for i in range(t):
            if cmask >> i & 1:
                g |= 1 << to_ground[i]
        return g

    rank_cache = {}

    def crank(cmask):
        v = rank_cache.get(cmask)
        if v is None:
            gm = ground_mask(cmask)
            v = max((b & gm).bit_count() for b in m._masks)
            rank_cache[cmask] = v
        return v

    full = (1 << t) - 1
    basis_cmasks = set()
    for b in m.bases:
        basis_cmasks.add(sum(1 << pos[e] for e in b))
    rsubsets = [
        (sum(1 << i for i in combo), combo)
        for combo in itertools.combinations(range(t), r)
    ]

    def has_sdr(bits, sets):
        for perm in itertools.permutations(range(r)):
            if all(sets[perm[k]] >> bits[k] & 1 for k in range(r)):
                return True
        return False

    examined = 0
    chosen = []

    def realizes():
        for cmask, bits in rsubsets:
            if has_sdr(bits, chosen) != (cmask in basis_cmasks):
                return False
        return True

    def rec(depth, lo, families):
        nonlocal examined
        for a in range(lo, 1 << t):
            new_fams = []
            ok = True
            for count, union in families:
                u = union | a
                if crank(full & ~u) > r - count - 1:
                    ok = False
                    break
                new_fams.append((count + 1, u))
            if not ok:
                continue
            chosen.append(a)
            if depth == r - 1:
                examined += 1
                if realizes():
                    return list(chosen)
            else:
                res = rec(depth + 1, a, families + new_fams)
                if res is not None:
                    return res
            chosen.pop()
        return None

    res = rec(0, 1, [(0, 0)])
    if res is None:
        return None, examined
    pres = tuple(
        frozenset(nonloops[i] for i in range(t) if a >> i & 1) for a in res
    )
    return pres, examined


def random_graphic_matroid(rng, max_edges=9):
    from dualities import graphs

    nv = rng.randint(2, 6)
    edges = [(rng.randrange(v), v) for v in range(1, nv)]
    while len(edges) < rng.randint(nv - 1, max_edges):
        u, v = rng.randrange(nv), rng.randrange(nv)
        edges.append((min(u, v), max(u, v)))
    return graphs.cycle_matroid(graphs.Multigraph(nv, tuple(edges)))


# ---------------------------------------------------------------------------
# construction and validation


def test_make_uniform_accepted():
    assert U23.rank == 2
    assert len(U23.bases) == 3


def test_make_fano_accepted():
    assert len(FANO.bases) == 28
    assert FANO.rank == 3
    for line in M.FANO_LINES:
        assert frozenset(line) not in set(FANO.bases)


def test_containment_violation():
    with pytest.raises(M.ContainmentViolation) as exc:
        M.make_matroid([1, 2], [[1], [1, 2]])
    assert exc.value.small == frozenset({1})
    assert exc.value.large == frozenset({1, 2})


def test_empty_bases():
    with pytest.raises(M.EmptyBases):
        M.make_matroid([1, 2], [])


def test_exchange_failure():
    with pytest.raises(M.ExchangeFailure) as exc:
        M.make_matroid([1, 2, 3], [[1], [2, 3]])
    assert exc.value.element in exc.value.first


def test_element_not_in_ground():
    with pytest.raises(M.ElementNotInGround):
        M.make_matroid([1, 2], [[1, 5]])


def test_ground_too_large():
    with pytest.raises(M.GroundTooLarge):
        M.make_matroid(range(13), [list(range(13))])


def test_empty_matroid_is_valid():
    m = M.make_matroid([], [[]])
    assert m.rank == 0
    assert m.dual() == m


# ---------------------------------------------------------------------------
# duality


def test_dual_u23():
    assert U23.dual() == M.make_matroid([1, 2, 3], [[1], [2], [3]])


def test_dual_involution_fano():
    assert FANO.dual().dual() == FANO


def test_dual_fano_complements():
    fd = FANO.dual()
    assert len(fd.bases) == 28
    assert all(len(b) == 4 for b in fd.bases)
    assert fd.rank == 4


def test_dual_result_revalidates():
    for m in (U23, U24, FANO, MK4):
        d = m.dual()
        assert M.make_matroid(d.ground, d.bases) == d


def test_dual_basis_size_complement():
    for m in (U23, U24, FANO, MK4):
        d = m.dual()
        assert all(len(b) == len(m.ground) - m.rank for b in d.bases)


# ---------------------------------------------------------------------------
# rank


def test_rank_of_fano_full():
    assert FANO.rank_of(FANO.ground) == 3


def test_rank_of_single():
    assert U24.rank_of([1]) == 1


def test_rank_of_triangle_in_mk4():
    # K4 edge order: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3); the triangle on
    # vertices 0,1,2 uses edges 0, 1, 3
    from dualities.graphs import named_graph

    k4 = named_graph("k4")
    triangle = [0, 1, 3]
    assert {k4.edges[i] for i in triangle} == {(0, 1), (0, 2), (1, 2)}
    assert MK4.rank_of(triangle) == 2
    assert forest_rank(k4.edges, 4, triangle) == 2


def test_rank_of_errors():
    with pytest.raises(M.ElementNotInGround):
        U24.rank_of([9])


def test_rank_submodularity_exhaustive():
    mats = [U24, MK4, M.named_matroid("uniform", (3, 6))]
    rng = random.Random(11)
    mats += [random_graphic_matroid(rng, max_edges=6) for _ in range(3)]
    for m in mats:
        ground = m.ground
        subsets = [
            frozenset(c)
            for k in range(len(ground) + 1)
            for c in itertools.combinations(ground, k)
        ]
        for a in subsets:
            for b in subsets:
                assert m.rank_of(a | b) + m.rank_of(a & b) <= m.rank_of(a) + m.rank_of(b)


# ---------------------------------------------------------------------------
# minors


def test_fano_delete_is_mk4():
    m = FANO.delete(7)
    ok, bij = M.is_isomorphic(m, MK4)
    assert ok
    assert naive_isomorphic(m, MK4)
    image = {frozenset(bij[e] for e in b) for b in m.bases}
    assert image == set(MK4.bases)


def test_fano_contract_structure():
    c = FANO.contract(1)
    # definition-level oracle: bases are B - 1 for each basis containing 1
    expected = {b - {1} for b in FANO.bases if 1 in b}
    assert set(c.bases) == expected
    assert c.rank == 2 and len(c.bases) == 12
    parallel_pairs = [
        p for p in itertools.combinations(c.ground, 2) if c.rank_of(p) == 1
    ]
    assert len(parallel_pairs) == 3


def test_minor_commutation():
    a = U24.delete(1).contract(2)
    b = U24.contract(2).delete(1)
    assert a == b


def test_minor_interleave_matches_joint():
    # stepwise delete/contract in any order equals the joint call, with
    # elements contracted while loops counted as deletions
    rng = random.Random(5)
    for _ in range(20):
        m = random_graphic_matroid(rng, max_edges=7)
        elems = list(m.ground)
        rng.shuffle(elems)
        dels, contrs = [], []
        result = m
        for e in elems[:3]:
            if rng.random() < 0.5:
                result = result.minor(deletions=[e])
                dels.append(e)
            else:
                (dels if e in result.loops else contrs).append(e)
                result = result.minor(contractions=[e])
        assert result == m.minor(deletions=dels, contractions=contrs)


def test_minor_overlap_error():
    with pytest.raises(M.OverlappingSets):
        U24.minor(deletions=[1], contractions=[1])


def test_dependent_contraction_error():
    with pytest.raises(M.DependentContraction):
        U24.minor(contractions=[1, 2, 3])


def test_loop_contraction_equals_deletion():
    m = M.make_matroid([1, 2], [[1]])  # 2 is a loop
    assert m.minor(contractions=[2]) == m.minor(deletions=[2])


def test_coloop_deletion_recomputes():
    m = M.make_matroid([1, 2], [[1, 2]])  # both coloops
    d = m.delete(1)
    assert d == M.make_matroid([2], [[2]])


def test_minor_results_revalidate():
    for e in FANO.ground:
        for mm in (FANO.delete(e), FANO.contract(e)):
            assert M.make_matroid(mm.ground, mm.bases) == mm


# ---------------------------------------------------------------------------
# isomorphism


def test_u24_isomorphic_to_dual():
    ok, bij = M.is_isomorphic(U24, U24.dual())
    assert ok and bij is not None
    assert naive_isomorphic(U24, U24.dual())


def test_fano_not_isomorphic_to_dual():
    ok, bij = M.is_isomorphic(FANO, FANO.dual())
    assert not ok and bij is None


def test_fano_cyclic_relabel():
    mapping = {i: i % 7 + 1 for i in range(1, 8)}
    ok, _ = M.is_isomorphic(M.relabel(FANO, mapping), FANO)
    assert ok


def test_isomorphism_respects_nonisomorphic_same_profile():
    # same size, rank, and basis count, different structure
    m1 = M.make_matroid([1, 2, 3, 4], [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4]])
    u = M.make_matroid([1, 2, 3, 4], list(itertools.combinations([1, 2, 3, 4], 2))[:5])
    assert M.is_isomorphic(m1, u)[0] == naive_isomorphic(m1, u)


def test_isomorphism_random_agrees_with_naive():
    rng = random.Random(23)
    for _ in range(15):
        m1 = random_graphic_matroid(rng, max_edges=5)
        m2 = random_graphic_matroid(rng, max_edges=5)
        assert M.is_isomorphic(m1, m2)[0] == naive_isomorphic(m1, m2)
        # and a relabeled copy is always found
        shuffled = list(m1.ground)
        rng.shuffle(shuffled)
        m3 = M.relabel(m1, dict(zip(m1.ground, shuffled)))
        assert M.is_isomorphic(m1, m3)[0]


# ---------------------------------------------------------------------------
# minor containment


def test_has_minor_reflexive():
    found, wit = M.has_minor(U24, U24)
    assert found and wit == ((), ())


def test_fano_has_no_u24_minor():
    found, _ = M.has_minor(FANO, U24)
    assert not found


def test_mk5_has_mk4_minor_with_verified_witness():
    mk5 = M.named_matroid("mk5")
    found, (dels, contrs) = M.has_minor(mk5, MK4)
    assert found
    mm = mk5.minor(deletions=dels, contractions=contrs)
    assert M.is_isomorphic(mm, MK4)[0]


def test_has_minor_too_big_target():
    assert M.has_minor(U24, M.named_matroid("uniform", (2, 5))) == (False, None)


# ---------------------------------------------------------------------------
# named matroids


def test_uniform_counts():
    assert len(U24.bases) == 6


def test_mk5_by_matrix_tree():
    mk5 = M.named_matroid("mk5")
    assert mk5.rank == 4 and len(mk5.ground) == 10
    k5_edges = list(itertools.combinations(range(5), 2))
    assert len(mk5.bases) == spanning_tree_count(5, k5_edges) == 125


def test_mk33_by_matrix_tree():
    mk33 = M.named_matroid("mk33")
    edges = [(u, v) for u in range(3) for v in range(3, 6)]
    assert len(mk33.bases) == spanning_tree_count(6, edges) == 81


def test_named_errors():
    with pytest.raises(M.UnknownName):
        M.named_matroid("nonesuch")
    with pytest.raises(M.BadParams):
        M.named_matroid("uniform", (5, 3))
    with pytest.raises(M.BadParams):
        M.named_matroid("fano", (1,))


def test_parse_named():
    assert M.parse_named("uniform:2,4") == U24
    assert M.parse_named("fano") == FANO


# ---------------------------------------------------------------------------
# direct sums


def test_direct_sum_free():
    u11 = M.named_matroid("uniform", (1, 1))
    other = M.relabel(u11, {1: 2})
    s = M.direct_sum(u11, other)
    assert s == M.make_matroid([1, 2], [[1, 2]])


def test_direct_sum_dual_distributes():
    m1 = U23
    m2 = M.relabel(M.named_matroid("uniform", (1, 2)), {1: 4, 2: 5})
    lhs = M.direct_sum(m1, m2).dual()
    rhs = M.direct_sum(m1.dual(), m2.dual())
    assert lhs == rhs


def test_direct_sum_dual_distributes_random():
    rng = random.Random(61)
    for _ in range(10):
        m1 = random_graphic_matroid(rng, max_edges=5)
        m2 = random_graphic_matroid(rng, max_edges=5)
        offset = max(m1.ground) + 1
        m2 = M.relabel(m2, {e: e + offset for e in m2.ground})
        assert M.direct_sum(m1, m2).dual() == M.direct_sum(m1.dual(), m2.dual())


def test_direct_sum_disjoint_required():
    with pytest.raises(M.GroundNotDisjoint):
        M.direct_sum(U23, U23)


def test_two_disjoint_triangles():
    from dualities import graphs

    g = graphs.Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    cm = graphs.cycle_matroid(g)
    c3 = graphs.cycle_matroid(graphs.named_graph("triangle"))
    left = c3
    right = M.relabel(c3, {0: 3, 1: 4, 2: 5})
    assert cm == M.direct_sum(left, right)


# ---------------------------------------------------------------------------
# classification


def test_classify_u24():
    rep = M.classify(U24)
    assert not rep.binary
    assert "U(2,4)" in rep.witnesses["binary"]
    assert not rep.graphic and not rep.regular
    assert rep.transversal is True


def test_classify_mk4():
    rep = M.classify(MK4)
    assert rep.binary and rep.regular and rep.graphic and rep.cographic
    assert "edges" in rep.witnesses["graphic"]


def test_classify_ground_too_large():
    with pytest.raises(M.GroundTooLarge):
        M.classify(M.named_matroid("uniform", (2, 11)))


def test_classify_decides_transversal_above_seven():
    m = M.named_matroid("mk5")
    rep = M.classify(m)
    assert rep.transversal is False
    assert check_transversal_witness(m, rep.witnesses["transversal"]) is False
    assert rep.graphic and not rep.cographic


def counted(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper recording each call's first
    argument, and return the list it records into."""
    calls = []
    orig = getattr(owner, name)

    def wrapper(first, *args, **kwargs):
        calls.append(first)
        return orig(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("name", ["fano", "mk4", "mk5", "uniform:5,10"])
def test_classify_computes_circuits_once_per_side(name, monkeypatch):
    named = M.parse_named(name)
    m = M.Matroid(named.ground, named.bases)  # nothing cached yet
    calls = counted(monkeypatch, M, "_circuits")
    M.classify(m)
    assert sorted(c is m for c in calls) == [False, True]
    assert all(c is m or c == m.dual() for c in calls)


def test_classify_builds_its_excluded_minors_once(monkeypatch):
    fano = M.named_matroid("fano")
    M.classify(fano)  # warm-up
    calls = counted(monkeypatch, M.Matroid, "dual")
    M.classify(fano)
    assert len(calls) == 1 and calls[0] is fano


GRAPH_WITNESS = re.compile(r"cycle matroid of graph with edges (\[.*\])")


def realizes(text, m):
    """The witness graph, edge i read as ground element i, has exactly the
    bases of ``m`` as its spanning forests (labelled, not up to
    isomorphism)."""
    hit = GRAPH_WITNESS.fullmatch(text)
    if hit is None:
        return False
    edges = ast.literal_eval(hit.group(1))
    if len(edges) != len(m.ground):
        return False
    nv = 1 + max((max(e) for e in edges), default=0)
    if forest_rank(edges, nv, range(len(edges))) != m.rank:
        return False
    forests = {
        frozenset(m.ground[i] for i in combo)
        for combo in itertools.combinations(range(len(edges)), m.rank)
        if forest_rank(edges, nv, combo) == m.rank
    }
    return forests == set(m.bases)


def relabelled(m, rng):
    labels = rng.sample(range(100), len(m.ground))
    return M.relabel(m, dict(zip(m.ground, labels)))


def test_graphic_witness_realizes_random_multigraphs():
    rng = random.Random(31)
    seen = {"loop": 0, "parallel": 0, "bridge": 0, "cographic": 0}
    for _ in range(80):
        nv = rng.randint(1, 6)
        edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 10))]
        m = relabelled(G.cycle_matroid(G.Multigraph(nv, tuple(edges))), rng)
        rep = M.classify(m)
        assert rep.graphic and realizes(rep.witnesses["graphic"], m)
        if rep.cographic:
            assert realizes(rep.witnesses["cographic"], m.dual())
        seen["loop"] += any(u == v for u, v in edges)
        seen["parallel"] += len(set(map(frozenset, edges))) < len(edges)
        seen["bridge"] += bool(m.coloops)
        seen["cographic"] += rep.cographic
    assert min(seen.values()) > 0, seen


def test_graphic_witness_realizes_planar_duals():
    rng = random.Random(32)
    for _ in range(25):
        emb = random_planar_embedding(rng, max_vertices=6, max_edges=10)
        m = relabelled(G.cycle_matroid(G.dual_embedding(emb).graph), rng)
        rep = M.classify(m)
        assert rep.graphic and rep.cographic
        assert realizes(rep.witnesses["graphic"], m)
        assert realizes(rep.witnesses["cographic"], m.dual())


@pytest.mark.parametrize(
    "graph",
    [
        G.named_graph("k5"),
        G.named_graph("k33"),
        # two triangles joined by a bridge: 7 elements of rank 5
        G.Multigraph(6, ((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3))),
    ],
    ids=["mk5", "mk33", "cactus"],
)
def test_graphic_witness_beyond_multiset_search(graph):
    m = relabelled(G.cycle_matroid(graph), random.Random(33))
    rep = M.classify(m)
    assert realizes(rep.witnesses["graphic"], m)


@pytest.mark.parametrize("name", ["fano", "fano_dual", "uniform:2,4", "mk5", "mk33"])
def test_no_realization_for_non_graphic(name):
    m = M.parse_named(name)
    if name.startswith("mk"):
        m = m.dual()
    assert M._realization_witness(m) is None


def test_matroid_counts_match_known_sequence():
    # numbers of matroids on n elements up to isomorphism: 1, 2, 4, 8, 17, 38
    expected = [1, 2, 4, 8, 17, 38]
    for n in range(6):
        mats = all_matroids(n)
        classes = []
        for m in mats:
            if not any(M.is_isomorphic(m, c)[0] for c in classes):
                classes.append(m)
        assert len(classes) == expected[n]


def test_binary_matches_gf2_oracle_exhaustive_small():
    for n in range(0, 5):
        for m in all_matroids(n):
            assert (not M.has_minor(m, U24)[0]) == gf2_representable(m), m


def test_binary_matches_gf2_oracle_n5():
    mats = all_matroids(5)
    assert len(mats) > 100
    for m in mats:
        assert (not M.has_minor(m, U24)[0]) == gf2_representable(m), m


# ---------------------------------------------------------------------------
# duality axioms


def test_duality_axioms_fano():
    rep = M.check_duality_axioms(FANO)
    assert rep.all_ok
    assert set(rep.delete_contract_ok) == set(FANO.ground)


def test_duality_axioms_u24():
    assert M.check_duality_axioms(U24).all_ok


def test_duality_axioms_single_element():
    assert M.check_duality_axioms(M.named_matroid("uniform", (1, 1))).all_ok


def test_duality_axioms_with_loops_and_coloops():
    m = M.make_matroid([1, 2, 3], [[1]])  # 2, 3 loops; 1 coloop
    assert M.check_duality_axioms(m).all_ok


def test_duality_counterexample_lists_both_families_sorted():
    """With contraction replaced by deletion, the first element fails the
    first rule, and the report writes out both basis families."""
    e = U24.ground[0]
    left, right = U24.delete(e).dual(), U24.dual().delete(e)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(M.Matroid, "contract", M.Matroid.delete)
        rep = M.check_duality_axioms(U24)
    assert not rep.all_ok
    assert rep.counterexample == {
        "element": e,
        "rule": "dual(M\\e) = dual(M)/e",
        "left_bases": [sorted(b) for b in left.bases],
        "right_bases": [sorted(b) for b in right.bases],
    }
    assert rep.counterexample["left_bases"] != rep.counterexample["right_bases"]


def test_duality_axioms_random_graphic():
    rng = random.Random(77)
    for _ in range(10):
        assert M.check_duality_axioms(random_graphic_matroid(rng)).all_ok


# ---------------------------------------------------------------------------
# transversal presentations


def verify_presentation(m, pres):
    r = m.rank
    basis_set = set(m.bases)
    nonloops = sorted(set(m.ground) - m.loops)
    for tup in itertools.combinations(nonloops, r):
        found = any(
            all(tup[k] in pres[p[k]] for k in range(r))
            for p in itertools.permutations(range(r))
        )
        assert found == (frozenset(tup) in basis_set)


def test_transversal_uniform():
    pres, _ = M.transversal_presentation(U24)
    assert pres is not None
    verify_presentation(U24, pres)


def test_fano_contraction_not_transversal():
    # rank 2 with three nontrivial parallel classes cannot be transversal
    pres, _ = M.transversal_presentation(FANO.contract(1))
    assert pres is None


def test_transversal_agrees_with_naive():
    rng = random.Random(9)
    mats = [U23, U24, M.make_matroid([1, 2, 3], [[1], [2]]), MK4.contract(0)]
    for _ in range(6):
        mats.append(random_graphic_matroid(rng, max_edges=5))
    for m in mats:
        if len(m.ground) - len(m.loops) > 5 or m.rank > 3:
            continue
        pres, _ = M.transversal_presentation(m)
        assert (pres is not None) == naive_transversal(m), m
        if pres is not None:
            verify_presentation(m, pres)


CONCURRENT_LINES = M.make_matroid(
    range(1, 8),
    [c for c in itertools.combinations(range(1, 8), 3) if set(c) not in ({1, 2, 3}, {1, 4, 5}, {1, 6, 7})],
)
U34_PAIR = M.direct_sum(
    M.named_matroid("uniform", (3, 4)), M.relabel(M.named_matroid("uniform", (3, 4)), {1: 5, 2: 6, 3: 7, 4: 8})
)


def brute_cyclic_flats(m):
    """Every closed union of circuits, by ``rank_of`` on every subset."""
    out = []
    for k in range(len(m.ground) + 1):
        for sub in itertools.combinations(m.ground, k):
            rk = m.rank_of(sub)
            closed = all(m.rank_of(sub + (e,)) > rk for e in m.ground if e not in sub)
            if closed and all(m.rank_of(set(sub) - {e}) == rk for e in sub):
                out.append(frozenset(sub))
    return out


def maximal_candidate(m, flats):
    """E - F beta(F) times, beta by Moebius inversion from the top, when
    every beta(F) is nonnegative."""
    beta = {}
    for f in sorted(flats, key=len, reverse=True):
        beta[f] = m.rank - m.rank_of(f) - sum(b for g, b in beta.items() if f < g)
    return sorted((frozenset(m.ground) - f for f, b in beta.items() for _ in range(b)), key=sorted)


def has_sdr(subset, sets):
    subset = sorted(subset)
    return any(
        all(subset[k] in sets[p[k]] for k in range(len(subset)))
        for p in itertools.permutations(range(len(sets)), len(subset))
    )


def parse_sets(text):
    return [frozenset(map(int, s.split())) for s in re.findall(r"\{([^}]*)\}", text)]


def check_transversal_witness(m, text):
    """Re-check a transversal witness against ``rank_of`` and ``bases``
    alone; returns the verdict it carries.

    The counts must be the number of cyclic flats and at most the number
    of r-subsets of non-loops.  A presentation must give the bases and be
    the maximal one.  A cyclic flat F must violate the count of sets
    avoiding it: the cyclic flats above F are those above one of its
    covers, so by inclusion-exclusion over the covers Z the sum of beta
    above F is r(M) minus the alternating sum of r of the unions of the Z.
    A disagreeing r-subset must have an SDR in the candidate exactly when
    it is not a basis.
    """
    flats = brute_cyclic_flats(m)
    counts = re.search(r"(\d+) cyclic flats, (\d+) r-subsets matched", text)
    nonloops = len(m.ground) - len(m.loops)
    assert int(counts[1]) == len(flats)
    assert int(counts[2]) <= math.comb(nonloops, m.rank)
    if text.startswith("presentation "):
        pres = parse_sets(text)
        verify_presentation(m, pres)
        assert sorted(pres, key=sorted) == maximal_candidate(m, flats)
        assert int(counts[2]) == math.comb(nonloops, m.rank)
        return True
    assert text.startswith("no presentation (cyclic-flat search")
    hit = re.search(r"cyclic flat \{([^}]*)\} has r\(M\) - r\(F\) = (\d+) < (\d+) = the sum", text)
    if hit:
        f, lhs, rhs = frozenset(map(int, hit[1].split())), int(hit[2]), int(hit[3])
        assert f in flats and lhs == m.rank - m.rank_of(f) < rhs
        covers = [z for z in flats if f < z and not any(f < y < z for y in flats)]
        alternating = sum(
            (-1) ** (k + 1) * m.rank_of(frozenset().union(*zs))
            for k in range(1, len(covers) + 1)
            for zs in itertools.combinations(covers, k)
        )
        assert rhs == m.rank - alternating
        return False
    hit = re.search(r"\{([^}]*)\} is (not )?a basis but has (a|no) system of distinct representatives in the only candidate presentation (.*)", text)
    subset, candidate = frozenset(map(int, hit[1].split())), parse_sets(hit[4])
    assert len(subset) == m.rank
    assert sorted(candidate, key=sorted) == maximal_candidate(m, flats)
    assert (subset in set(m.bases)) == (hit[2] is None)
    assert has_sdr(subset, candidate) == (hit[3] == "a") != (subset in set(m.bases))
    return False


def random_presented_matroid(rng, n):
    """The transversal matroid of a few random subsets of 1..n."""
    ground = range(1, n + 1)
    sets = [frozenset(rng.sample(ground, rng.randint(1, n))) for _ in range(rng.randint(1, min(n, 4)))]
    for r in range(len(sets), -1, -1):
        bases = [c for c in itertools.combinations(ground, r) if has_sdr(c, sets)]
        if bases:
            return M.make_matroid(ground, bases)


def random_binary_matroid(rng, n):
    """The column matroid on 1..n of a 3-row matrix over GF(2) with
    distinct random columns."""
    cols = rng.sample(range(8), n)
    full = gf2.rank_of_rows(cols)
    ground = range(1, n + 1)
    bases = [c for c in itertools.combinations(ground, full) if gf2.rank_of_rows([cols[e - 1] for e in c]) == full]
    return M.make_matroid(ground, bases)


def random_rank3_paving(rng, n):
    """A rank-3 matroid on 1..n (n >= 5) whose lines of three or more
    points pairwise share at most one point: random lines, half the time
    added to 3-point lines through point 1 that pair up the others."""
    lines = []
    if rng.random() < 0.5:
        rest = rng.sample(range(2, n + 1), n - 1)
        lines = [{1, a, b} for a, b in zip(rest[::2], rest[1::2])]
    for _ in range(rng.randint(0, 6)):
        line = set(rng.sample(range(1, n + 1), rng.choice((3, 3, 4))))
        if all(len(line & other) <= 1 for other in lines):
            lines.append(line)
    bases = [c for c in itertools.combinations(range(1, n + 1), 3) if not any(set(c) <= ln for ln in lines)]
    return M.make_matroid(range(1, n + 1), bases)


def check_against_reference(m):
    pres, flats = M.transversal_presentation(m)
    text = M.classify(m).witnesses["transversal"]
    assert check_transversal_witness(m, text) == (pres is not None)
    assert f" {flats} cyclic flats" in text
    if pres is not None:
        assert sorted(pres, key=sorted) == sorted(parse_sets(text), key=sorted)
    assert (ref_transversal_presentation(m)[0] is not None) == (pres is not None)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("graphic", "binary", "presented", "paving")), st.booleans())
def test_transversal_matches_reference(seed, kind, dualize):
    rng = random.Random(seed)
    if kind == "graphic":
        m = random_graphic_matroid(rng, max_edges=7)
    elif kind == "binary":
        m = random_binary_matroid(rng, rng.randint(3, 7))
    elif kind == "presented":
        m = random_presented_matroid(rng, rng.randint(1, 7))
    else:
        m = random_rank3_paving(rng, rng.randint(5, 7))
    if dualize:
        m = m.dual()
    if len(m.ground) == 7 and m.rank > 3:
        m = m.dual()  # the reference takes 20-36 s here
    check_against_reference(m)


NAMED_SMALL = {
    "uniform:2,4": U24,
    "uniform:3,6": M.named_matroid("uniform", (3, 6)),
    "fano": FANO,
    "fano/1": FANO.contract(1),
    "fano\\1": FANO.delete(1),
    "mk4": MK4,
    "concurrent lines": CONCURRENT_LINES,
}


@pytest.mark.parametrize("name", sorted(NAMED_SMALL))
def test_named_transversal_matches_reference(name):
    check_against_reference(NAMED_SMALL[name])


@pytest.mark.parametrize(
    "m, verdict",
    [
        (M.named_matroid("fano_dual"), False),
        (M.named_matroid("mk5"), False),
        (M.named_matroid("mk33"), False),
        (M.named_matroid("uniform", (5, 10)), True),
        (U34_PAIR, True),
    ],
    ids=["fano_dual", "mk5", "mk33", "uniform:5,10", "U(3,4)+U(3,4)"],
)
def test_classify_decides_transversal_within_a_second(m, verdict):
    m = M.Matroid(m.ground, m.bases)  # nothing cached
    start = time.perf_counter()
    rep = M.classify(m)
    assert time.perf_counter() - start < 1.0
    assert rep.transversal is verdict
    assert check_transversal_witness(m, rep.witnesses["transversal"]) is verdict


def test_concurrent_lines_fail_on_a_basis():
    # every beta is nonnegative, but the point on all three lines is in
    # no set of the candidate
    text = M.classify(CONCURRENT_LINES).witnesses["transversal"]
    assert "{1 2 4} is a basis but has no system of distinct representatives" in text


# ---------------------------------------------------------------------------
# formats


def test_text_roundtrip():
    for m in (U23, FANO, MK4):
        assert M.parse_matroid(m.to_text()) == m


def test_json_roundtrip():
    import json

    for m in (U23, FANO):
        assert M.parse_matroid(json.dumps(m.to_json_dict())) == m


def test_parse_comments_and_errors():
    text = "# a comment\nground: 1 2 3\nbasis: 1 2\nbasis: 1 3\nbasis: 2 3\n"
    assert M.parse_matroid(text) == U23
    with pytest.raises(M.MatroidError):
        M.parse_matroid("basis: 1 2\n")
    with pytest.raises(M.MatroidError):
        M.parse_matroid("junk\n")


def test_relabel_errors():
    with pytest.raises(M.MatroidError):
        M.relabel(U23, {1: 5})
    with pytest.raises(M.MatroidError):
        M.relabel(U23, {1: 5, 2: 5, 3: 6})
