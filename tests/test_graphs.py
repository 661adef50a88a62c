import dataclasses
import itertools
import random
import time

import pytest

from dualities import graphs as G
from dualities import matroids as M
from dualities.algebras import det_rational

from generators import disjoint_union_embeddings, random_cellular_embedding, random_planar_embedding


def laplacian_tree_count(g):
    n = g.vertex_count
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        if u == v:
            continue
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return int(det_rational([row[1:] for row in lap[1:]]))


# ---------------------------------------------------------------------------
# multigraphs and invariants


def test_make_graph_k4():
    g = G.make_graph(4, itertools.combinations(range(4), 2))
    assert len(g.edges) == 6


def test_loop_allowed():
    g = G.make_graph(1, [(0, 0)])
    assert g.degree(0) == 2


def test_endpoint_out_of_range():
    with pytest.raises(G.EndpointOutOfRange):
        G.make_graph(2, [(0, 2)])


@pytest.mark.parametrize("edge", [(0.9, 1.5), (0.5, 1), (True, 1), (0, "1"), (0, None)])
def test_endpoints_must_be_ints(edge):
    """Neither truncated (``make_graph``) nor left for a later TypeError."""
    with pytest.raises(G.EndpointOutOfRange, match="must be integers"):
        G.make_graph(2, [edge])
    with pytest.raises(G.EndpointOutOfRange, match="must be integers"):
        G.Multigraph(2, (edge,))


@pytest.mark.parametrize("count", [2.0, True, "2", -1])
def test_vertex_count_must_be_a_nonnegative_int(count):
    with pytest.raises(G.EndpointOutOfRange, match="nonnegative integer"):
        G.Multigraph(count, ())


def test_invariants_path():
    g = G.named_graph("path:4")
    inv = G.graph_invariants(g)
    assert (inv.components, inv.rank, inv.nullity) == (1, 3, 0)


def test_invariants_k4():
    inv = G.graph_invariants(G.named_graph("k4"))
    assert (inv.components, inv.rank, inv.nullity) == (1, 3, 3)


def test_invariants_two_triangles():
    g = G.Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    inv = G.graph_invariants(g)
    assert (inv.components, inv.rank, inv.nullity) == (2, 4, 2)


# ---------------------------------------------------------------------------
# face tracing


def test_tetrahedron_faces():
    t = G.trace_faces(G.named_embedding("tetrahedron"))
    assert t.face_count == 4 and t.chi == 2 and t.genus == 0


def test_two_loop_torus():
    t = G.trace_faces(G.named_embedding("torus"))
    assert t.face_count == 1 and t.chi == 0 and t.genus == 1


def test_genus2_one_vertex():
    t = G.trace_faces(G.named_embedding("genus:2"))
    assert t.face_count == 1 and t.chi == -2 and t.genus == 2


def test_cube_embedding_counts():
    emb = G.named_embedding("cube")
    t = G.trace_faces(emb)
    assert emb.graph.vertex_count == 8
    assert len(emb.graph.edges) == 12
    assert t.face_count == 6 and t.chi == 2


def test_single_vertex_no_edges():
    emb = G.Embedding(G.Multigraph(1, ()), ((),))
    t = G.trace_faces(emb)
    assert t.chi == 2 and t.face_count == 1


def test_rotation_validation():
    g = G.Multigraph(2, ((0, 1),))
    with pytest.raises(G.NonCellular):
        G.Embedding(g, (((0, 0), (0, 0)), ((0, 1),)))
    with pytest.raises(G.NonCellular):
        G.Embedding(g, (((0, 1),), ((0, 0),)))
    with pytest.raises(G.NonCellular):
        G.Embedding(g, (((0, 0),),))


@pytest.mark.parametrize(
    "rotation",
    [
        (((0, 0), (0.0, 1)),),  # a float edge index
        (((0, 0), (0, 1.0)),),  # a float end
        (((False, 0), (0, 1)),),  # a bool edge index, equal to 0
        (((0, 0), (0, True)),),  # a bool end, equal to 1
        (((0, 0), (0,)),),  # too short to unpack
        (((0, 0), (0, 1, 0)),),  # too long
        (((0, 0), 5),),  # not a sequence
        (((0, 0), [0, 1]),),  # a list, which a set cannot hold
    ],
)
def test_a_dart_must_be_a_pair_of_ints(rotation):
    """A dart's edge index and end are ints, as a multigraph's endpoints
    are: a float is not read as an index, and a bool is not kept.  A dart
    that is not a pair is refused before it is unpacked."""
    with pytest.raises(G.NonCellular, match="bad dart"):
        G.Embedding(G.Multigraph(1, ((0, 0),)), rotation)


# ---------------------------------------------------------------------------
# duals


def assert_isomorphic_graphs(g1, g2):
    """networkx's multigraph isomorphism as the independent oracle."""
    nx = pytest.importorskip("networkx")

    def multigraph(g):
        h = nx.MultiGraph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges)
        return h

    assert nx.is_isomorphic(multigraph(g1), multigraph(g2))


def test_dual_tetrahedron_self_dual():
    emb = G.named_embedding("tetrahedron")
    d = G.dual_embedding(emb)
    assert G._same_map(d, emb)
    assert_isomorphic_graphs(d.graph, emb.graph)


def test_dual_cube_is_octahedron():
    d = G.dual_embedding(G.named_embedding("cube"))
    assert G._same_map(d, G.named_embedding("octahedron"))
    assert_isomorphic_graphs(d.graph, G.named_graph("octahedron"))


@pytest.mark.parametrize(
    "name,counts,dual",
    [
        ("tetrahedron", (4, 6, 4), "tetrahedron"),
        ("cube", (8, 12, 6), "octahedron"),
        ("octahedron", (6, 12, 8), "cube"),
        ("dodecahedron", (20, 30, 12), "icosahedron"),
        ("icosahedron", (12, 30, 20), "dodecahedron"),
    ],
)
def test_platonic_embedding_counts_and_dual(name, counts, dual):
    emb = G.named_embedding(name)
    t = G.trace_faces(emb)
    assert (emb.graph.vertex_count, len(emb.graph.edges), t.face_count, t.genus) == (*counts, 0)
    assert G._same_map(G.dual_embedding(emb), G.named_embedding(dual))
    assert_isomorphic_graphs(G.dual_embedding(emb).graph, G.named_graph(dual))


def test_dual_dual_is_original():
    for name in ("tetrahedron", "cube", "k4"):
        emb = G.named_embedding(name)
        dd = G.dual_embedding(G.dual_embedding(emb))
        assert G._same_map(dd, emb)
        assert G.trace_faces(dd).face_count == G.trace_faces(emb).face_count
    for name in ("tetrahedron", "cube", "k4"):
        emb = G.named_embedding(name)
        assert_isomorphic_graphs(G.dual_embedding(G.dual_embedding(emb)).graph, emb.graph)


def test_dual_of_the_edgeless_map_is_itself():
    # one vertex, no edges: one face, so the dual has one vertex (V* = F)
    emb = G.named_embedding("genus:0")
    assert G.trace_faces(emb).face_count == 1
    d = G.dual_embedding(emb)
    assert d == emb == G.Embedding(G.Multigraph(1, ()), ((),))
    assert G.trace_faces(d).face_count == emb.graph.vertex_count
    assert G.dual_embedding(d) == emb


def relabelled(emb, seed):
    """``emb`` with its edges shuffled and some of them reversed."""
    rng = random.Random(seed)
    ne = len(emb.graph.edges)
    perm = rng.sample(range(ne), ne)
    flip = [rng.randrange(2) for _ in range(ne)]
    edges = [None] * ne
    for e, (u, v) in enumerate(emb.graph.edges):
        edges[perm[e]] = (v, u) if flip[e] else (u, v)
    rotation = tuple(tuple((perm[e], s ^ flip[e]) for e, s in cyc) for cyc in emb.rotation)
    return G.Embedding(G.Multigraph(emb.graph.vertex_count, tuple(edges)), rotation)


def test_same_map_accepts_mirror_and_relabelling():
    ico = G.named_embedding("icosahedron")
    mirror = G.Embedding(ico.graph, tuple(cyc[::-1] for cyc in ico.rotation))
    assert G._same_map(ico, mirror) and G._same_map(mirror, ico)
    for seed in range(3):
        assert G._same_map(ico, relabelled(ico, seed))
        assert G._same_map(relabelled(mirror, seed), ico)


def test_same_map_rejects_other_maps():
    names = ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron")
    for a, b in itertools.product(names, repeat=2):
        assert G._same_map(G.named_embedding(a), G.named_embedding(b)) == (a == b)
    # same graph, different map: the two vertices of a 4-edge dipole in
    # rotation order 0 1 2 3 against 0 2 1 3 at one end
    g = G.Multigraph(2, ((0, 1),) * 4)
    plane = G.Embedding(g, (((0, 0), (1, 0), (2, 0), (3, 0)), ((3, 1), (2, 1), (1, 1), (0, 1))))
    torus = G.Embedding(g, (((0, 0), (2, 0), (1, 0), (3, 0)), ((3, 1), (2, 1), (1, 1), (0, 1))))
    assert G.trace_faces(plane).genus == 0 and G.trace_faces(torus).genus == 1
    assert not G._same_map(plane, torus)


def test_platonic_check_catches_a_wrong_dual(monkeypatch):
    monkeypatch.setattr(G, "dual_embedding", lambda emb: emb)
    with pytest.raises(G.GraphError, match="the dual of the cube embedding is not the octahedron"):
        G.platonic_solids()


def test_dual_keeps_edge_indices():
    # edge e of the dual joins exactly the two faces of the primal that
    # edge e separates, so the index sets coincide and the crossing map
    # is the identity
    emb = G.named_embedding("cube")
    d = G.dual_embedding(emb)
    assert len(d.graph.edges) == len(emb.graph.edges)
    faces = G.trace_faces(emb).faces
    face_of = {dart: fi for fi, face in enumerate(faces) for dart in face}
    for e, (fu, fv) in enumerate(d.graph.edges):
        assert {fu, fv} == {face_of[(e, 0)], face_of[(e, 1)]}


def test_dual_disconnected_rejected():
    emb = disjoint_union_embeddings(
        [G.named_embedding("tetrahedron"), G.named_embedding("tetrahedron")]
    )
    with pytest.raises(G.NonCellular):
        G.dual_embedding(emb)


# ---------------------------------------------------------------------------
# rank/nullity duality


def test_duality_report_tetrahedron():
    rep = G.rank_nullity_duality_report(G.named_embedding("tetrahedron"))
    assert (rep.rank, rep.nullity, rep.rank_dual, rep.nullity_dual) == (3, 3, 3, 3)
    assert rep.euler_chi == 2 and rep.duality_ok


@pytest.mark.parametrize(
    "shift",
    [{"rank_dual": 1}, {"nullity_dual": 1, "euler_chi": -1}, {"euler_chi": 1}],
    ids=["rank-star-is-nullity", "nullity-star-is-rank", "euler"],
)
def test_duality_report_any_failed_identity_fails_duality_ok(shift):
    """Each shift breaks exactly one of the three identities."""
    rep = G.rank_nullity_duality_report(G.named_embedding("cube"))
    bad = dataclasses.replace(rep, **{k: getattr(rep, k) + d for k, d in shift.items()})
    assert rep.duality_ok and not bad.duality_ok


def test_duality_report_cube():
    rep = G.rank_nullity_duality_report(G.named_embedding("cube"))
    assert (rep.rank, rep.nullity, rep.rank_dual, rep.nullity_dual) == (7, 5, 5, 7)


def test_duality_report_triangle():
    rep = G.rank_nullity_duality_report(G.named_embedding("triangle"))
    assert (rep.rank, rep.nullity, rep.rank_dual, rep.nullity_dual) == (2, 1, 1, 2)


def test_duality_report_rejects_a_disconnected_embedding():
    emb = disjoint_union_embeddings([G.named_embedding("triangle")] * 2)
    with pytest.raises(G.NonCellular):
        G.rank_nullity_duality_report(emb)


def test_duality_report_rejects_torus():
    with pytest.raises(G.NonPlanarEmbedding):
        G.rank_nullity_duality_report(G.named_embedding("torus"))


# ---------------------------------------------------------------------------
# planarity


def test_k5_nonplanar():
    rep = G.is_planar(G.named_graph("k5"))
    assert not rep.planar and rep.obstruction == "M(K5)"
    assert rep.deletions == () and rep.contractions == ()


def test_k33_nonplanar():
    rep = G.is_planar(G.named_graph("k33"))
    assert not rep.planar and rep.obstruction == "M(K3,3)"


def test_k5_minus_edge_planar_with_certificate():
    k5 = G.named_graph("k5")
    for drop in range(len(k5.edges)):
        edges = tuple(e for i, e in enumerate(k5.edges) if i != drop)
        rep = G.is_planar(G.Multigraph(5, edges))
        assert rep.planar and rep.embedding is not None
        t = G.trace_faces(rep.embedding)
        assert all(g == 0 for g in t.genus_by_component)


def test_k33_minus_edge_planar():
    k33 = G.named_graph("k33")
    edges = tuple(k33.edges[1:])
    rep = G.is_planar(G.Multigraph(6, edges))
    assert rep.planar and rep.embedding is not None


def test_planarity_bound():
    assert G.PLANAR_EDGE_BOUND == 256
    assert G.is_planar(G.Multigraph(1, ((0, 0),) * 256)).planar
    with pytest.raises(G.TooLarge):
        G.is_planar(G.Multigraph(1, ((0, 0),) * 257))
    with pytest.raises(G.TooLarge):
        G.is_planar(G.named_graph("k4"), bound=5)


def random_multigraph(rng):
    nv = rng.randint(1, 7)
    edges = [(rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 12))]
    return G.Multigraph(nv, tuple(edges))


def random_simple_graph(rng):
    nv = rng.randint(5, 8)
    pairs = list(itertools.combinations(range(nv), 2))
    return G.Multigraph(nv, tuple(rng.sample(pairs, rng.randint(9, min(12, len(pairs))))))


def test_is_planar_matches_networkx():
    """Every planar verdict carries a genus-0 embedding of the same graph,
    every non-planar one a minor that is M(K5) or M(K3,3); the verdict
    agrees with networkx on seeded multigraphs and simple graphs."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(41)
    graphs = [random_multigraph(rng) for _ in range(150)]
    graphs += [random_simple_graph(rng) for _ in range(100)]
    seen = {"loop": 0, "parallel": 0, "bridge": 0, "disconnected": 0, "nonplanar": 0}
    targets = {"M(K5)": M.named_matroid("mk5"), "M(K3,3)": M.named_matroid("mk33")}
    for g in graphs:
        oracle = nx.MultiGraph()
        oracle.add_nodes_from(range(g.vertex_count))
        oracle.add_edges_from(g.edges)
        rep = G.is_planar(g)
        assert rep.planar == nx.check_planarity(oracle)[0], g
        if rep.planar:
            assert rep.embedding is not None and rep.embedding.graph == g
            assert all(gc == 0 for gc in G.trace_faces(rep.embedding).genus_by_component)
        else:
            minor = G.cycle_matroid(g).minor(rep.deletions, rep.contractions)
            assert M.is_isomorphic(minor, targets[rep.obstruction])[0]
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len(set(map(frozenset, g.edges))) < len(g.edges)
        seen["bridge"] += any(len(b.edges) == 1 and len(b.vertices) == 2 for b in G.blocks(g))
        seen["disconnected"] += len(g.components) > 1
        seen["nonplanar"] += not rep.planar
    assert min(seen.values()) > 0 and seen["nonplanar"] >= 20, seen


def grid(rows, cols):
    at = lambda i, j: i * cols + j
    edges = [(at(i, j), at(i, j + 1)) for i in range(rows) for j in range(cols - 1)]
    edges += [(at(i, j), at(i + 1, j)) for i in range(rows - 1) for j in range(cols)]
    return G.Multigraph(rows * cols, tuple(edges))


@pytest.mark.parametrize("rows,cols", [(3, 3), (2, 6)])
def test_grid_planar_with_certificate(rows, cols):
    start = time.perf_counter()
    rep = G.is_planar(grid(rows, cols))
    assert time.perf_counter() - start < 1.0
    assert rep.planar and rep.embedding is not None
    t = G.trace_faces(rep.embedding)
    assert t.genus == 0 and t.face_count == len(rep.embedding.graph.edges) - rows * cols + 2


def test_octahedron_rotation_pinned():
    # the first genus-0 rotation in incidence order, as the exhaustive
    # rotation search found it
    assert G.named_embedding("octahedron").rotation == (
        ((0, 0), (2, 0), (1, 0), (3, 0)),
        ((4, 0), (7, 0), (5, 0), (6, 0)),
        ((0, 1), (9, 0), (4, 1), (8, 0)),
        ((1, 1), (10, 0), (5, 1), (11, 0)),
        ((2, 1), (8, 1), (6, 1), (10, 1)),
        ((3, 1), (11, 1), (7, 1), (9, 1)),
    )


def no_minor_search(*args):
    raise AssertionError("has_minor called")


def test_planar_verdict_needs_no_minor_search(monkeypatch):
    monkeypatch.setattr(M, "has_minor", no_minor_search)
    for g in (grid(3, 3), G.named_graph("octahedron"), G.Multigraph(3, ((0, 0), (0, 1), (0, 1)))):
        assert G.is_planar(g).planar


def test_graphic_and_cographic_classify_needs_no_minor_search(monkeypatch):
    monkeypatch.setattr(M, "has_minor", no_minor_search)
    rep = M.classify(G.cycle_matroid(G.named_graph("k4")))
    assert rep.binary and rep.regular and rep.graphic and rep.cographic
    assert rep.witnesses["binary"].startswith("graphic, so binary: cycle matroid of graph")


def test_planar_graph_is_cographic():
    k4cm = G.cycle_matroid(G.named_graph("k4"))
    rep = M.classify(k4cm)
    assert rep.graphic and rep.cographic


def test_k5_k33_graphic_not_cographic():
    # their duals contain an excluded minor of graphicness (themselves)
    for gname, mname in (("k5", "mk5"), ("k33", "mk33")):
        cm = G.cycle_matroid(G.named_graph(gname))
        found, wit = M.has_minor(cm.dual(), M.named_matroid(mname).dual())
        assert found and wit == ((), ())
        assert M.is_isomorphic(cm, M.named_matroid(mname))[0]


# ---------------------------------------------------------------------------
# platonic solids


def test_platonic_rows_exact():
    rows = [(r.p, r.q, r.vertices, r.edges, r.faces) for r in G.platonic_solids()]
    assert rows == [
        (3, 3, 4, 6, 4),
        (4, 3, 8, 12, 6),
        (3, 4, 6, 12, 8),
        (5, 3, 20, 30, 12),
        (3, 5, 12, 30, 20),
    ]


def test_platonic_relations():
    for r in G.platonic_solids():
        assert r.p * r.faces == 2 * r.edges
        assert r.q * r.vertices == 2 * r.edges
        assert (r.p - 2) * (r.q - 2) < 4
        assert r.vertices - r.edges + r.faces == 2


def test_platonic_duality_swap():
    rows = {(r.p, r.q): r for r in G.platonic_solids()}
    for (p, q), r in rows.items():
        other = rows[(q, p)]
        assert other.vertices == r.faces and other.faces == r.vertices
        assert other.edges == r.edges
    assert rows[(3, 3)].vertices == rows[(3, 3)].faces


def test_platonic_rows_are_checked_against_the_embeddings(monkeypatch):
    swapped = {"cube": "octahedron", "octahedron": "cube"}
    named = G.named_embedding
    monkeypatch.setattr(G, "named_embedding", lambda name: named(swapped.get(name, name)))
    with pytest.raises(G.GraphError, match=r"the cube embedding has \(V, E, F, genus\) = \(6, 12, 8, 0\)"):
        G.platonic_solids()


def test_platonic_duality_is_checked_on_the_dual_maps(monkeypatch):
    monkeypatch.setattr(G, "dual_embedding", lambda emb: emb)  # every solid its own dual
    with pytest.raises(G.GraphError, match="the dual of the cube embedding is not the octahedron"):
        G.platonic_solids()


# ---------------------------------------------------------------------------
# blocks


def test_blocks_two_triangles_shared_vertex():
    g = G.Multigraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
    bl = G.blocks(g)
    assert len(bl) == 2
    assert all(len(b.edge_indices) == 3 for b in bl)


def test_blocks_k4_single():
    assert len(G.blocks(G.named_graph("k4"))) == 1


def test_blocks_path_bridges():
    bl = G.blocks(G.named_graph("path:4"))
    assert [b.edge_indices for b in bl] == [(0,), (1,), (2,)]


def test_blocks_loops_and_parallels():
    g = G.Multigraph(3, ((0, 0), (0, 1), (0, 1), (1, 2)))
    bl = G.blocks(g)
    sets = [b.edge_indices for b in bl]
    assert (0,) in sets  # the loop
    assert (1, 2) in sets  # the parallel pair is 2-connected
    assert (3,) in sets  # the bridge


def test_whitney_block_decomposition():
    rng = random.Random(4)
    for _ in range(10):
        nv = rng.randint(2, 6)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        for _ in range(rng.randint(0, 5)):
            u, v = rng.randrange(nv), rng.randrange(nv)
            edges.append((min(u, v), max(u, v)))
        g = G.Multigraph(nv, tuple(edges))
        cm = G.cycle_matroid(g)
        parts = []
        for b in G.blocks(g):
            bm = G.cycle_matroid(G.Multigraph(len(b.vertices), b.edges))
            parts.append(M.relabel(bm, dict(enumerate(b.edge_indices))))
        total = parts[0]
        for p in parts[1:]:
            total = M.direct_sum(total, p)
        assert total == cm


# ---------------------------------------------------------------------------
# cycle matroids


def test_cycle_matroid_triangle():
    cm = G.cycle_matroid(G.named_graph("triangle"))
    ok, _ = M.is_isomorphic(cm, M.named_matroid("uniform", (2, 3)))
    assert ok


def test_cycle_matroid_k4_count():
    g = G.named_graph("k4")
    cm = G.cycle_matroid(g)
    assert len(cm.bases) == 16 == laplacian_tree_count(g)


def test_cycle_matroid_tree():
    cm = G.cycle_matroid(G.named_graph("path:5"))
    assert len(cm.bases) == 1
    assert cm.bases[0] == frozenset(range(4))


def test_cycle_matroid_loops_parallels():
    g = G.Multigraph(2, ((0, 1), (0, 1), (0, 0)))
    cm = G.cycle_matroid(g)
    assert cm.loops == frozenset({2})
    assert cm.rank_of([0, 1]) == 1


def test_cycle_matroid_bound():
    g = G.Multigraph(2, tuple((0, 1) for _ in range(13)))
    with pytest.raises(M.GroundTooLarge, match="13 elements exceed the bound 12"):
        G.cycle_matroid(g)
    assert G.cycle_matroid(g, bound=13).rank == 1


# ---------------------------------------------------------------------------
# random generators and the euler/duality properties


def test_random_planar_embeddings_euler():
    rng = random.Random(101)
    for _ in range(25):
        emb = random_planar_embedding(rng, max_vertices=9, max_edges=18)
        t = G.trace_faces(emb)
        v = emb.graph.vertex_count
        e = len(emb.graph.edges)
        assert v - e + t.face_count == 2
        assert t.genus == 0


def test_random_planar_duality_exchange():
    rng = random.Random(55)
    for _ in range(15):
        emb = random_planar_embedding(rng, max_vertices=8, max_edges=14)
        rep = G.rank_nullity_duality_report(emb)
        assert rep.duality_ok


def test_disconnected_plane_chi():
    rng = random.Random(31)
    for _ in range(8):
        k = rng.randint(2, 4)
        embs = [
            random_planar_embedding(rng, max_vertices=5, max_edges=7)
            for _ in range(k)
        ]
        emb = disjoint_union_embeddings(embs)
        t = G.trace_faces(emb)
        assert t.component_count == k
        assert t.chi == 1 + k


def test_geometric_abstract_duality_coherence():
    rng = random.Random(13)
    for _ in range(6):
        emb = random_planar_embedding(rng, max_vertices=6, max_edges=9)
        cm_dual = G.cycle_matroid(G.dual_embedding(emb).graph)
        dual_cm = G.cycle_matroid(emb.graph).dual()
        ok, _ = M.is_isomorphic(cm_dual, dual_cm)
        assert ok


def test_random_cellular_genus_bounds():
    rng = random.Random(88)
    for _ in range(20):
        emb = random_cellular_embedding(rng, rng.randint(2, 6), rng.randint(0, 6))
        t = G.trace_faces(emb)
        assert t.component_count == 1
        assert t.genus is not None and 0 <= t.genus <= 3
        assert emb.graph.vertex_count - len(emb.graph.edges) + t.face_count == 2 - 2 * t.genus


# ---------------------------------------------------------------------------
# formats


def test_graph_text_parse():
    text = "v: 3\ne: 0 1\ne: 1 2\n"
    g = G.parse_graph(text)
    assert g.vertex_count == 3 and g.edges == ((0, 1), (1, 2))


def test_embedding_text_roundtrip():
    for name in ("tetrahedron", "torus", "cube"):
        emb = G.named_embedding(name)
        again = G.parse_embedding(G.embedding_to_text(emb))
        assert again == emb


def test_embedding_json_roundtrip():
    import json

    emb = G.named_embedding("torus")
    again = G.parse_embedding(json.dumps(emb.to_json_dict()))
    assert again == emb


def test_parse_errors():
    with pytest.raises(G.GraphError):
        G.parse_graph("e: 0 1\n")
    with pytest.raises(G.GraphError):
        G.parse_graph("v: 2\nbogus\n")
    with pytest.raises(G.GraphError):
        G.parse_embedding("v: 2\ne: 0 1\nrot 0: 1\n")


def test_a_repeated_record_is_refused():
    with pytest.raises(G.GraphError, match="more than one 'v:' line"):
        G.parse_graph("v: 2\nv: 3\ne: 0 1\n")
    with pytest.raises(G.GraphError, match="more than one 'rot 0:' line"):
        G.parse_embedding("v: 1\ne: 0 0\nrot 0: 1 -1\nrot 0: -1 1\n")
    with pytest.raises(G.GraphError, match="repeated JSON key 'edges'"):
        G.parse_graph('{"vertices": 2, "edges": [[0, 1]], "edges": []}')


def test_parse_embedding_is_linear_in_the_edges():
    # 4096 vertices, 20,000 parallel edges: one count of the edge ends,
    # not a scan of the edges for every vertex
    edges = range(1, 20001)
    head = "v: 4096\n" + "e: 0 1\n" * len(edges) + "rot 0: " + " ".join(map(str, edges)) + "\n"
    text = head + "rot 1: " + " ".join(str(-k) for k in edges) + "\n"
    start = time.perf_counter()
    emb = G.parse_embedding(text)
    assert time.perf_counter() - start < 0.5
    assert len(emb.rotation[1]) == 20000 and emb.rotation[2] == ()
    with pytest.raises(G.GraphError, match="every vertex with incident edges needs a rot line"):
        G.parse_embedding(head)


def test_parse_and_named_bounds():
    for text in ("v: 1\nrot 5:\n", "v: 2\nrot -1:\n", "v: 2\ne: 0\n", "v: 1 2\n", "rot: 1\n"):
        with pytest.raises(G.GraphError):
            G.parse_embedding(text)
    for ident in ("cycle:0", "path:-1", "cycle:x", "cycle:1,2", "k4:1"):
        with pytest.raises(G.GraphError):
            G.named_graph(ident)
    for ident in ("genus:-1", "genus:9999999999", "genus"):
        with pytest.raises(G.GraphError):
            G.named_embedding(ident)
