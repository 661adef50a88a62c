"""Path-addition planarity and the edge-deletion Kuratowski witness
against reference oracles.

``ref_plane_embedding`` is Whitney's route: realize the dual of each
block's cycle matroid ear by ear and read the faces off the vertex stars
of the realizing graph.  ``networkx.check_planarity`` is the second,
independent verdict, and ``ref_has_minor`` (from ``test_matroid_core``)
the exhaustive minor scan whose first witness the library must reproduce
on a Kuratowski subdivision.  ``networkx.is_isomorphic`` checks that a
witness leaves K5 or K3,3.
"""

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualities import graphs as G
from dualities import matroids as M
from test_graphs import assert_isomorphic_graphs, grid
from test_matroid_core import MULTI_BLOCK, ref_cycle_matroid, ref_has_minor, wheel

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)
KURATOWSKI = {"M(K5)": ("k5", "mk5"), "M(K3,3)": ("k33", "mk33")}  # graph and matroid names


# ---------------------------------------------------------------------------
# reference oracles


def ref_block_faces(blk):
    """Oriented face walks of a 2-connected block by Whitney's criterion:
    the block is planar exactly when the dual of its cycle matroid is
    graphic, and each vertex star of a realizing graph is a face cycle.
    A traversal of faces that share an edge orients them so every edge is
    walked once in each direction."""
    edges = blk.edges
    cm = G.cycle_matroid(blk.graph, bound=len(edges))
    dual_edges = M._realization_witness(cm.dual())
    if dual_edges is None:
        return None
    stars = {}
    for e, ends in enumerate(dual_edges):
        for x in ends:
            stars.setdefault(x, []).append(e)
    faces = []
    for star in stars.values():
        at = {}
        for e in star:
            for v in edges[e]:
                at.setdefault(v, []).append(e)
        e, s = star[0], 0
        face = []
        for _ in star:  # the star is a cycle: leave each vertex by its other edge
            face.append((e, s))
            w = edges[e][1 - s]
            e = next(f for f in at[w] if f != e)
            s = 0 if edges[e][0] == w else 1
        faces.append(face)
    faces_of = {}
    for fi, face in enumerate(faces):
        for e, _ in face:
            faces_of.setdefault(e, []).append(fi)
    todo, oriented = [0], {0}
    while todo:
        for e, s in faces[todo.pop()]:
            for fj in faces_of[e]:
                if fj not in oriented:
                    if (e, s) in faces[fj]:  # walked the same way: reverse it
                        faces[fj] = [(f, 1 - t) for f, t in reversed(faces[fj])]
                    oriented.add(fj)
                    todo.append(fj)
    return faces


def ref_plane_embedding(g):
    """A genus-0 embedding from Whitney's criterion on every block, or
    None; the blocks' rotations are concatenated at cut vertices."""
    rot_next = {}
    for blk in G.blocks(g):
        if len(blk.edges) == 1:
            (e,) = blk.edge_indices
            loop = blk.edges[0][0] == blk.edges[0][1]
            rot_next[(e, 0)], rot_next[(e, 1)] = ((e, 1), (e, 0)) if loop else ((e, 0), (e, 1))
            continue
        faces = ref_block_faces(blk)
        if faces is None:
            return None
        for face in faces:
            for i, (e, s) in enumerate(face):
                f, t = face[(i + 1) % len(face)]
                rot_next[(blk.edge_indices[e], 1 - s)] = (blk.edge_indices[f], t)
    rotation = []
    for darts in G._incident_darts(g):
        cyc = []
        for d in darts:
            while d not in cyc:
                cyc.append(d)
                d = rot_next[d]
        rotation.append(tuple(cyc))
    emb = G.Embedding(g, tuple(rotation))
    assert not any(G.trace_faces(emb).genus_by_component)
    return emb


def witness_graph(g, deletions, contractions):
    """Delete, contract, then drop isolated vertices."""
    parent = list(range(g.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in contractions:
        u, v = g.edges[e]
        parent[find(u)] = find(v)
    gone = set(deletions) | set(contractions)
    rest = [(find(u), find(v)) for e, (u, v) in enumerate(g.edges) if e not in gone]
    label = {v: i for i, v in enumerate(sorted({v for uv in rest for v in uv}))}
    return G.Multigraph(len(label), tuple((label[u], label[v]) for u, v in rest))


def assert_verdict_checks(g, rep):
    """A planar verdict carries a genus-0 embedding of ``g``; a non-planar
    one a witness that leaves the named graph, K5 or K3,3."""
    if rep.planar:
        assert rep.embedding is not None and rep.embedding.graph == g
        assert not any(G.trace_faces(rep.embedding).genus_by_component)
        return
    name = KURATOWSKI[rep.obstruction][0]
    assert set(rep.deletions).isdisjoint(rep.contractions)
    assert_isomorphic_graphs(witness_graph(g, rep.deletions, rep.contractions), G.named_graph(name))


# ---------------------------------------------------------------------------
# generators


@st.composite
def multigraphs(draw):
    """Up to 20 edges: a random simple core on up to 7 vertices, dense
    enough to be non-planar a quarter of the time, then loops, parallel copies,
    pendant bridges and further small components, with the vertices
    relabelled and the edges shuffled."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.choice((1, 2, 3, 4, 5, 6, 6, 7, 7, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randint(len(pairs) // 2, min(len(pairs), 16)))
    extras = rng.randint(0, 20 - len(edges))
    for _ in range(extras):
        kind = rng.randrange(4)
        if kind == 0:
            v = rng.randrange(n)
            edges.append((v, v))
        elif kind == 1 and edges:
            edges.append(rng.choice(edges))
        elif kind == 2:
            edges.append((rng.randrange(n), n))
            n += 1
        else:  # an edge in a new component
            edges.append((n, n + 1))
            n += 2
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return G.Multigraph(n, tuple((perm[u], perm[v])[:: rng.choice((1, -1))] for u, v in edges))


def subdivision(rng, base, count):
    """``base`` with ``count`` edges subdivided, vertices relabelled, edge
    order shuffled and ends flipped at random."""
    g = G.named_graph(base)
    n, edges = g.vertex_count, list(g.edges)
    for _ in range(count):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (n, v)]
        n += 1
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return G.Multigraph(n, tuple((perm[u], perm[v])[:: rng.choice((1, -1))] for u, v in edges))


def subdivided_k5(count):
    """K5 with its first ``count`` edges subdivided."""
    n, edges = 5, list(G.named_graph("k5").edges)
    for i in range(count):
        u, v = edges[i]
        edges[i] = (u, n)
        edges.append((n, v))
        n += 1
    return G.Multigraph(n, tuple(edges))


# ---------------------------------------------------------------------------
# path addition against Whitney's criterion and networkx


@PROPERTY
@given(multigraphs())
@example(G.Multigraph(8, G.named_graph("k5").edges + ((0, 0), (1, 2), (4, 5), (6, 7), (7, 7))))
@example(G.Multigraph(9, G.named_graph("k33").edges + ((0, 3), (2, 2), (5, 6), (7, 8))))
@example(G.Multigraph(7, ((0, 1), (1, 2), (2, 0), (0, 1), (3, 3), (2, 4), (5, 6))))
def test_verdict_matches_whitney_and_networkx(g):
    nx = pytest.importorskip("networkx")
    oracle = nx.MultiGraph()
    oracle.add_nodes_from(range(g.vertex_count))
    oracle.add_edges_from(g.edges)
    rep = G.is_planar(g)
    assert rep.planar == (ref_plane_embedding(g) is not None) == nx.check_planarity(oracle)[0]
    assert_verdict_checks(g, rep)
    if not rep.planar:
        minor = G.cycle_matroid(g, bound=len(g.edges)).minor(rep.deletions, rep.contractions)
        target = M.named_matroid(KURATOWSKI[rep.obstruction][1])
        assert M.is_isomorphic(minor, target)[0]


# ---------------------------------------------------------------------------
# witness stability


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(["k5", "k33"]), st.integers(0, 3), st.integers(0, 2**32))
def test_subdivision_witness_is_the_first_scan_hit(base, count, seed):
    """Contracting all but the highest-indexed edge of each subdivided
    path is the lexicographically first contraction set, the first hit of
    the exhaustive scan, M(K5) before M(K3,3)."""
    g = subdivision(random.Random(seed), base, count)
    rep = G.is_planar(g)
    cm = ref_cycle_matroid(g, bound=len(g.edges))
    for name, (_, target) in KURATOWSKI.items():
        found, wit = ref_has_minor(cm, M.named_matroid(target))
        if found:
            break
    assert (rep.obstruction, rep.deletions, rep.contractions) == (name, *wit)


def refuse(*args, **kwargs):
    raise AssertionError("matroid search on the planarity path")


@pytest.mark.parametrize(
    "g",
    [grid(3, 3), G.named_graph("octahedron"), G.Multigraph(3, ((0, 0), (0, 1), (0, 1))), wheel(10)]
    + [G.named_graph("k5"), G.named_graph("k33"), subdivided_k5(6)]
    + MULTI_BLOCK,
)
def test_is_planar_runs_no_matroid_search(g, monkeypatch):
    for module, name in (
        (G, "cycle_matroid"),
        (M, "has_minor"),
        (M, "_realization_witness"),
        (M, "_excluded_minor_scan"),
    ):
        monkeypatch.setattr(module, name, refuse)
    assert_verdict_checks(g, G.is_planar(g))


# ---------------------------------------------------------------------------
# time limits


def timed(f):
    start = time.perf_counter()
    out = f()
    return out, time.perf_counter() - start


def test_wheel_within_a_tenth_of_a_second():
    rep, seconds = timed(lambda: G.is_planar(wheel(10)))
    assert rep.planar and seconds < 0.1


def test_k5_with_six_subdivided_edges_within_a_tenth_of_a_second():
    g = subdivided_k5(6)
    rep, seconds = timed(lambda: G.is_planar(g))
    assert rep.obstruction == "M(K5)" and seconds < 0.1
    assert_verdict_checks(g, rep)


@pytest.mark.parametrize("diagonals", [False, True])
def test_eleven_by_eleven_grid_within_two_seconds(diagonals):
    g = grid(11, 11)
    if diagonals:  # both diagonals of the middle cell
        c = 5 * 11 + 5
        g = G.Multigraph(g.vertex_count, g.edges + ((c, c + 12), (c + 1, c + 11)))
    rep, seconds = timed(lambda: G.is_planar(g, bound=250))
    assert rep.planar != diagonals and seconds < 2.0
    assert_verdict_checks(g, rep)
