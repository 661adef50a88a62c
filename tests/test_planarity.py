"""Path-addition planarity and the edge-deletion Kuratowski witness
against reference oracles.

``ref_block_faces``, ``ref_plane_embedding``, ``ref_kuratowski_edges`` and
``ref_is_planar`` are the same path addition and edge deletion written on
(edge, end) dart tuples and vertex sets of faces, without the pendant
stripping of the deletion pre-test: the library's integer-dart path must
give the same report, rotation and witness included, and the same faces.
``whitney_plane_embedding`` is Whitney's route: realize the dual of each
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
from generators import incident_darts
from test_graphs import assert_isomorphic_graphs, grid
from test_matroid_core import MULTI_BLOCK, ref_cycle_matroid, ref_has_minor, wheel

PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)
KURATOWSKI = {"M(K5)": ("k5", "mk5"), "M(K3,3)": ("k33", "mk33")}  # graph and matroid names


# ---------------------------------------------------------------------------
# reference oracles


def whitney_block_faces(blk):
    """Oriented face walks of a 2-connected block by Whitney's criterion:
    the block is planar exactly when the dual of its cycle matroid is
    graphic, and each vertex star of a realizing graph is a face cycle.
    A traversal of faces that share an edge orients them so every edge is
    walked once in each direction."""
    edges = blk.edges
    cm = G.cycle_matroid(G.Multigraph(len(blk.vertices), edges), bound=len(edges))
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


def whitney_plane_embedding(g):
    """A genus-0 embedding from Whitney's criterion on every block, or
    None; the blocks' rotations are concatenated at cut vertices."""
    rot_next = {}
    for blk in G.blocks(g):
        if len(blk.edges) == 1:
            (e,) = blk.edge_indices
            loop = blk.edges[0][0] == blk.edges[0][1]
            rot_next[(e, 0)], rot_next[(e, 1)] = ((e, 1), (e, 0)) if loop else ((e, 0), (e, 1))
            continue
        faces = whitney_block_faces(blk)
        if faces is None:
            return None
        for face in faces:
            for i, (e, s) in enumerate(face):
                f, t = face[(i + 1) % len(face)]
                rot_next[(blk.edge_indices[e], 1 - s)] = (blk.edge_indices[f], t)
    rotation = []
    for darts in incident_darts(g):
        cyc = []
        for d in darts:
            while d not in cyc:
                cyc.append(d)
                d = rot_next[d]
        rotation.append(tuple(cyc))
    emb = G.Embedding(g, tuple(rotation))
    assert not any(G.trace_faces(emb).genus_by_component)
    return emb


def ref_block_faces(blk):
    """Oriented face walks of a 2-connected loopless block in (edge, end)
    darts, or None if it is not planar: the path addition of
    ``G._block_faces``, with a set of faces at each vertex and every
    fragment listed before one is chosen."""
    edges = blk.edges
    incident = incident_darts(G.Multigraph(len(blk.vertices), edges))

    def head(d):
        return edges[d[0]][1 - d[1]]

    def bfs_path(a, enter, done):
        prev = {a: None}
        todo = [a]
        for v in todo:
            for d in incident[v]:
                if done(d):
                    path = [d]
                    while prev[v] is not None:
                        path.append(prev[v])
                        v = edges[prev[v][0]][prev[v][1]]
                    return path[::-1]
                if head(d) not in prev and enter(d):
                    prev[head(d)] = d
                    todo.append(head(d))

    u0, v0 = edges[0]
    cycle = [(0, 0)] + bfs_path(v0, lambda d: d[0] != 0, lambda d: d[0] != 0 and head(d) == u0)
    faces = [cycle, [(e, 1 - s) for e, s in reversed(cycle)]]
    face_at = [set() for _ in blk.vertices]
    used = set()
    for e, s in cycle:
        used.add(e)
        face_at[edges[e][s]] = {0, 1}
    while len(used) < len(edges):
        frags = [({u, v}, (e, 0)) for e, (u, v) in enumerate(edges) if e not in used and face_at[u] and face_at[v]]
        comp = [-1] * len(blk.vertices)
        for x, fx in enumerate(face_at):
            if fx or comp[x] >= 0:
                continue
            c, attach, todo = len(frags), set(), [x]
            comp[x] = c
            for v in todo:
                for d in incident[v]:
                    w = head(d)
                    if face_at[w]:
                        attach.add(w)
                    elif comp[w] < 0:
                        comp[w] = c
                        todo.append(w)
            frags.append((attach, c))
        chosen = None
        for attach, part in frags:
            fit = set.intersection(*(face_at[a] for a in attach))
            if not fit:
                return None
            if chosen is None or len(fit) == 1:
                chosen = attach, part, min(fit)
                if len(fit) == 1:
                    break
        attach, part, fi = chosen
        if isinstance(part, tuple):
            path = [part]
        else:
            a = min(attach)
            path = bfs_path(
                a,
                lambda d: comp[head(d)] == part,
                lambda d: comp[edges[d[0]][d[1]]] == part and face_at[head(d)] and head(d) != a,
            )
        a, b = edges[path[0][0]][path[0][1]], head(path[-1])
        walk = faces[fi]
        tails = [edges[e][s] for e, s in walk]
        i = tails.index(a)
        walk = walk[i:] + walk[:i]
        j = (tails.index(b) - i) % len(walk)
        for v in tails:
            face_at[v].discard(fi)
        faces[fi] = walk[:j] + [(e, 1 - s) for e, s in reversed(path)]
        faces.append(walk[j:] + path)
        for fj in (fi, len(faces) - 1):
            for e, s in faces[fj]:
                face_at[edges[e][s]].add(fj)
        used.update(e for e, _ in path)
    return faces


def ref_plane_embedding(g):
    """``G._plane_embedding`` on dart tuples: the embedding and None, or
    None and the first block without a plane embedding."""
    rot_next = {}
    for blk in G.blocks(g):
        if len(blk.edges) == 1:
            (e,) = blk.edge_indices
            loop = blk.edges[0][0] == blk.edges[0][1]
            rot_next[(e, 0)], rot_next[(e, 1)] = ((e, 1), (e, 0)) if loop else ((e, 0), (e, 1))
            continue
        faces = ref_block_faces(blk)
        if faces is None:
            return None, blk
        for face in faces:
            for i, (e, s) in enumerate(face):
                f, t = face[(i + 1) % len(face)]
                rot_next[(blk.edge_indices[e], 1 - s)] = (blk.edge_indices[f], t)
    incident = incident_darts(g)
    rotation = []
    for darts in incident:
        cyc = []
        for d in darts:
            while d not in cyc:
                cyc.append(d)
                d = rot_next[d]
        rotation.append(cyc)
    mirror = [cyc[:1] + cyc[:0:-1] for cyc in rotation]
    pos = {d: i for darts in incident for i, d in enumerate(darts)}
    best = min(rotation, mirror, key=lambda rot: [[pos[d] for d in cyc] for cyc in rot])
    emb = G.Embedding(g, tuple(map(tuple, best)))
    if any(G.trace_faces(emb).genus_by_component):
        return None, None
    return emb, None


def ref_kuratowski_edges(blk):
    """``G._kuratowski_edges`` with a degree pre-test that strips nothing."""
    n = len(blk.vertices)

    def nonplanar(kept):
        degree = [0] * n
        for e in kept:
            for v in blk.edges[e]:
                degree[v] += 1
        if sum(d > 3 for d in degree) < 5 and sum(d > 2 for d in degree) < 6:
            return False
        h = G.Multigraph(n, tuple(blk.edges[e] for e in kept))
        return any(len(b.edges) > 1 and ref_block_faces(b) is None for b in G.blocks(h))

    kept = list(range(len(blk.edges)))
    i, run = 0, 1
    while i < len(kept):
        rest = kept[:i] + kept[i + run:]
        if nonplanar(rest):
            kept, run = rest, 2 * run
        elif run > 1:
            run //= 2
        else:
            i += 1
    return kept


def ref_is_planar(g):
    """``G.is_planar`` without its edge bound, on the references above."""
    emb, blk = ref_plane_embedding(g)
    if emb is not None:
        note = "every block embeds by path addition; genus-0 rotation system exhibited"
        return G.PlanarityReport(True, None, None, None, emb, note)
    kept = ref_kuratowski_edges(blk)
    at = {}
    for e in kept:
        for v in blk.edges[e]:
            at.setdefault(v, []).append(e)
    branch = [v for v, es in at.items() if len(es) > 2]
    cons, walked = [], set()
    for v in branch:
        for e in at[v]:
            if e in walked:
                continue
            path, w = [e], blk.edges[e][blk.edges[e][0] == v]
            while len(at[w]) == 2:
                e = at[w][at[w][0] == e]
                path.append(e)
                w = blk.edges[e][blk.edges[e][0] == w]
            walked.update(path)
            cons += sorted(path)[:-1]
    name = "M(K5)" if len(branch) == 5 else "M(K3,3)"
    keep = {blk.edge_indices[e] for e in kept}
    dels = tuple(e for e in range(len(g.edges)) if e not in keep)
    cons = tuple(sorted(blk.edge_indices[e] for e in cons))
    return G.PlanarityReport(False, name, dels, cons, None, f"{name} minor found")


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
    return shuffled(rng, n, edges)


def shuffled(rng, n, edges):
    """Vertices relabelled, edge order shuffled and ends flipped at random."""
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(edges)
    return G.Multigraph(n, tuple((perm[u], perm[v])[:: rng.choice((1, -1))] for u, v in edges))


def subdivision(rng, base, count, extra=0):
    """``base`` with ``count`` edges subdivided and ``extra`` random edges
    between distinct vertices, shuffled."""
    g = G.named_graph(base)
    n, edges = g.vertex_count, list(g.edges)
    for _ in range(count):
        u, v = edges.pop(rng.randrange(len(edges)))
        edges += [(u, n), (n, v)]
        n += 1
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(extra)]
    return shuffled(rng, n, edges)


def apex_over_outerplanar(rng, outer, chords, apex):
    """Planar by construction: an ``outer``-cycle with ``chords`` chords
    fanned from one vertex, so the graph stays outerplanar, and one more
    vertex joined to ``apex`` cycle vertices, shuffled."""
    edges = [(i, (i + 1) % outer) for i in range(outer)]
    r = rng.randrange(outer)
    edges += [(r, (r + k) % outer) for k in rng.sample(range(2, outer - 1), chords)]
    edges += [(outer, v) for v in rng.sample(range(outer), apex)]
    return shuffled(rng, outer + 1, edges)


@st.composite
def sparse_graphs(draw):
    """21 to 256 edges: a random tree on 22 to 240 vertices plus up to one
    random edge per eight vertices, loops and parallel edges included,
    shuffled; about half of them planar."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.randint(22, 240)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, min(n // 8, 257 - n)))]
    return shuffled(rng, n, edges)


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
    assert rep.planar == (whitney_plane_embedding(g) is not None) == nx.check_planarity(oracle)[0]
    assert_verdict_checks(g, rep)
    if not rep.planar:
        minor = G.cycle_matroid(g, bound=len(g.edges)).minor(rep.deletions, rep.contractions)
        target = M.named_matroid(KURATOWSKI[rep.obstruction][1])
        assert M.is_isomorphic(minor, target)[0]


def assert_matches_reference(g):
    """Every report field, rotation and witness included, and each
    block's faces are those of the tuple-dart reference."""
    assert G.is_planar(g) == ref_is_planar(g)
    for blk in G.blocks(g):
        if len(blk.edges) > 1:
            faces = G._block_faces(len(blk.vertices), blk.edges)
            want = ref_block_faces(blk)
            assert want is None if faces is None else [[(d >> 1, d & 1) for d in f] for f in faces] == want


@PROPERTY
@given(multigraphs())
def test_matches_the_tuple_dart_reference(g):
    assert_matches_reference(g)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(["k5", "k33"]), st.integers(0, 6), st.integers(0, 3), st.integers(0, 2**32))
def test_kuratowski_subdivisions_with_extra_edges_match_the_reference(base, count, extra, seed):
    assert_matches_reference(subdivision(random.Random(seed), base, count, extra))


@pytest.mark.parametrize("seed", range(4))
def test_benchmark_shapes_match_the_reference(seed):
    """An apex over an outerplanar 5- to 8-cycle, and K5 and K3,3 with 11
    and 12 subdivided edges."""
    rng = random.Random(seed)
    for outer in range(5, 9):
        assert_matches_reference(apex_over_outerplanar(rng, outer, rng.randint(0, 1), rng.randint(3, 5)))
    for base in ("k5", "k33"):
        for count in (11, 12):
            assert_matches_reference(subdivision(rng, base, count))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(sparse_graphs())
def test_networkx_verdict_from_21_to_256_edges(g):
    nx = pytest.importorskip("networkx")
    oracle = nx.MultiGraph()
    oracle.add_nodes_from(range(g.vertex_count))
    oracle.add_edges_from(g.edges)
    rep = G.is_planar(g)
    assert rep.planar == nx.check_planarity(oracle)[0]
    assert_verdict_checks(g, rep)


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"])
def test_platonic_solids_are_planar_within_the_default_bound(name):
    g = G.named_graph(name)
    rep = G.is_planar(g)
    assert rep.planar and rep.embedding == G.named_embedding(name)
    assert_verdict_checks(g, rep)


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


def count_passes(monkeypatch) -> list[bool]:
    """Record each path-addition pass: True if it embeds its block."""
    passes = []
    block_faces = G._block_faces

    def counted(*args):
        faces = block_faces(*args)
        passes.append(faces is not None)
        return faces

    monkeypatch.setattr(G, "_block_faces", counted)
    return passes


def test_wheel_within_a_tenth_of_a_second(monkeypatch):
    passes = count_passes(monkeypatch)
    rep, seconds = timed(lambda: G.is_planar(wheel(10)))
    assert rep.planar and seconds < 0.1
    assert passes == [True]


def test_k5_with_six_subdivided_edges_within_a_tenth_of_a_second():
    g = subdivided_k5(6)
    rep, seconds = timed(lambda: G.is_planar(g))
    assert rep.obstruction == "M(K5)" and seconds < 0.1
    assert_verdict_checks(g, rep)


@pytest.mark.parametrize("seed", range(3))
def test_subdivided_k33_with_21_edges_runs_one_failing_pass(monkeypatch, seed):
    """Deleting any edge leaves a dangling subdivided path; stripping it
    leaves four vertices of degree 3, so the degree pre-test settles every
    deletion and the one pass that finds the block non-planar is the only
    one."""
    g = subdivision(random.Random(seed), "k33", 12)
    passes = count_passes(monkeypatch)
    rep = G.is_planar(g)
    assert len(g.edges) == 21 and passes == [False]
    assert rep.obstruction == "M(K3,3)" and len(rep.contractions) == 12
    assert_verdict_checks(g, rep)


@pytest.mark.parametrize("diagonals", [False, True])
def test_eleven_by_eleven_grid_within_two_seconds(monkeypatch, diagonals):
    g = grid(11, 11)
    if diagonals:  # both diagonals of the middle cell
        c = 5 * 11 + 5
        g = G.Multigraph(g.vertex_count, g.edges + ((c, c + 12), (c + 1, c + 11)))
    passes = count_passes(monkeypatch)
    rep, seconds = timed(lambda: G.is_planar(g))
    assert rep.planar != diagonals and seconds < 2.0
    assert (len(passes), passes.count(False)) == ((80, 48) if diagonals else (1, 0))
    assert_verdict_checks(g, rep)
