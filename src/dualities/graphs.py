"""Multigraphs and rotation-system embeddings.

An embedding is a cyclic order of edge-ends ("darts") at every vertex.
Faces come from walking the permutation d -> rotation-successor of the
twin of d, so the face count, Euler characteristic and genus are defined
purely combinatorially.  Loops and parallel edges are first-class: dual
graphs generate them even from simple polyhedra.

Public darts are (edge_index, end) pairs with end 0 or 1; the dart (e, s)
sits at the endpoint edges[e][s].  The dual embedding keeps edge indices,
so "which dual edge crosses which primal edge" is the identity map.

Planarity runs on the graph itself, on integer darts 2e + s (twin d ^ 1):
path addition draws the faces of each block, and a non-planar graph's
witness comes from deleting edges until a Kuratowski subdivision is left.
No matroid is built on that path; cycle matroids serve the matroid side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .formats import json_ints, read_records, split_ident
from .matroids import Matroid, _from_masks, _within
from . import matroids

Dart = tuple[int, int]


class GraphError(ValueError):
    """Base class for graph and embedding failures."""


class EndpointOutOfRange(GraphError):
    """An edge endpoint is not a valid vertex index."""


class NonCellular(GraphError):
    """Rotation data malformed, or a single surface was required but the
    underlying graph is disconnected."""


class NonPlanarEmbedding(GraphError):
    """A genus-0 embedding was required."""


class TooLarge(GraphError):
    """Search bound exceeded."""


class UnknownGraphName(GraphError):
    """Unrecognized named graph or embedding."""


# ---------------------------------------------------------------------------
# multigraphs


@dataclass(frozen=True)
class Multigraph:
    """Vertices 0..vertex_count-1 and an indexed edge list.

    Loops and parallel edges are allowed; the edge index is the stable
    identity used everywhere (matroids, duals, witnesses).
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.vertex_count
        if type(n) is not int or n < 0:
            raise EndpointOutOfRange("vertex_count must be a nonnegative integer")
        for i, (u, v) in enumerate(self.edges):
            if type(u) is not int or type(v) is not int:
                raise EndpointOutOfRange(f"edge {i} endpoints must be integers: {(u, v)}")
            if not (0 <= u < n and 0 <= v < n):
                raise EndpointOutOfRange(f"edge {i} endpoint out of range: {(u, v)}")

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        groups: list[list[int]] = [[] for _ in range(max(self.component_of, default=-1) + 1)]
        for v, c in enumerate(self.component_of):
            groups[c].append(v)
        return tuple(map(tuple, groups))

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        """Each vertex's component, components numbered by least vertex."""
        adj: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        label = [-1] * self.vertex_count
        k = 0
        for root in range(self.vertex_count):
            if label[root] < 0:
                label[root] = k
                todo = [root]
                for v in todo:
                    for w in adj[v]:
                        if label[w] < 0:
                            label[w] = k
                            todo.append(w)
                k += 1
        return tuple(label)

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)


def make_graph(vertex_count: int, edge_list: Iterable[tuple[int, int]]) -> Multigraph:
    return Multigraph(vertex_count, tuple((u, v) for u, v in edge_list))


@dataclass(frozen=True)
class GraphInvariants:
    components: int
    rank: int
    nullity: int


def graph_invariants(g: Multigraph) -> GraphInvariants:
    """Component count k, rank V - k, nullity E - rank."""
    k = len(g.components)
    r = g.vertex_count - k
    return GraphInvariants(k, r, len(g.edges) - r)


# ---------------------------------------------------------------------------
# embeddings and face tracing


@dataclass(frozen=True)
class Embedding:
    """A multigraph with a cyclic order of darts at each vertex."""

    graph: Multigraph
    rotation: tuple[tuple[Dart, ...], ...]

    def __post_init__(self):
        g = self.graph
        if len(self.rotation) != g.vertex_count:
            raise NonCellular("one rotation list required per vertex")
        seen: set[Dart] = set()
        for v, cyc in enumerate(self.rotation):
            for d in cyc:
                e, s = d
                if type(e) is not int or type(s) is not int or not 0 <= e < len(g.edges) or s not in (0, 1):
                    raise NonCellular(f"bad dart {d} at vertex {v}")
                if g.edges[e][s] != v:
                    raise NonCellular(f"dart {d} listed at vertex {v}, belongs at {g.edges[e][s]}")
                if d in seen:
                    raise NonCellular(f"dart {d} appears twice")
                seen.add(d)
        if len(seen) != 2 * len(g.edges):
            raise NonCellular("every edge must contribute exactly two darts")

    def to_json_dict(self) -> dict:
        return {
            "vertices": self.graph.vertex_count,
            "edges": [list(e) for e in self.graph.edges],
            "rotation": [[list(dart) for dart in cyc] for cyc in self.rotation],
        }


def _rot_next(rotation) -> dict[Dart, Dart]:
    """Each dart's successor in the cyclic order at its vertex."""
    return {d: cyc[(i + 1) % len(cyc)] for cyc in rotation for i, d in enumerate(cyc)}


def _face_orbits(edges: tuple[tuple[int, int], ...], rotation) -> list[tuple[Dart, ...]]:
    """Orbits of the face successor d -> rot_next(twin(d)), each from its
    least dart, in dart order.  The walk runs on darts 2e + s."""
    succ = [0] * (2 * len(edges))
    for cyc in rotation:
        for i, (e, s) in enumerate(cyc):  # (e, s) = rot_next((f, t))
            f, t = cyc[i - 1]
            succ[2 * f + 1 - t] = 2 * e + s
    darts = [(e, s) for e in range(len(edges)) for s in (0, 1)]
    faces = []
    seen = [False] * len(succ)
    for first in range(len(succ)):
        d, face = first, []
        while not seen[d]:
            seen[d] = True
            face.append(darts[d])
            d = succ[d]
        if face:
            faces.append(tuple(face))
    return faces


@dataclass(frozen=True)
class TracedFaces:
    """Faces of an embedding plus the derived Euler data.

    ``chi`` uses the plane convention for disconnected graphs: all
    components share one outer region, so chi = sum of per-component
    Euler characteristics minus (k - 1).  For a connected embedding this
    is just V - E + F, and ``genus`` is (2 - chi) / 2; for disconnected
    input ``genus`` is None and the per-component values carry the data.
    """

    faces: tuple[tuple[Dart, ...], ...]
    face_count: int
    component_count: int
    chi: int
    genus: Optional[int]
    chi_by_component: tuple[int, ...]
    genus_by_component: tuple[int, ...]


def trace_faces(emb: Embedding) -> TracedFaces:
    """Walk the rotation system and report faces, chi and genus."""
    g = emb.graph
    faces = _face_orbits(g.edges, emb.rotation)
    comp_of = g.component_of
    k = max(comp_of, default=-1) + 1
    v_c, e_c, f_c = [0] * k, [0] * k, [0] * k
    for c in comp_of:
        v_c[c] += 1
    for u, _ in g.edges:
        e_c[comp_of[u]] += 1
    for face in faces:
        e, s = face[0]
        f_c[comp_of[g.edges[e][s]]] += 1
    for ci in range(k):
        if e_c[ci] == 0:
            f_c[ci] = 1  # an edgeless component bounds one region
    chi_by_comp = tuple(v_c[i] - e_c[i] + f_c[i] for i in range(k))
    genus_by_comp = tuple((2 - chi) // 2 for chi in chi_by_comp)
    chi = sum(chi_by_comp) - (k - 1)
    genus = genus_by_comp[0] if k == 1 else None
    return TracedFaces(tuple(faces), sum(f_c), k, chi, genus, chi_by_comp, genus_by_comp)


def dual_embedding(emb: Embedding) -> Embedding:
    """Dual map: one vertex per face, same edge indices, faces become
    the primal vertices.  Requires a connected embedding."""
    traced = trace_faces(emb)
    if traced.component_count != 1:
        raise NonCellular("dual requires a connected embedding")
    face_of: dict[Dart, int] = {}
    for fi, face in enumerate(traced.faces):
        for d in face:
            face_of[d] = fi
    edges = tuple(
        (face_of[(e, 0)], face_of[(e, 1)]) for e in range(len(emb.graph.edges))
    )
    # an edgeless map has no dart orbits but one face: its dual is itself
    rotation = tuple(tuple(face) for face in traced.faces) or ((),)
    return Embedding(Multigraph(len(rotation), edges), rotation)


def _walk(rot_next: dict[Dart, Dart], start: Dart) -> list[int]:
    """Label darts in discovery order from ``start``; for each labelled
    dart, record the labels of its rotation successor and its twin."""
    label = {start: 0}
    order = [start]
    out = []
    for d in order:
        for x in (rot_next[d], (d[0], 1 - d[1])):
            if x not in label:
                label[x] = len(order)
                order.append(x)
            out.append(label[x])
    return out


def _same_map(a: Embedding, b: Embedding) -> bool:
    """Whether two connected maps with edges agree up to mirror image.

    A map isomorphism commutes with the rotation successor and the twin,
    so the image of one dart forces the rest (Mohar and Thomassen, Graphs
    on Surfaces, 2001, 3.2): no backtracking.  The walk of ``a`` from one
    dart is compared with the walk from every dart of ``b`` and of its
    mirror, whose every rotation is reversed.
    """
    want = _walk(_rot_next(a.rotation), (0, 0))
    mirror = tuple(cyc[::-1] for cyc in b.rotation)
    return any(_walk(nxt, d) == want for nxt in (_rot_next(b.rotation), _rot_next(mirror)) for d in nxt)


@dataclass(frozen=True)
class DualityReport:
    """Rank/nullity of a genus-0 embedding against its dual."""

    rank: int
    nullity: int
    rank_dual: int
    nullity_dual: int
    euler_chi: int

    @property
    def duality_ok(self) -> bool:
        return (
            self.rank_dual == self.nullity
            and self.nullity_dual == self.rank
            and self.rank - self.nullity_dual + 2 == self.euler_chi
        )


def rank_nullity_duality_report(emb: Embedding) -> DualityReport:
    """Check rank* = nullity and nullity* = rank on a planar embedding."""
    traced = trace_faces(emb)
    if traced.component_count != 1:
        raise NonCellular("duality report requires a connected embedding")
    if traced.genus != 0:
        raise NonPlanarEmbedding(f"genus {traced.genus} embedding; need genus 0")
    inv = graph_invariants(emb.graph)
    dual = dual_embedding(emb)
    inv_d = graph_invariants(dual.graph)
    return DualityReport(inv.rank, inv.nullity, inv_d.rank, inv_d.nullity, traced.chi)


# ---------------------------------------------------------------------------
# planarity


@dataclass(frozen=True)
class PlanarityReport:
    planar: bool
    obstruction: Optional[str]
    deletions: Optional[tuple[int, ...]]
    contractions: Optional[tuple[int, ...]]
    embedding: Optional[Embedding]
    note: str


def _block_faces(n: int, edges) -> Optional[list[list[int]]]:
    """Oriented face walks of a plane embedding of a block on vertices
    0..n-1, or None if it is not planar.  Dart d = 2e + s leaves
    ``edges[e][s]``; its twin is d ^ 1.  A bridge has one face, a loop two.

    Path addition (Demoucron, Malgrange and Pertuiset, 1964).  A cycle
    through edge 0, walked both ways, gives the first two faces.  A
    fragment is an unplaced edge between placed vertices, or a component
    of unplaced vertices with its edges to placed ones.  It fits a face
    whose walk passes all of its attachments, the placed vertices it
    touches: the AND of their bit masks of faces.  If a fragment fits no
    face the block is not planar.  Otherwise the first fragment that fits
    exactly one face, or else the first fragment (edges by index, then
    components by least vertex), has a path between two attachments a and
    b drawn through its lowest fitting face.  That face splits into its
    walk from a to b then the path reversed, and its walk from b to a then
    the path, so every edge stays walked once in each direction.
    """
    if len(edges) == 1:
        return [[0], [1]] if edges[0][0] == edges[0][1] else [[0, 1]]
    tail = [v for uv in edges for v in uv]
    incident: list[list[int]] = [[] for _ in range(n)]
    for d, v in enumerate(tail):
        incident[v].append(d)

    def bfs_path(a: int, comp: list[int], c: int, done, first: int) -> list[int]:
        """Shortest dart path from ``a`` through vertices w with comp[w] == c to
        one marked ``done``, by a last dart not of edge 0 nor, if ``first``, from a."""
        prev = {a: -1}
        todo = [a]
        for k, v in enumerate(todo):
            for d in incident[v]:
                w = tail[d ^ 1]
                if done[w] and k >= first and w != a and d != 1:
                    path = [d]
                    while prev[v] >= 0:
                        path.append(prev[v])
                        v = tail[prev[v]]
                    return path[::-1]
                if comp[w] == c and w not in prev:
                    prev[w] = d
                    todo.append(w)
        raise AssertionError("a 2-connected block has a path between two attachments")

    at_u0 = [v == tail[0] for v in range(n)]
    cycle = [0] + bfs_path(tail[1], at_u0, False, at_u0, 0)  # back to edge 0's other end
    faces = [cycle, [d ^ 1 for d in reversed(cycle)]]
    face_at = [0] * n  # bit f is set when the vertex lies on face f
    for d in cycle:
        face_at[tail[d]] = 3
    placed = {d >> 1 for d in cycle}
    pending = [e for e in range(len(edges)) if e not in placed]
    while pending:
        chosen = None  # (fitting faces, the path or the least attachment, component)
        for e in pending:
            u, v = edges[e]
            if face_at[u] and face_at[v]:
                fit = face_at[u] & face_at[v]
                if chosen is None or not fit & fit - 1:
                    chosen = fit, [2 * e], None
                    if not fit & fit - 1:  # fits one face or none
                        break
        if chosen is None or chosen[0] & chosen[0] - 1:
            comp = [-1] * n
            for x in range(n):
                if face_at[x] or comp[x] >= 0:
                    continue
                fit, least, todo = -1, n, [x]
                comp[x] = x
                for v in todo:
                    for d in incident[v]:
                        w = tail[d ^ 1]
                        if face_at[w]:
                            fit &= face_at[w]
                            least = min(least, w)
                        elif comp[w] < 0:
                            comp[w] = x
                            todo.append(w)
                if chosen is None or not fit & fit - 1:
                    chosen = fit, least, x
                    if not fit & fit - 1:
                        break
        fit, path, c = chosen
        if not fit:
            return None
        if c is not None:  # from the least attachment through the component to another
            path = bfs_path(path, comp, c, face_at, 1)
        fi = (fit & -fit).bit_length() - 1
        a, b = tail[path[0]], tail[path[-1] ^ 1]
        walk = faces[fi]
        tails = [tail[d] for d in walk]
        i = tails.index(a)
        walk = walk[i:] + walk[:i]
        j = (tails.index(b) - i) % len(walk)
        both = 1 << fi | 1 << len(faces)
        for d in walk[j + 1:]:  # strictly from b to a: moves to the new face
            face_at[tail[d]] ^= both
        for v in [tail[d] for d in path] + [b]:  # a and b gain the new face, inner vertices both
            face_at[v] |= both
        faces[fi] = walk[:j] + [d ^ 1 for d in reversed(path)]
        faces.append(walk[j:] + path)
        placed = {d >> 1 for d in path}
        pending = [e for e in pending if e not in placed]
    return faces


def find_planar_embedding(g: Multigraph) -> Optional[Embedding]:
    """A genus-0 rotation system of ``g``, or None if ``g`` is not planar;
    no edge bound applies here (``is_planar`` has ``PLANAR_EDGE_BOUND``).

    Each block is embedded on its own from the face walks of path addition
    (``_block_faces``), with rotation successor rot_next(d) = succ(reverse(d))
    for the face successor succ.  At a cut vertex the blocks' rotations are
    concatenated.  Each vertex's list starts at its first incident dart,
    and of the rotation and its mirror the one with the smaller key in
    incidence order (by edge index, end 0 first) is returned: for a
    3-connected graph, whose embedding is unique up to mirror image, the
    first genus-0 rotation in incidence order.  The embedding is returned
    only after ``trace_faces`` gives genus 0 on every component.
    """
    return _plane_embedding(g)[0]


def _plane_embedding(g: Multigraph) -> tuple[Optional[Embedding], Optional[Block]]:
    """The search of ``find_planar_embedding`` on darts 2e + s: its embedding
    and None, or None and the first block that path addition cannot embed.
    Both are None only if the rotation fails the genus-0 check."""
    tail = [v for uv in g.edges for v in uv]
    rot_next = [0] * len(tail)
    for blk in blocks(g):
        faces = _block_faces(len(blk.vertices), blk.edges)
        if faces is None:
            return None, blk
        glob = [2 * e + s for e in blk.edge_indices for s in (0, 1)]
        for face in faces:
            d = face[-1]
            for f in face:  # rot_next(reverse(d)) = succ(d)
                rot_next[glob[d] ^ 1] = glob[f]
                d = f
    rotation: list[list[int]] = [[] for _ in range(g.vertex_count)]
    seen = [False] * len(tail)
    for first in range(len(tail)):  # each block's cycle joins at its first dart
        d, cyc = first, rotation[tail[first]]
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = rot_next[d]
    # in dart (incidence) order the mirror is smaller iff, at the first vertex of degree 3+, cyc[-1] is
    if next((cyc[-1] < cyc[1] for cyc in rotation if len(cyc) > 2), False):
        rotation = [cyc[:1] + cyc[:0:-1] for cyc in rotation]
    emb = Embedding(g, tuple([tuple([(d >> 1, d & 1) for d in cyc]) for cyc in rotation]))
    if any(trace_faces(emb).genus_by_component):
        return None, None
    return emb, None


def _kuratowski_edges(blk: Block) -> list[int]:
    """The block-local edges left when each edge, in index order, is
    dropped if the rest stays non-planar: an edge-minimal non-planar
    subgraph, so a subdivision of K5 or K3,3 (Kuratowski).

    Runs of edges are tried together, the run doubling after a success
    and halving after a failure.  A run whose removal leaves a non-planar
    graph loses each of its edges one at a time too, because every graph
    in between contains that non-planar one; so the result is the
    edge-by-edge one.  A trial strips pendant vertices, which lie on no
    Kuratowski subdivision, and needs no path addition when fewer than 5
    vertices of degree 4 or more and 6 of degree 3 or more are left.  The
    stripped graph carries over: degrees, edges gone, and the XOR of the
    edges at each vertex, which is a pendant vertex's one edge.
    """
    n, edges = len(blk.vertices), blk.edges
    degree, link = [0] * n, [0] * n
    for e, uv in enumerate(edges):
        for v in uv:
            degree[v] += 1
            link[v] ^= e
    core = degree, link, [False] * len(edges)

    def drop(core, run: list[int]):
        """The stripped ``core`` without ``run`` if it is non-planar, else None."""
        degree, link, gone = core[0][:], core[1][:], core[2][:]
        todo = list(run)
        for e in todo:  # the run, then the edge of each vertex left pendant
            if not gone[e]:
                gone[e] = True
                for v in edges[e]:
                    degree[v] -= 1
                    link[v] ^= e
                    if degree[v] == 1:
                        todo.append(link[v])
        three = n - degree.count(0) - degree.count(2)  # no vertex is left pendant
        if three - degree.count(3) < 5 and three < 6:
            return None
        h = Multigraph(n, tuple(uv for uv, out in zip(edges, gone) if not out))
        nonplanar = any(_block_faces(len(b.vertices), b.edges) is None for b in blocks(h))
        return (degree, link, gone) if nonplanar else None

    kept = list(range(len(edges)))
    i, run = 0, 1
    while i < len(kept):
        rest = drop(core, kept[i:i + run])
        if rest is not None:
            core = rest
            kept, run = kept[:i] + kept[i + run:], 2 * run
        elif run > 1:
            run //= 2
        else:
            i += 1
    return kept


# Default edge cap of ``is_planar``, set by measured cost: on k x k grids
# (CPython 3.11, 2-vCPU x86-64 host) a planar verdict takes about 10 ms at
# 264 edges, and a Kuratowski witness with two crossing chords about 0.07 s.
PLANAR_EDGE_BOUND = 256


def is_planar(g: Multigraph, bound: int = PLANAR_EDGE_BOUND) -> PlanarityReport:
    """Planarity by path addition, with explicit witnesses, for at most
    ``bound`` edges (else ``TooLarge``).

    The search of ``find_planar_embedding`` decides it: a planar verdict
    always carries a genus-0 rotation system.  For a non-planar graph,
    edge deletion in the first block without a plane embedding leaves a
    Kuratowski subdivision (``_kuratowski_edges``): 5 branch vertices make
    it M(K5), 6 make it M(K3,3).  The negative witness deletes every other
    edge of the graph and contracts every edge of each subdivided path
    but the highest-indexed one.  On a graph that is itself a subdivision
    this contraction set is the lexicographically first one that leaves
    the minor, as the exhaustive minor scan of ``matroids.has_minor``
    would find it.
    """
    if len(g.edges) > bound:
        raise TooLarge(f"planarity search capped at {bound} edges")
    emb, blk = _plane_embedding(g)
    if emb is not None:
        note = "every block embeds by path addition; genus-0 rotation system exhibited"
        return PlanarityReport(True, None, None, None, emb, note)
    if blk is None:
        raise GraphError("every block has a plane embedding, but their rotation is not genus 0")
    kept = _kuratowski_edges(blk)
    at: list[list[int]] = [[] for _ in blk.vertices]
    for e in kept:
        for v in blk.edges[e]:
            at[v].append(e)
    branch = [v for v, es in enumerate(at) if len(es) > 2]
    cons, walked = [], set()
    for v in branch:
        for e in at[v]:
            if e in walked:
                continue
            path, w = [e], blk.edges[e][blk.edges[e][0] == v]
            while len(at[w]) == 2:  # follow the subdivided edge to its far branch vertex
                e = at[w][at[w][0] == e]
                path.append(e)
                w = blk.edges[e][blk.edges[e][0] == w]
            walked.update(path)
            cons += sorted(path)[:-1]
    name = "M(K5)" if len(branch) == 5 else "M(K3,3)"
    keep = {blk.edge_indices[e] for e in kept}
    dels = tuple([e for e in range(len(g.edges)) if e not in keep])
    cons = tuple(sorted(blk.edge_indices[e] for e in cons))
    return PlanarityReport(False, name, dels, cons, None, f"{name} minor found")


# ---------------------------------------------------------------------------
# regular polyhedra


@dataclass(frozen=True)
class PlatonicRow:
    p: int
    q: int
    vertices: int
    edges: int
    faces: int
    name: str


_PLATONIC_NAMES = {
    (3, 3): "tetrahedron",
    (4, 3): "cube",
    (3, 4): "octahedron",
    (5, 3): "dodecahedron",
    (3, 5): "icosahedron",
}


def platonic_solids() -> list[PlatonicRow]:
    """Solve (p-2)(q-2) < 4 over p, q >= 3 and derive the counts.

    With p-gon faces and q faces per vertex, pF = 2E and qV = 2E force
    E(2p - pq + 2q) = 2pq; only five (p, q) pairs admit positive E.
    Each row is checked against its named embedding (V, E, F and genus
    0), and the duality {p,q} <-> {q,p} on the embeddings: the dual map
    of the tetrahedron, the cube and the dodecahedron is the tetrahedron,
    the octahedron and the icosahedron map, up to mirror image
    (``_same_map``).  Each solid's graph is 3-connected, so its plane
    embedding is unique up to mirror image (Whitney, 1933) and the maps
    agree exactly when the graphs are isomorphic.  A mismatch raises
    ``GraphError``.
    """
    candidates = [
        (p, q)
        for p in range(3, 7)
        for q in range(3, 7)
        if (p - 2) * (q - 2) < 4
    ]
    candidates.sort(key=lambda pq: ((pq[0] - 2) * (pq[1] - 2), -pq[0]))
    rows = []
    for p, q in candidates:
        denom = 2 * p - p * q + 2 * q
        if denom <= 0:
            raise GraphError(f"{{{p},{q}}}: 2p - pq + 2q = {denom} is not positive")
        e2, rem = divmod(2 * p * q, denom)
        v, rem_v = divmod(2 * e2, q)
        f, rem_f = divmod(2 * e2, p)
        if rem or rem_v or rem_f or v - e2 + f != 2:
            raise GraphError(f"{{{p},{q}}}: no integral counts with V - E + F = 2")
        rows.append(PlatonicRow(p, q, v, e2, f, _PLATONIC_NAMES[(p, q)]))
    if len(rows) != 5:
        raise GraphError(f"derived {len(rows)} Platonic solids, not 5")
    for row in rows:
        emb = named_embedding(row.name)
        traced = trace_faces(emb)
        got = (emb.graph.vertex_count, len(emb.graph.edges), traced.face_count, traced.genus)
        if got != (row.vertices, row.edges, row.faces, 0):
            raise GraphError(f"the {row.name} embedding has (V, E, F, genus) = {got}")
        dual = _PLATONIC_NAMES[(row.q, row.p)]
        if row.p >= row.q and not _same_map(dual_embedding(emb), named_embedding(dual)):
            raise GraphError(f"the dual of the {row.name} embedding is not the {dual}")
    return rows


# ---------------------------------------------------------------------------
# blocks and cycle matroids


@dataclass(frozen=True)
class Block:
    """A biconnected component, keeping its original edge indices.

    ``edges`` joins positions in ``vertices``.
    """

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


def blocks(g: Multigraph) -> list[Block]:
    """Biconnected components; bridges and loops are single-edge blocks.
    A depth-first search over darts 2e + s, whose twins are d ^ 1."""
    n = g.vertex_count
    tail = [v for uv in g.edges for v in uv]
    adj: list[list[int]] = [[] for _ in range(n)]
    edge_sets: list[list[int]] = []
    for d, v in enumerate(tail):
        if tail[d ^ 1] != v:
            adj[v].append(d)
        elif not d & 1:
            edge_sets.append([d >> 1])
    disc, low, estack, tick = [-1] * n, [0] * n, [], itertools.count()
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = next(tick)
        stack = [(root, -2, iter(adj[root]))]  # (vertex, the dart back to its parent, darts left)
        while stack:
            v, back, darts = stack[-1]
            for d in darts:
                if d == back:
                    continue
                w = tail[d ^ 1]
                if disc[w] == -1:
                    estack.append(d >> 1)
                    disc[w] = low[w] = next(tick)
                    stack.append((w, d ^ 1, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    estack.append(d >> 1)
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:  # v's parent edge and the edges above it form a block
                        blk = []
                        while not blk or blk[-1] != back >> 1:
                            blk.append(estack.pop())
                        edge_sets.append(sorted(blk))
    out = []
    for es in sorted(edge_sets):
        vs = sorted({v for e in es for v in g.edges[e]})
        vmap = {v: i for i, v in enumerate(vs)}
        out.append(Block(tuple(vs), tuple(es), tuple([(vmap[u], vmap[v]) for u, v in map(g.edges.__getitem__, es)])))
    return out


def cycle_matroid(g: Multigraph, bound: int = matroids.GROUND_BOUND) -> Matroid:
    """Matroid on the edge indices whose bases are the spanning forests.

    More than ``bound`` edges, or than ``matroids.TABLE_BOUND`` whatever
    the bound, raise ``GroundTooLarge``.  The forests are grown by a
    depth-first search that takes edges in index order: each step takes a
    later edge that joins two trees, never one so late that too few edges
    remain to reach the rank.  A union-find records the trees, and every
    union is undone on return.
    """
    ne = len(g.edges)
    _within(ne, bound)
    r = graph_invariants(g).rank
    edges = g.edges
    parent = list(range(g.vertex_count))
    masks = [] if r else [0]

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def grow(i: int, need: int, mask: int) -> None:
        for j in range(i, ne - need + 1):
            u, v = root(edges[j][0]), root(edges[j][1])
            if u == v:
                continue
            if need == 1:
                masks.append(mask | 1 << j)
            else:
                parent[u] = v
                grow(j + 1, need - 1, mask | 1 << j)
                parent[u] = u

    if r:
        grow(0, r, 0)
    return _from_masks(tuple(range(ne)), masks)


# ---------------------------------------------------------------------------
# named graphs and embeddings


def _complete_graph(n: int) -> Multigraph:
    return Multigraph(n, tuple(itertools.combinations(range(n), 2)))


@lru_cache(maxsize=None)
def named_graph(ident: str) -> Multigraph:
    """``k4``/``tetrahedron``, ``k5``, ``k33``, ``cube``, ``octahedron``,
    ``icosahedron``, ``dodecahedron``, ``triangle``/``c3``, and
    ``cycle:n``/``path:n`` for n >= 1."""
    name, params = split_ident(ident, GraphError)
    if name in ("cycle", "path"):
        if len(params) != 1 or params[0] < 1:
            raise GraphError(f"{name} needs one size n >= 1, got {ident!r}")
        (n,) = params
        if name == "cycle":
            return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))
        return Multigraph(n, tuple((i, i + 1) for i in range(n - 1)))
    if params:
        raise UnknownGraphName(f"unknown graph name {ident!r}")
    if name in ("k4", "tetrahedron"):
        return _complete_graph(4)
    if name == "k5":
        return _complete_graph(5)
    if name == "k33":
        edges = tuple((u, v) for u in range(3) for v in range(3, 6))
        return Multigraph(6, edges)
    if name == "cube":
        edges = tuple(
            (u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < u ^ (1 << b)
        )
        return Multigraph(8, edges)
    if name == "octahedron":
        skip = {(0, 1), (2, 3), (4, 5)}
        edges = tuple(e for e in itertools.combinations(range(6), 2) if e not in skip)
        return Multigraph(6, edges)
    if name in ("icosahedron", "dodecahedron"):
        edges = []
        for i in range(5):
            j = (i + 1) % 5
            if name == "icosahedron":  # apexes 0 and 11, pentagons 1-5 and 6-10
                edges += [(0, 1 + i), (1 + i, 1 + j), (1 + i, 6 + i), (1 + j, 6 + i), (6 + i, 6 + j), (6 + i, 11)]
            else:  # pentagons 0-4 and 15-19, joined through the 10-cycle 5-14
                edges += [(i, j), (i, 5 + 2 * i), (5 + 2 * i, 6 + 2 * i), (6 + 2 * i, 5 + 2 * j), (6 + 2 * i, 15 + i), (15 + i, 15 + j)]
        return Multigraph(12 if name == "icosahedron" else 20, tuple(sorted(tuple(sorted(e)) for e in edges)))
    if name == "triangle" or name == "c3":
        return Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    raise UnknownGraphName(f"unknown graph name {ident!r}")


def _one_vertex_surface(genus: int) -> Embedding:
    """One vertex, 2g loops in the classic aba'b'... rotation order."""
    edges = tuple((0, 0) for _ in range(2 * genus))
    rot = []
    for h in range(genus):
        a, b = 2 * h, 2 * h + 1
        rot += [(a, 0), (b, 0), (a, 1), (b, 1)]
    return Embedding(Multigraph(1, edges), (tuple(rot),))


@lru_cache(maxsize=None)
def named_embedding(ident: str) -> Embedding:
    """Named embeddings: ``torus``, ``genus:g`` (one vertex, 2g loops), and
    every named planar graph with the genus-0 rotation of
    ``find_planar_embedding``."""
    name, params = split_ident(ident, GraphError)
    if name == "torus" and not params:
        return _one_vertex_surface(1)
    if name == "genus":
        if len(params) != 1:
            raise GraphError(f"genus needs one parameter, got {ident!r}")
        return _one_vertex_surface(params[0])
    g = named_graph(ident)
    emb = find_planar_embedding(g)
    if emb is None:
        raise UnknownGraphName(f"no planar embedding available for {ident!r}")
    return emb


# ---------------------------------------------------------------------------
# text / JSON formats


_GRAPH_KEYS = {"v": 0, "e": 0, "rot": 1}

# Largest vertex count a graph or embedding file may declare; every
# vertex costs a rotation list and union-find slot before any check runs.
VERTEX_BOUND = 4096


def _graph_of(data) -> Multigraph:
    if isinstance(data, dict):
        nv = json_ints(data, "vertices", 0, GraphError)
        edges = json_ints(data, "edges", 2, GraphError)
    else:
        nv = None
        edges = []
        for key, vals in data:
            if key == "v":
                if len(vals) != 1:
                    raise GraphError("'v:' takes one vertex count")
                if nv is not None:
                    raise GraphError("more than one 'v:' line")
                (nv,) = vals
            elif key == "e":
                edges.append(vals)
        if nv is None:
            raise GraphError("missing 'v:' line")
    if nv > VERTEX_BOUND:
        raise GraphError(f"{nv} vertices exceed the bound {VERTEX_BOUND}")
    if any(len(e) != 2 for e in edges):
        raise GraphError("an edge takes two endpoints")
    return Multigraph(nv, tuple(edges))


def parse_graph(text: str) -> Multigraph:
    """Parse ``v:``/``e:`` lines or the JSON equivalent; ``rot`` lines are
    read and ignored."""
    return _graph_of(read_records(text, _GRAPH_KEYS, GraphError))


def parse_embedding(text: str) -> Embedding:
    """Parse a graph plus ``rot <vertex>: <signed 1-based edges>`` lines.

    +k is end 0 of edge k-1, -k is end 1; JSON uses explicit dart pairs.
    """
    data = read_records(text, _GRAPH_KEYS, GraphError)
    g = _graph_of(data)
    if isinstance(data, dict):
        rot = json_ints(data, "rotation", 3, GraphError)
        if any(len(d) != 2 for cyc in rot for d in cyc):
            raise GraphError("a dart is an [edge, end] pair")
        return Embedding(g, rot)
    rot: list[tuple[Dart, ...]] = [()] * g.vertex_count
    seen_rot = set()
    for key, vals in data:
        if key != "rot":
            continue
        v, refs = vals[0], vals[1:]
        if not 0 <= v < g.vertex_count:
            raise GraphError(f"rot vertex {v} outside 0..{g.vertex_count - 1}")
        if 0 in refs:
            raise GraphError("signed edge references are 1-based")
        if v in seen_rot:
            raise GraphError(f"more than one 'rot {v}:' line")
        rot[v] = tuple((abs(k) - 1, 0 if k > 0 else 1) for k in refs)
        seen_rot.add(v)
    if not {v for edge in g.edges for v in edge} <= seen_rot:
        raise GraphError("every vertex with incident edges needs a rot line")
    return Embedding(g, tuple(rot))


def embedding_to_text(emb: Embedding) -> str:
    lines = [f"v: {emb.graph.vertex_count}"]
    for u, v in emb.graph.edges:
        lines.append(f"e: {u} {v}")
    for v, cyc in enumerate(emb.rotation):
        toks = " ".join(str(e + 1) if s == 0 else str(-(e + 1)) for e, s in cyc)
        lines.append(f"rot {v}: {toks}")
    return "\n".join(lines) + "\n"
