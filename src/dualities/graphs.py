"""Multigraphs and rotation-system embeddings.

An embedding is a cyclic order of edge-ends ("darts") at every vertex.
Faces come from walking the permutation d -> rotation-successor of the
twin of d, so the face count, Euler characteristic and genus are defined
purely combinatorially.  Loops and parallel edges are first-class: dual
graphs generate them even from simple polyhedra.

Darts are (edge_index, end) pairs with end 0 or 1; the dart (e, s) sits
at the endpoint edges[e][s].  The dual embedding keeps edge indices, so
"which dual edge crosses which primal edge" is the identity map.

Planarity is decided on the graph itself: path addition draws the faces
of each block, and a non-planar graph's witness comes from deleting
edges until a Kuratowski subdivision is left.  No matroid is built on
that path; cycle matroids serve the matroid side of the library.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .formats import json_ints, read_records, split_ident
from .matroids import Matroid, TooManyBases, _from_masks
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
        if self.vertex_count < 0:
            raise EndpointOutOfRange("vertex_count must be nonnegative")
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise EndpointOutOfRange(f"edge {i} endpoint out of range: {(u, v)}")

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        parent = list(range(self.vertex_count))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in self.edges:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
        groups: dict[int, list[int]] = {}
        for v in range(self.vertex_count):
            groups.setdefault(find(v), []).append(v)
        return tuple(tuple(g) for g in sorted(groups.values()))

    @cached_property
    def component_of(self) -> tuple[int, ...]:
        out = [0] * self.vertex_count
        for ci, grp in enumerate(self.components):
            for v in grp:
                out[v] = ci
        return tuple(out)

    def degree(self, v: int) -> int:
        return sum((u == v) + (w == v) for u, w in self.edges)


def make_graph(vertex_count: int, edge_list: Iterable[tuple[int, int]]) -> Multigraph:
    return Multigraph(vertex_count, tuple((int(u), int(v)) for u, v in edge_list))


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
                if not (0 <= e < len(g.edges)) or s not in (0, 1):
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


def _face_orbits(
    edges: tuple[tuple[int, int], ...], rotation
) -> list[tuple[Dart, ...]]:
    rot_next = _rot_next(rotation)
    succ: dict[Dart, Dart] = {}
    for e in range(len(edges)):
        for s in (0, 1):
            succ[(e, s)] = rot_next[(e, 1 - s)]
    faces = []
    seen: set[Dart] = set()
    for d in sorted(succ):
        if d in seen:
            continue
        face = []
        cur = d
        while cur not in seen:
            seen.add(cur)
            face.append(cur)
            cur = succ[cur]
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
    k = len(g.components)
    v_c = [0] * k
    e_c = [0] * k
    f_c = [0] * k
    for v in range(g.vertex_count):
        v_c[comp_of[v]] += 1
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
    return TracedFaces(
        tuple(faces), sum(f_c), k, chi, genus, chi_by_comp, genus_by_comp
    )


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
    rotation = tuple(tuple(face) for face in traced.faces)
    return Embedding(Multigraph(len(traced.faces), edges), rotation)


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


def _incident_darts(g: Multigraph) -> list[list[Dart]]:
    """Darts at each vertex in incidence order: by edge index, end 0 first."""
    incident: list[list[Dart]] = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append((e, 0))
        incident[v].append((e, 1))
    return incident


def _block_faces(blk: Block) -> Optional[list[list[Dart]]]:
    """Oriented face walks of a plane embedding of a 2-connected loopless
    block, in block-local darts, or None if the block is not planar.

    Path addition (Demoucron, Malgrange and Pertuiset, 1964).  A cycle
    through edge 0, walked both ways, gives the first two faces.  A
    fragment is an unplaced edge between placed vertices, or a component
    of unplaced vertices with its edges to placed ones; its attachments
    are the placed vertices it touches, and it fits a face whose walk
    passes all of them.  If some fragment fits no face the block is not
    planar.  Otherwise a fragment that fits exactly one face, or failing
    that the first fragment, gets one path between two of its attachments
    a and b drawn through that face.  The face splits into its walk from a
    to b followed by the path reversed, and its walk from b to a followed
    by the path, so every edge stays walked once in each direction.
    """
    edges = blk.edges
    incident = _incident_darts(blk.graph)

    def head(d: Dart) -> int:
        return edges[d[0]][1 - d[1]]

    def bfs_path(a: int, enter, done) -> list[Dart]:
        """Shortest dart path from ``a``: every dart but the last passes
        ``enter`` into a new vertex, the last passes ``done``."""
        prev: dict[int, Optional[Dart]] = {a: None}
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
    face_at: list[set[int]] = [set() for _ in blk.vertices]
    used = set()
    for e, s in cycle:
        used.add(e)
        face_at[edges[e][s]] = {0, 1}
    while len(used) < len(edges):
        # fragments as (attachments, its edge or the index of its component)
        frags: list[tuple[set[int], object]] = [
            ({u, v}, (e, 0)) for e, (u, v) in enumerate(edges) if e not in used and face_at[u] and face_at[v]
        ]
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
        else:  # from the smallest attachment through the component to another
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


def find_planar_embedding(g: Multigraph) -> Optional[Embedding]:
    """A genus-0 rotation system of ``g``, or None if ``g`` is not planar.

    Each block is embedded on its own: a loop or a bridge directly, a
    larger block from the face walks that path addition (``_block_faces``)
    builds, with rotation successor rot_next(d) = succ(reverse(d)) for the
    face successor succ.  At a cut vertex the blocks' rotations are
    concatenated.  Each vertex's list starts at its first incident dart,
    and of the rotation and its mirror the one with the smaller key in
    incidence order is returned.  When the embedding is unique up to
    mirror image (a 3-connected graph, such as every named polyhedron),
    that is the first genus-0 rotation in incidence order.  The embedding
    is returned only after ``trace_faces`` gives genus 0 on every
    component.
    """
    return _plane_embedding(g)[0]


def _plane_embedding(g: Multigraph) -> tuple[Optional[Embedding], Optional[Block]]:
    """The search of ``find_planar_embedding``: its embedding and None,
    or None and the first block that path addition cannot embed.  Both
    are None only if every block embeds but the rotation fails the
    genus-0 check."""
    rot_next: dict[Dart, Dart] = {}
    for blk in blocks(g):
        if len(blk.edges) == 1:  # a loop turns to its other end, a bridge to itself
            (e,) = blk.edge_indices
            loop = blk.edges[0][0] == blk.edges[0][1]
            rot_next[(e, 0)], rot_next[(e, 1)] = ((e, 1), (e, 0)) if loop else ((e, 0), (e, 1))
            continue
        faces = _block_faces(blk)
        if faces is None:
            return None, blk
        for face in faces:
            for i, (e, s) in enumerate(face):  # rot_next(reverse(d)) = succ(d)
                f, t = face[(i + 1) % len(face)]
                rot_next[(blk.edge_indices[e], 1 - s)] = (blk.edge_indices[f], t)
    incident = _incident_darts(g)
    rotation = []
    for darts in incident:
        cyc: list[Dart] = []
        for d in darts:  # append each block's cycle at its first dart
            while d not in cyc:
                cyc.append(d)
                d = rot_next[d]
        rotation.append(cyc)
    mirror = [cyc[:1] + cyc[:0:-1] for cyc in rotation]
    pos = {d: i for darts in incident for i, d in enumerate(darts)}
    best = min(rotation, mirror, key=lambda rot: [[pos[d] for d in cyc] for cyc in rot])
    emb = Embedding(g, tuple(map(tuple, best)))
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
    edge-by-edge one.
    """
    n = len(blk.vertices)

    def nonplanar(kept: list[int]) -> bool:
        degree = [0] * n
        for e in kept:
            for v in blk.edges[e]:
                degree[v] += 1
        if sum(d > 3 for d in degree) < 5 and sum(d > 2 for d in degree) < 6:
            return False  # too few vertices of high degree to branch a K5 or K3,3
        h = Multigraph(n, tuple(blk.edges[e] for e in kept))
        return any(len(b.edges) > 1 and _block_faces(b) is None for b in blocks(h))

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


def is_planar(g: Multigraph, bound: int = 20) -> PlanarityReport:
    """Planarity by path addition, with explicit witnesses.

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
    at: dict[int, list[int]] = {}
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
            while len(at[w]) == 2:  # follow the subdivided edge to its far branch vertex
                e = at[w][at[w][0] == e]
                path.append(e)
                w = blk.edges[e][blk.edges[e][0] == w]
            walked.update(path)
            cons += sorted(path)[:-1]
    name = "M(K5)" if len(branch) == 5 else "M(K3,3)"
    keep = {blk.edge_indices[e] for e in kept}
    dels = tuple(e for e in range(len(g.edges)) if e not in keep)
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

    ``edges`` joins positions in ``vertices``; ``graph`` is that subgraph.
    """

    vertices: tuple[int, ...]
    edge_indices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def graph(self) -> Multigraph:
        return Multigraph(len(self.vertices), self.edges)


def blocks(g: Multigraph) -> list[Block]:
    """Biconnected components; bridges and loops are single-edge blocks."""
    n = g.vertex_count
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edge_sets: list[list[int]] = []
    for ei, (u, v) in enumerate(g.edges):
        if u == v:
            edge_sets.append([ei])
        else:
            adj[u].append((ei, v))
            adj[v].append((ei, u))

    disc = [-1] * n
    low = [0] * n
    time = 0
    estack: list[int] = []
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = time
        time += 1
        stack: list[list] = [[root, -1, 0]]
        while stack:
            v, pe, pos = stack[-1]
            if pos < len(adj[v]):
                stack[-1][2] += 1
                ei, w = adj[v][pos]
                if ei == pe:
                    continue
                if disc[w] == -1:
                    estack.append(ei)
                    disc[w] = low[w] = time
                    time += 1
                    stack.append([w, ei, 0])
                elif disc[w] < disc[v]:
                    estack.append(ei)
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] >= disc[u]:
                        blk = []
                        while True:
                            e = estack.pop()
                            blk.append(e)
                            if e == pe:
                                break
                        edge_sets.append(blk)

    out = []
    for es in sorted(edge_sets, key=min):
        vs = sorted({v for ei in es for v in g.edges[ei]})
        vmap = {v: i for i, v in enumerate(vs)}
        sub_edges = tuple((vmap[g.edges[ei][0]], vmap[g.edges[ei][1]]) for ei in sorted(es))
        out.append(Block(tuple(vs), tuple(sorted(es)), sub_edges))
    return out


def cycle_matroid(g: Multigraph, bound: int = matroids.GROUND_BOUND) -> Matroid:
    """Matroid on the edge indices whose bases are the spanning forests.

    The forests are grown edge by edge in index order: each step takes a
    later edge that joins two trees, never one so late that too few edges
    remain to reach the rank.  A union-find (union by size, no path
    compression) records the trees, and every union is undone on
    backtracking.  A branch also stops once it has skipped the last edge
    at a vertex that no taken edge covers, since every spanning forest
    covers each vertex with a non-loop edge.
    """
    ne = len(g.edges)
    if ne > bound:
        raise TooManyBases(f"{ne} edges exceed the matroid ground bound {bound}")
    r = graph_invariants(g).rank
    edges = g.edges
    parent = list(range(g.vertex_count))
    size = [1] * g.vertex_count
    left = [0] * g.vertex_count  # non-loop edges at each vertex not yet passed
    covered = [0] * g.vertex_count  # taken edges at each vertex
    for u, v in edges:
        if u != v:
            left[u] += 1
            left[v] += 1
    masks = []

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def grow(i: int, need: int, mask: int) -> None:
        j = i
        while j <= ne - need:
            a, b = edges[j]
            j += 1
            if a == b:
                continue
            left[a] -= 1
            left[b] -= 1
            u, v = root(a), root(b)
            if u != v:
                if size[u] > size[v]:
                    u, v = v, u
                parent[u] = v
                size[v] += size[u]
                if need == 1:
                    masks.append(mask | 1 << j - 1)
                else:
                    covered[a] += 1
                    covered[b] += 1
                    grow(j, need - 1, mask | 1 << j - 1)
                    covered[a] -= 1
                    covered[b] -= 1
                size[v] -= size[u]
                parent[u] = u
            if not (left[a] or covered[a]) or not (left[b] or covered[b]):
                break
        for a, b in edges[i:j]:
            if a != b:
                left[a] += 1
                left[b] += 1

    if r:
        grow(0, r, 0)
    else:
        masks.append(0)
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
