"""Multigraphs and rotation-system embeddings.

An embedding is a cyclic order of edge-ends ("darts") at every vertex.
Faces come from walking the permutation d -> rotation-successor of the
twin of d, so the face count, Euler characteristic and genus are defined
purely combinatorially.  Loops and parallel edges are first-class: dual
graphs generate them even from simple polyhedra.

Public darts are (edge_index, end) pairs with end 0 or 1; the dart (e, s)
sits at the endpoint edges[e][s].  The dual embedding keeps edge indices,
so "which dual edge crosses which primal edge" is the identity map.

Planarity runs on the graph itself, on its own vertex numbers and on
integer darts 2e + s (twin d ^ 1): path addition draws the faces of each
block, one integer face walk checks genus 0 on the rotation it returns,
and a non-planar graph's witness is the failing block itself when that
block is an exact subdivision of K5 or K3,3, else what is left after
deleting edges until a Kuratowski subdivision remains, only the
non-planar blocks being kept between deletion trials.  No matroid is
built on that path; cycle matroids serve the matroid side.
"""

from __future__ import annotations

import itertools
from collections import Counter
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
        n, edges = self.vertex_count, self.edges
        if type(n) is not int or n < 0:
            raise EndpointOutOfRange("vertex_count must be a nonnegative integer")
        if type(edges) is not tuple:
            raise GraphError(f"edges must be a tuple of (u, v) pairs, got {edges!r}")
        for i, uv in enumerate(edges):
            if type(uv) is not tuple or len(uv) != 2:
                raise GraphError(f"edge {i} must be a (u, v) pair of endpoints, got {uv!r}")
            u, v = uv
            if type(u) is not int or type(v) is not int:
                raise EndpointOutOfRange(f"edge {i} endpoints must be integers: {uv}")
            if not (0 <= u < n and 0 <= v < n):
                raise EndpointOutOfRange(f"edge {i} endpoint out of range: {uv}")

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
    """The multigraph of ``edge_list``, an iterable of two-endpoint
    iterables; anything else is refused with ``GraphError``."""
    try:
        edges = tuple((u, v) for u, v in edge_list)
    except (TypeError, ValueError):  # not iterable, or an edge that does not unpack into two
        raise GraphError(f"edge_list must be an iterable of (u, v) pairs, got {edge_list!r}") from None
    return Multigraph(vertex_count, edges)


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
        g, rotation = self.graph, self.rotation
        if type(rotation) is not tuple or len(rotation) != g.vertex_count:
            raise NonCellular("one rotation tuple required per vertex")
        seen: set[Dart] = set()
        for v, cyc in enumerate(rotation):
            if type(cyc) is not tuple:
                raise NonCellular(f"the rotation at vertex {v} must be a tuple of darts, got {cyc!r}")
            for d in cyc:
                if not (
                    isinstance(d, tuple)
                    and len(d) == 2
                    and type(d[0]) is type(d[1]) is int
                    and 0 <= d[0] < len(g.edges)
                    and d[1] in (0, 1)
                ):
                    raise NonCellular(f"bad dart {d!r} at vertex {v}")
                e, s = d
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


def _orbits(succ: list[int], label: list) -> list[tuple]:
    """Orbits of the permutation ``succ`` of darts 2e + s, each from its
    least dart, in dart order, with each dart d written as label[d]."""
    orbits = []
    seen = [False] * len(succ)
    for first in range(len(succ)):
        d, orbit = first, []
        while not seen[d]:
            seen[d] = True
            orbit.append(label[d])
            d = succ[d]
        if orbit:
            orbits.append(tuple(orbit))
    return orbits


def _face_orbits(edges: tuple[tuple[int, int], ...], rotation) -> list[tuple[Dart, ...]]:
    """Orbits of the face successor d -> rot_next(twin(d)), each from its
    least dart, in dart order.  The walk runs on darts 2e + s."""
    succ = [0] * (2 * len(edges))
    for cyc in rotation:
        for i, (e, s) in enumerate(cyc):  # (e, s) = rot_next((f, t))
            f, t = cyc[i - 1]
            succ[2 * f + 1 - t] = 2 * e + s
    return _orbits(succ, [(e, s) for e in range(len(edges)) for s in (0, 1)])


def _chi_by_component(g: Multigraph, starts: Iterable[int]) -> tuple[int, ...]:
    """V - E + F of each component of ``g``, whose faces start at the
    vertices ``starts``, one per face; an edgeless component bounds one
    region."""
    comp_of = g.component_of
    k = max(comp_of, default=-1) + 1
    v_c, e_c, f_c = [0] * k, [0] * k, [0] * k
    for c in comp_of:
        v_c[c] += 1
    for u, _ in g.edges:
        e_c[comp_of[u]] += 1
    for v in starts:
        f_c[comp_of[v]] += 1
    return tuple(v - e + (f if e else 1) for v, e, f in zip(v_c, e_c, f_c))


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
    chi_by_comp = _chi_by_component(g, [g.edges[face[0][0]][face[0][1]] for face in faces])
    k = len(chi_by_comp)
    genus_by_comp = tuple((2 - chi) // 2 for chi in chi_by_comp)
    chi = sum(chi_by_comp) - (k - 1)
    genus = genus_by_comp[0] if k == 1 else None
    face_count = sum(chi_by_comp) - g.vertex_count + len(g.edges)  # with one per edgeless component
    return TracedFaces(tuple(faces), face_count, k, chi, genus, chi_by_comp, genus_by_comp)


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
    """Rank/nullity of a genus-0 embedding against its dual.  On a valid
    connected ``Embedding`` each identity of ``duality_ok`` restates
    V - E + F = 2 - 2g with g = 0; any one failing makes it False."""

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
    """Oriented face walks of a plane embedding of the block whose edges
    are ``edges``, or None if it is not planar.  The block keeps the
    graph's vertex numbers 0..n-1, and the vertices it does not touch are
    skipped.  Dart d = 2e + s leaves ``edges[e][s]``; its twin is d ^ 1.
    A bridge has one face, a loop two.

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
    touched = sorted(set(tail))
    incident = {v: [] for v in touched}
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

    at_u0 = [False] * n
    at_u0[tail[0]] = True
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
            for x in touched:
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
    only after one integer walk of the faces of that final rotation gives
    V - E + F = 2 on every component (``_chi_by_component``).
    """
    return _plane_embedding(g)[0]


def _plane_embedding(g: Multigraph) -> tuple[Optional[Embedding], Optional[list[int]]]:
    """The search of ``find_planar_embedding`` on the graph's own vertex
    numbers and darts 2e + s: its embedding and None, or None and the
    edge indices of the first block that path addition cannot embed.
    Both are None only if the rotation fails the genus-0 check."""
    n, edges = g.vertex_count, g.edges
    tail = [v for uv in edges for v in uv]
    rot_next = [0] * len(tail)
    for es in _block_edges(n, edges):
        faces = _block_faces(n, [edges[e] for e in es])
        if faces is None:
            return None, es
        glob = [2 * e + s for e in es for s in (0, 1)]
        for face in faces:
            d = face[-1]
            for f in face:  # rot_next(reverse(d)) = succ(d)
                rot_next[glob[d] ^ 1] = glob[f]
                d = f
    rotation: list[list[int]] = [[] for _ in range(n)]
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
    succ = [0] * len(tail)  # the face successor d -> rot_next(twin(d)) of the final rotation
    for cyc in rotation:
        for i, d in enumerate(cyc):
            succ[cyc[i - 1] ^ 1] = d
    if any(chi != 2 for chi in _chi_by_component(g, [walk[0] for walk in _orbits(succ, tail)])):
        return None, None
    return emb, None


def _kuratowski_edges(n: int, edges) -> list[int]:
    """The positions in ``edges``, a block on vertices 0..n-1 that path
    addition cannot embed, left when each edge, in index order, is
    dropped if the rest stays non-planar: an edge-minimal non-planar
    subgraph, so a subdivision of K5 or K3,3 (Kuratowski).

    An exact subdivision is its own witness: if exactly five vertices have
    a degree other than 2, all of degree 4, or exactly six, all of degree
    3, every edge is kept at once.  The block contains a subdivision H of
    K5 or K3,3.  With five vertices of degree 3 or more, all of degree 4,
    H cannot be one of K3,3, which needs six, so it is one of K5 with
    these five as branch vertices, and it holds every edge at them; with
    six of degree 3, none of degree 4 or more, H is one of K3,3 in the
    same way.  Every inner vertex of H has degree 2, so H also holds every
    edge at its inner vertices.  An edge of the block outside H would then
    lead, the block being connected, to an edge outside H at a vertex of
    H; so H is the whole block.  It is edge-minimal non-planar, so the
    edge-by-edge deletion keeps every edge too: the result is the same.

    Otherwise runs of edges are tried together, the run doubling after a
    success and halving after a failure.  A run whose removal leaves a
    non-planar graph loses each of its edges one at a time too, because
    every graph in between contains that non-planar one; so the result is
    the edge-by-edge one.  After a success only the blocks that path
    addition cannot embed are kept.  A graph is non-planar exactly when
    one of its blocks is, and each block of a subgraph lies inside one
    block of the graph, so the edge-by-edge deletion would drop every edge
    of a planar block and make its other choices as before.  An edge kept
    after a failed trial lies in every non-planar subgraph, so from then
    on one block is non-planar and the kept prefix stays in place.  A
    trial graph, or one of its several blocks, with fewer than 5 vertices
    of degree 4 or more and 6 of degree 3 or more needs no path addition.
    """
    branch = [k for k in Counter(itertools.chain.from_iterable(edges)).values() if k != 2]
    if branch == [4] * 5 or branch == [3] * 6:
        return list(range(len(edges)))

    def nonplanar_blocks(trial: list[int]) -> list[int]:
        """The sorted positions in ``trial`` of its blocks that path addition cannot embed."""
        rest, out = [edges[e] for e in trial], []
        blocks = [] if _sparse(rest) else _block_edges(n, rest)
        for es in blocks:
            blk = [rest[k] for k in es]
            if (len(blocks) == 1 or not _sparse(blk)) and _block_faces(n, blk) is None:
                out += [trial[k] for k in es]
        return sorted(out)

    kept, i, run = list(range(len(edges))), 0, 1
    while i < len(kept):
        rest = nonplanar_blocks(kept[:i] + kept[i + run:])
        if rest:
            kept, run = rest, 2 * run
        elif run > 1:
            run //= 2
        else:
            i += 1
    return kept


def _sparse(edges) -> bool:
    """Whether too few vertices have degree 3 or more for a subdivision of
    K5 or K3,3: the fifth largest degree is below 4 and the sixth below 3."""
    top = sorted(Counter(itertools.chain.from_iterable(edges)).values(), reverse=True) + [0] * 6
    return top[4] < 4 and top[5] < 3


# Default edge cap of ``is_planar``, set by measured cost: on the 12 x 12
# grid (CPython 3.11, shared 2-vCPU x86-64 host, medians of 15 runs) a
# planar verdict takes 7 to 11 ms at 264 edges, and a Kuratowski witness
# with both diagonals of the middle cell added 0.05 to 0.075 s.
PLANAR_EDGE_BOUND = 256


def is_planar(g: Multigraph, bound: int = PLANAR_EDGE_BOUND) -> PlanarityReport:
    """Planarity by path addition, with explicit witnesses, for at most
    ``bound`` edges (else ``TooLarge``).

    The search of ``find_planar_embedding`` decides it: a planar verdict
    always carries a rotation system that an integer face walk has checked
    to be genus 0.  For a non-planar graph, the first block without a
    plane embedding is, or after edge deletion leaves, a Kuratowski
    subdivision (``_kuratowski_edges``; a block that already is one is
    kept whole without a deletion trial): 5 branch vertices make it
    M(K5), 6 make it M(K3,3).  Every step runs on the graph's own vertex
    numbers.  The negative witness deletes every other edge of the graph
    and contracts every edge of each subdivided path but the
    highest-indexed one.  On a graph that is itself a subdivision this
    contraction set is the lexicographically first one that leaves the
    minor, as the exhaustive minor scan of ``matroids.has_minor`` would
    find it.
    """
    if len(g.edges) > bound:
        raise TooLarge(f"planarity search capped at {bound} edges")
    emb, es = _plane_embedding(g)
    if emb is not None:
        note = "every block embeds by path addition; genus-0 rotation system exhibited"
        return PlanarityReport(True, None, None, None, emb, note)
    if es is None:
        raise GraphError("every block has a plane embedding, but their rotation is not genus 0")
    n, edges = g.vertex_count, g.edges
    kept = [es[k] for k in _kuratowski_edges(n, [edges[e] for e in es])]
    at: list[list[int]] = [[] for _ in range(n)]
    for e in kept:
        for v in edges[e]:
            at[v].append(e)
    branch = [v for v, at_v in enumerate(at) if len(at_v) > 2]
    cons, walked = [], set()
    for v in branch:
        for e in at[v]:
            if e in walked:
                continue
            path, w = [e], edges[e][edges[e][0] == v]
            while len(at[w]) == 2:  # follow the subdivided edge to its far branch vertex
                e = at[w][at[w][0] == e]
                path.append(e)
                w = edges[e][edges[e][0] == w]
            walked.update(path)
            cons += sorted(path)[:-1]
    name = "M(K5)" if len(branch) == 5 else "M(K3,3)"
    keep = set(kept)
    dels = tuple([e for e in range(len(edges)) if e not in keep])
    return PlanarityReport(False, name, dels, tuple(sorted(cons)), None, f"{name} minor found")


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
    """Biconnected components (``_block_edges``), each with its vertices
    renumbered from 0 in their order."""
    out = []
    for es in _block_edges(g.vertex_count, g.edges):
        vs = sorted({v for e in es for v in g.edges[e]})
        vmap = {v: i for i, v in enumerate(vs)}
        out.append(Block(tuple(vs), tuple(es), tuple([(vmap[u], vmap[v]) for u, v in map(g.edges.__getitem__, es)])))
    return out


def _block_edges(n: int, edges) -> list[list[int]]:
    """The edge indices of each biconnected component of the graph with
    vertices 0..n-1 and edge list ``edges``, each list sorted and the
    lists in sorted order; bridges and loops are single-edge blocks.  A
    depth-first search over darts 2e + s, whose twins are d ^ 1."""
    tail = [v for uv in edges for v in uv]
    adj: dict[int, list[int]] = {v: [] for v in set(tail)}  # only the vertices with darts
    edge_sets: list[list[int]] = []
    for d, v in enumerate(tail):
        if tail[d ^ 1] != v:
            adj[v].append(d)
        elif not d & 1:
            edge_sets.append([d >> 1])
    disc, low, estack, tick = [-1] * n, [0] * n, [], itertools.count()
    for root in adj:  # in any order: the blocks and their sorted lists do not depend on it
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
    return sorted(edge_sets)


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
