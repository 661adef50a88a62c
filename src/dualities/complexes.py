"""Simplicial complexes, Betti numbers over GF(2), and surface checks.

A complex is a downward-closed family of nonempty vertex sets, read
through one face table of its simplices by dimension.  Betti numbers use
GF(2) boundary ranks, which is all the alternating-sum identity with the
simplex counts needs and sidesteps torsion.  The genus-duality report
reruns the planar rank/nullity exchange on higher-genus embeddings after
padding both vertex counts with the genus.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import gf2
from . import graphs
from .formats import json_ints, read_records

# Most simplices a complex may have once closed downward; each is a
# frozenset, so the bound keeps a one-line input from exhausting memory.
SIMPLEX_BOUND = 1 << 16


class ComplexError(ValueError):
    """Base class for simplicial-complex failures."""


class EmptyInput(ComplexError):
    """No maximal simplices given."""


class MissingFace(ComplexError):
    """A face of a given simplex is not in the family."""


class TooLarge(ComplexError):
    """Simplex count exceeds the computation bound."""


class UnknownName(ComplexError):
    """Unrecognized named complex."""


class BadParams(ComplexError):
    """Named-complex parameter out of range."""


class NotASurface(ComplexError):
    """A closed triangulated surface was required."""


@dataclass(frozen=True)
class SimplicialComplex:
    """Nonempty, downward-closed family of nonempty simplices (frozensets
    of int vertices).  A family that is not a frozenset of frozensets is
    refused with ``ComplexError`` when the complex is built.  The rest is
    checked when its face table is built, on the first read: ``EmptyInput``
    for no simplex or an empty one, ``ComplexError`` for a vertex that is
    not an int and ``MissingFace`` for a facet of a simplex that is not in
    the family."""

    simplices: frozenset[frozenset[int]]

    def __post_init__(self):
        if type(self.simplices) is not frozenset or set(map(type, self.simplices)) - {frozenset}:
            raise ComplexError("a complex is a frozenset of frozensets of vertices")

    @cached_property
    def _faces(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """The one face table: entry d holds the d-simplices as sorted
        vertex tuples, in increasing order."""
        if not self.simplices or frozenset() in self.simplices:
            raise EmptyInput("a complex needs a simplex, and no empty one")
        vertices = set().union(*self.simplices)
        _check_vertices(vertices)
        by_size = itertools.groupby(sorted(self.simplices, key=len), len)
        levels = {n: tuple(sorted(map(tuple, map(sorted, level)))) for n, level in by_size}
        table = tuple(levels.get(n, ()) for n in range(1, max(levels) + 1))
        # closed downward: each vertex is a 0-simplex, and each facet of a
        # d-simplex, d >= 2, is a (d-1)-simplex; the first face missing in
        # each dimension is collected and the lowest named
        absent = [(v,) for v in sorted(vertices.difference(itertools.chain.from_iterable(table[0])))]
        for d in range(2, len(table)):
            known = set(table[d - 1]).__contains__
            absent += itertools.islice(itertools.filterfalse(known, _facets(table[d], d)), 1)
        if absent:
            raise MissingFace(f"the face {list(absent[0])} is missing: a complex is closed downward")
        return table

    @property
    def dimension(self) -> int:
        return len(self._faces) - 1

    @cached_property
    def alpha(self) -> tuple[int, ...]:
        """Simplex counts by dimension, alpha[i] = number of i-simplices."""
        return tuple(map(len, self._faces))

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(v for (v,) in self._faces[0])

    @cached_property
    def maximal_simplices(self) -> tuple[frozenset[int], ...]:
        # a d-simplex lies in a larger one iff it is a facet of a (d+1)-simplex
        faces = self._faces
        covered = [set(_facets(faces[d], d)) for d in range(1, len(faces))] + [set()]
        return tuple(frozenset(t) for level, cov in zip(faces, covered) for t in level if t not in cov)

    def simplices_of_dim(self, d: int) -> list[frozenset[int]]:
        return list(map(frozenset, self._faces[d])) if 0 <= d <= self.dimension else []

    def to_json_dict(self) -> dict:
        return {"maximal": [sorted(s) for s in self.maximal_simplices]}


def _facets(level: tuple[tuple[int, ...], ...], d: int) -> Iterator[tuple[int, ...]]:
    """The facets of the d-simplices in ``level``, each a sorted vertex tuple."""
    return itertools.chain.from_iterable(map(itertools.combinations, level, itertools.repeat(d)))


def _check_vertices(vertices: Iterable) -> None:
    """Raise ``ComplexError`` unless every vertex's type is ``int``, so no bool."""
    bad = set(map(type, vertices)) - {int}
    if bad:
        raise ComplexError(f"vertices must be integers, not {', '.join(sorted(t.__name__ for t in bad))}")


def make_complex(maximal_simplices: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Close the given simplices downward and build the complex; raises
    ``ComplexError`` for a vertex that is not an int and ``TooLarge``
    once the closure would pass ``SIMPLEX_BOUND`` simplices."""
    maximal = [tuple(s) for s in maximal_simplices]
    _check_vertices(itertools.chain.from_iterable(maximal))
    closure: set[tuple[int, ...]] = set()
    for s in maximal:
        elems = sorted(set(s))
        if (1 << len(elems)) - 1 > SIMPLEX_BOUND:  # refused before any face is built
            raise TooLarge(f"a simplex on {len(elems)} vertices has more than {SIMPLEX_BOUND} faces")
        for k in range(1, len(elems) + 1):
            closure.update(itertools.combinations(elems, k))
        if len(closure) > SIMPLEX_BOUND:
            raise TooLarge(f"the closure has more than {SIMPLEX_BOUND} simplices")
    if not closure:
        raise EmptyInput("need at least one nonempty simplex")
    return SimplicialComplex(frozenset(map(frozenset, closure)))


def euler_char_complex(k: SimplicialComplex) -> int:
    """Alternating sum of the simplex counts, from dimension 0 up."""
    return sum((-1) ** i * a for i, a in enumerate(k.alpha))


def betti_numbers(k: SimplicialComplex) -> tuple[int, ...]:
    """GF(2) Betti numbers b_0..b_n from boundary-matrix ranks; the size
    of ``k`` is capped once, by ``SIMPLEX_BOUND`` in ``make_complex``.
    A d-simplex's column has a bit per facet, at its place in the table."""
    faces = k._faces
    ranks = [0] * (len(faces) + 1)
    for d in range(1, len(faces)):
        bit = {f: 1 << i for i, f in enumerate(faces[d - 1])}
        ranks[d] = gf2.rank_of_rows(sum(map(bit.__getitem__, itertools.combinations(t, d))) for t in faces[d])
    return tuple(a - ranks[d] - ranks[d + 1] for d, a in enumerate(k.alpha))


# ---------------------------------------------------------------------------
# named complexes


def _torus_triangulation() -> list[tuple[int, int, int]]:
    """The classic 7-vertex triangulated torus."""
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 2) % 7, (i + 3) % 7))
    return tris


def _connected_sum(t1: list[frozenset[int]], t2: list[frozenset[int]]) -> list[frozenset[int]]:
    """Glue two triangulated surfaces along one removed triangle each."""
    offset = max(v for t in t1 for v in t) + 1
    t2 = [frozenset(v + offset for v in t) for t in t2]
    a = sorted(t1, key=lambda t: tuple(sorted(t)))[0]
    b = sorted(t2, key=lambda t: tuple(sorted(t)))[0]
    mapping = dict(zip(sorted(b), sorted(a)))
    glued = [
        frozenset(mapping.get(v, v) for v in t) for t in t2 if t != b
    ]
    return [t for t in t1 if t != a] + glued


def named_complex(name: str, params: tuple[int, ...] = ()) -> SimplicialComplex:
    """``sphere`` (n <= 5): boundary of the (n+1)-simplex.

    ``genus_surface`` or ``genus`` (g <= 4): the 7-vertex torus,
    connected-summed g times (g = 0 gives the tetrahedron boundary).
    """
    name = name.lower()
    if name == "sphere":
        if len(params) != 1:
            raise BadParams("sphere needs a dimension")
        (n,) = params
        if not 0 <= n <= 5:
            raise BadParams("sphere dimension must be 0..5")
        verts = range(n + 2)
        return make_complex(itertools.combinations(verts, n + 1))
    if name in ("genus_surface", "genus"):
        if len(params) != 1:
            raise BadParams("genus_surface needs a genus")
        (g,) = params
        if not 0 <= g <= 4:
            raise BadParams("genus must be 0..4")
        if g == 0:
            return named_complex("sphere", (2,))
        tris = [frozenset(t) for t in _torus_triangulation()]
        surface = tris
        for _ in range(g - 1):
            surface = _connected_sum(surface, tris)
        return make_complex(surface)
    if name == "torus":
        return named_complex("genus_surface", (1,))
    raise UnknownName(f"unknown complex name {name!r}")


# ---------------------------------------------------------------------------
# surfaces and the canonical index field


def is_closed_surface(k: SimplicialComplex) -> bool:
    """Pure 2-dimensional, every edge in exactly two triangles, and every
    vertex link a single cycle.  One pass over the triangles groups them
    by vertex; the link edge of a vertex is the triangle's opposite edge,
    so the links hold every triangle's edges once each.  Every vertex and
    edge of a triangle is a face, so equal counts with ``alpha`` mean that
    every vertex and edge lies in a triangle."""
    if k.dimension != 2:
        return False
    links: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for a, b, c in k._faces[2]:
        links[a].append((b, c))
        links[b].append((a, c))
        links[c].append((a, b))
    edge_count = Counter(itertools.chain.from_iterable(links.values()))
    if (len(links), len(edge_count)) != k.alpha[:2] or set(edge_count.values()) != {2}:
        return False
    # each link vertex w of v has degree 2, the count of triangles on the
    # edge vw, so the link is a union of cycles: walking the one through
    # its first vertex must visit every link vertex
    for link_edges in links.values():
        adj: dict[int, list[int]] = {}
        for a, b in link_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        start, x = link_edges[0]
        prev, length = start, 1
        while x != start:
            a, b = adj[x]
            prev, x = x, b if a == prev else a
            length += 1
        if length != len(adj):
            return False
    return True


@dataclass(frozen=True)
class IndexReport:
    """Critical-point counts of the canonical field on a surface:
    a source per vertex, a saddle per edge, a sink per triangle."""

    sources: int
    saddles: int
    sinks: int
    index_sum: int


def index_sum_canonical(k: SimplicialComplex) -> IndexReport:
    """Sum of +1 sources, -1 saddles, +1 sinks on a closed surface."""
    if not is_closed_surface(k):
        raise NotASurface("need a closed triangulated surface")
    a0, a1, a2 = k.alpha
    return IndexReport(a0, a1, a2, a0 - a1 + a2)


# ---------------------------------------------------------------------------
# genus duality with virtual vertices


@dataclass(frozen=True)
class GenusDualityReport:
    """Rank/nullity duality on a genus-g embedding after padding the
    vertex count and face count with g virtual vertices each.

    With the padded counts the planar identities return: padded V minus E
    plus padded V* equals 2, padded rank* equals padded nullity, and
    everything collapses back to chi + 2g = 2.
    """

    vertices: int
    edges: int
    faces: int
    genus: int
    virtual_vertices: int
    virtual_vertices_dual: int
    rank_aug: int
    nullity_aug: int
    rank_aug_dual: int
    nullity_aug_dual: int
    virtual_euler_ok: bool
    rank_exchange_ok: bool
    nullity_exchange_ok: bool
    genus_law_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.virtual_euler_ok
            and self.rank_exchange_ok
            and self.nullity_exchange_ok
            and self.genus_law_ok
        )


def genus_duality_check(emb: graphs.Embedding) -> GenusDualityReport:
    """Verify the virtual-vertex duality identities on any connected
    cellular embedding (genus read off from face tracing)."""
    traced = graphs.trace_faces(emb)
    if traced.component_count != 1:
        raise graphs.NonCellular("genus duality requires a connected embedding")
    v = emb.graph.vertex_count
    e = len(emb.graph.edges)
    f = traced.face_count
    g = traced.genus
    vv = v + g
    vv_dual = f + g
    rank_aug = vv - 1
    nullity_aug = e - rank_aug
    rank_aug_dual = vv_dual - 1
    nullity_aug_dual = e - rank_aug_dual
    return GenusDualityReport(
        vertices=v,
        edges=e,
        faces=f,
        genus=g,
        virtual_vertices=vv,
        virtual_vertices_dual=vv_dual,
        rank_aug=rank_aug,
        nullity_aug=nullity_aug,
        rank_aug_dual=rank_aug_dual,
        nullity_aug_dual=nullity_aug_dual,
        virtual_euler_ok=(vv - e + vv_dual == 2),
        rank_exchange_ok=(rank_aug_dual == nullity_aug),
        nullity_exchange_ok=(nullity_aug_dual == rank_aug),
        genus_law_ok=(v - e + f == 2 - 2 * g),
    )


# ---------------------------------------------------------------------------
# parsing


def parse_complex(text: str) -> SimplicialComplex:
    """Parse ``s: 1 2 3`` lines (one maximal simplex each) or JSON."""
    data = read_records(text, {"s": 0}, ComplexError)
    if isinstance(data, dict):
        return make_complex(json_ints(data, "maximal", 2, ComplexError))
    return make_complex(vals for _, vals in data)
