"""Simplicial complexes, Betti numbers over GF(2), and surface checks.

Complexes are downward-closed families of nonempty vertex sets.  Betti
numbers use GF(2) boundary ranks, which is all the alternating-sum
identity with the simplex counts needs and sidesteps torsion.  The
genus-duality report reruns the planar rank/nullity exchange on
higher-genus embeddings after padding both vertex counts with the genus.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

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
    """Downward-closed family of nonempty simplices (vertex frozensets)."""

    simplices: frozenset[frozenset[int]]

    @cached_property
    def dimension(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    @cached_property
    def alpha(self) -> tuple[int, ...]:
        """Simplex counts by dimension, alpha[i] = number of i-simplices."""
        counts = [0] * (self.dimension + 1)
        for s in self.simplices:
            counts[len(s) - 1] += 1
        return tuple(counts)

    @cached_property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted({v for s in self.simplices for v in s}))

    @cached_property
    def maximal_simplices(self) -> tuple[frozenset[int], ...]:
        # downward closure: a simplex lies in a larger one iff it is a facet
        facets = {s - {v} for s in self.simplices for v in s}
        return tuple(sorted(self.simplices - facets, key=lambda s: (len(s), tuple(sorted(s)))))

    def simplices_of_dim(self, d: int) -> list[frozenset[int]]:
        return sorted(
            (s for s in self.simplices if len(s) == d + 1),
            key=lambda s: tuple(sorted(s)),
        )

    def to_json_dict(self) -> dict:
        return {"maximal": [sorted(s) for s in self.maximal_simplices]}


def make_complex(maximal_simplices: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Close the given simplices downward and build the complex; raises
    ``TooLarge`` once the closure would pass ``SIMPLEX_BOUND`` simplices."""
    maximal = [frozenset(int(v) for v in s) for s in maximal_simplices]
    maximal = [s for s in maximal if s]
    if not maximal:
        raise EmptyInput("need at least one nonempty simplex")
    closure: set[frozenset[int]] = set()
    for s in maximal:
        if (1 << len(s)) - 1 > SIMPLEX_BOUND:  # refused before any face is built
            raise TooLarge(f"a simplex on {len(s)} vertices has more than {SIMPLEX_BOUND} faces")
        elems = sorted(s)
        for k in range(1, len(elems) + 1):
            for sub in itertools.combinations(elems, k):
                closure.add(frozenset(sub))
        if len(closure) > SIMPLEX_BOUND:
            raise TooLarge(f"the closure has more than {SIMPLEX_BOUND} simplices")
    return SimplicialComplex(frozenset(closure))


def euler_char_complex(k: SimplicialComplex) -> int:
    """Alternating sum of the simplex counts, from dimension 0 up."""
    return sum((-1) ** i * a for i, a in enumerate(k.alpha))


def betti_numbers(k: SimplicialComplex) -> tuple[int, ...]:
    """GF(2) Betti numbers b_0..b_n from boundary-matrix ranks; the size
    of ``k`` is capped once, by ``SIMPLEX_BOUND`` in ``make_complex``."""
    n = k.dimension
    by_dim = [k.simplices_of_dim(d) for d in range(n + 1)]
    index = [
        {s: i for i, s in enumerate(simps)} for simps in by_dim
    ]
    ranks = [0] * (n + 2)
    for d in range(1, n + 1):
        cols = []
        for s in by_dim[d]:
            col = 0
            for face in itertools.combinations(sorted(s), d):
                col |= 1 << index[d - 1][frozenset(face)]
            cols.append(col)
        ranks[d] = gf2.rank_of_rows(cols)
    betti = tuple(
        k.alpha[d] - ranks[d] - ranks[d + 1] for d in range(n + 1)
    )
    return betti


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
    vertex link a single cycle.  One pass over the triangles counts them
    per edge and groups them by vertex, so the test is linear in the
    simplices: a vertex or an edge lies in a triangle exactly when it is
    a vertex or an edge of one."""
    if k.dimension != 2:
        return False
    edge_count: dict[tuple[int, int], int] = {}
    links: dict[int, list[tuple[int, int]]] = {}
    for t in k.simplices:
        if len(t) == 3:
            a, b, c = sorted(t)
            for e in ((a, b), (a, c), (b, c)):
                edge_count[e] = edge_count.get(e, 0) + 1
            for v, e in ((a, (b, c)), (b, (a, c)), (c, (a, b))):
                links.setdefault(v, []).append(e)
    for s in k.simplices:
        if len(s) == 1 and min(s) not in links:
            return False
        if len(s) == 2 and tuple(sorted(s)) not in edge_count:
            return False
    if any(c != 2 for c in edge_count.values()):
        return False
    # each link vertex w of v has degree 2, the count of triangles on the
    # edge vw, so the link is a union of cycles: it must be connected
    for link_edges in links.values():
        adj: dict[int, list[int]] = {}
        for a, b in link_edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        start = link_edges[0][0]
        seen = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(adj):
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
