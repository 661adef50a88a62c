"""Seeded embedding generators for the property and acceptance tests.

    from generators import random_planar_embedding

Plane embeddings grown face by face (genus 0 by construction), random
rotation systems on connected multigraphs, and disjoint unions of
embeddings.
"""

from __future__ import annotations

import random

from dualities.graphs import Dart, Embedding, Multigraph, _face_orbits


def incident_darts(g: Multigraph) -> list[list[Dart]]:
    """Darts at each vertex in incidence order: by edge index, end 0 first."""
    incident: list[list[Dart]] = [[] for _ in range(g.vertex_count)]
    for e, (u, v) in enumerate(g.edges):
        incident[u].append((e, 0))
        incident[v].append((e, 1))
    return incident


class _PlaneBuilder:
    """Grow a connected plane embedding by face-preserving operations.

    Every operation keeps the embedding genus 0 by construction: adding
    a pendant vertex in a face leaves the face count unchanged, adding a
    chord between two corners of one face splits it in two.
    """

    def __init__(self):
        self.edges: list[tuple[int, int]] = [(0, 1)]
        self.rot: list[list[Dart]] = [[(0, 0)], [(0, 1)]]

    def faces(self) -> list[tuple[Dart, ...]]:
        return _face_orbits(tuple(self.edges), self.rot)

    def _vertex_of(self, d: Dart) -> int:
        return self.edges[d[0]][d[1]]

    def add_pendant(self, face: tuple[Dart, ...], pos: int) -> None:
        d = face[pos]
        u = self._vertex_of(d)
        w = len(self.rot)
        e = len(self.edges)
        self.edges.append((u, w))
        self.rot[u].insert(self.rot[u].index(d), (e, 0))
        self.rot.append([(e, 1)])

    def add_chord(self, face: tuple[Dart, ...], pos_a: int, pos_b: int) -> None:
        da, db = face[pos_a], face[pos_b]
        u, w = self._vertex_of(da), self._vertex_of(db)
        e = len(self.edges)
        self.edges.append((u, w))
        self.rot[u].insert(self.rot[u].index(da), (e, 0))
        self.rot[w].insert(self.rot[w].index(db), (e, 1))

    def embedding(self) -> Embedding:
        g = Multigraph(len(self.rot), tuple(self.edges))
        return Embedding(g, tuple(tuple(c) for c in self.rot))


def random_planar_embedding(
    rng: random.Random, max_vertices: int = 10, max_edges: int = 24
) -> Embedding:
    """A seeded random connected plane embedding (loops/parallels allowed)."""
    b = _PlaneBuilder()
    nv = rng.randint(2, max_vertices)
    ne = rng.randint(nv - 1, max_edges)
    while len(b.rot) < nv or len(b.edges) < ne:
        face = rng.choice(b.faces())
        can_grow_v = len(b.rot) < nv
        if can_grow_v and (len(b.edges) >= ne or rng.random() < 0.55):
            b.add_pendant(face, rng.randrange(len(face)))
        else:
            b.add_chord(face, rng.randrange(len(face)), rng.randrange(len(face)))
    return b.embedding()


def random_cellular_embedding(
    rng: random.Random, vertices: int = 5, extra_edges: int = 4
) -> Embedding:
    """A seeded random connected multigraph with a random rotation system.

    Nullity is vertices-1+extra_edges - (vertices-1) = extra_edges, so the
    genus is at most (extra_edges + 1) // 2.
    """
    edges = [(rng.randrange(v), v) for v in range(1, vertices)]
    for _ in range(extra_edges):
        u = rng.randrange(vertices)
        v = rng.randrange(vertices)
        edges.append((min(u, v), max(u, v)))
    g = Multigraph(vertices, tuple(edges))
    rot = []
    for darts in incident_darts(g):
        rng.shuffle(darts)
        rot.append(tuple(darts))
    return Embedding(g, tuple(rot))


def disjoint_union_embeddings(embs: list[Embedding]) -> Embedding:
    """Place embeddings side by side with offset vertex and edge indices."""
    edges: list[tuple[int, int]] = []
    rot: list[tuple[Dart, ...]] = []
    voff = 0
    for emb in embs:
        eoff = len(edges)
        for u, v in emb.graph.edges:
            edges.append((u + voff, v + voff))
        for cyc in emb.rotation:
            rot.append(tuple((e + eoff, s) for e, s in cyc))
        voff += emb.graph.vertex_count
    return Embedding(Multigraph(voff, tuple(edges)), tuple(rot))
