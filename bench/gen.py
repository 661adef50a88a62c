"""Seeded input generators for the benchmark, each input labelled with its
answer by construction.

Everything here is plain data (vertex counts, edge lists, rotation lists,
basis lists, coordinate tuples) built with the standard library only.  The
library's own random helpers are not used, so a change to the library
cannot change the inputs a seed produces.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# graphs


def relabel_graph(rng: random.Random, n: int, edges):
    """Random vertex relabelling, edge order and edge orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return out


def outerplanar_chords(rng: random.Random, n: int, count: int):
    """``count`` pairwise non-crossing chords of the n-gon 0..n-1, taken
    from a random triangulation, so the result stays outerplanar."""
    chords = []

    def split(lo, hi):
        if hi - lo < 2:
            return
        k = rng.randint(lo + 1, hi - 1)
        for a, b in ((lo, k), (k, hi)):
            if b - a > 1:
                chords.append((a, b))
        split(lo, k)
        split(k, hi)

    split(0, n - 1)
    rng.shuffle(chords)
    return chords[:count]


def apex_over_outerplanar(rng: random.Random, outer: int, chords: int, apex_degree: int):
    """Planar by construction: an outerplanar graph has every vertex on its
    outer face, so one extra vertex placed there can reach any subset."""
    edges = [(i, (i + 1) % outer) for i in range(outer)]
    edges += outerplanar_chords(rng, outer, chords)
    edges += [(outer, v) for v in sorted(rng.sample(range(outer), apex_degree))]
    n = outer + 1
    return n, relabel_graph(rng, n, edges)


K5_EDGES = list(itertools.combinations(range(5), 2))
K33_EDGES = [(u, v) for u in range(3) for v in range(3, 6)]


def subdivided_kuratowski(rng: random.Random, base: str, subdivisions: int, extra: int = 0):
    """Non-planar by construction: a subdivision of K5 or K3,3, plus
    ``extra`` random edges between existing vertices (adding edges keeps a
    graph non-planar)."""
    n, edges = (5, list(K5_EDGES)) if base == "k5" else (6, list(K33_EDGES))
    for _ in range(subdivisions):
        i = rng.randrange(len(edges))
        u, v = edges.pop(i)
        edges += [(u, n), (n, v)]
        n += 1
    present = {frozenset(e) for e in edges}
    while extra:
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
            extra -= 1
    return n, relabel_graph(rng, n, edges)


def cactus(rng: random.Random, cycle_lengths, bridges: int):
    """Cycles glued at cut vertices plus bridges.  Its cycle matroid is a
    direct sum of circuits U(k-1, k) and coloops, hence transversal."""
    edges = []
    n = 1
    for k in cycle_lengths:
        attach = rng.randrange(n)
        ring = [attach] + list(range(n, n + k - 1))
        n += k - 1
        edges += [(ring[i], ring[(i + 1) % k]) for i in range(k)]
    for _ in range(bridges):
        edges.append((rng.randrange(n), n))
        n += 1
    return n, relabel_graph(rng, n, edges)


def spanning_forests(n: int, edges):
    """Bases of the cycle matroid: the edge sets of maximal spanning forests."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    rank = n - len({find(v) for v in range(n)})
    out = []
    for combo in itertools.combinations(range(len(edges)), rank):
        parent = list(range(n))
        ok = True
        for e in combo:
            a, b = find(edges[e][0]), find(edges[e][1])
            if a == b:
                ok = False
                break
            parent[a] = b
        if ok:
            out.append(combo)
    return out


# ---------------------------------------------------------------------------
# named matroids, as basis lists built here


def uniform(r: int, n: int):
    ground = list(range(1, n + 1))
    return ground, [list(c) for c in itertools.combinations(ground, r)]


FANO_LINES = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]


def fano():
    lines = {frozenset(t) for t in FANO_LINES}
    ground = list(range(1, 8))
    return ground, [list(c) for c in itertools.combinations(ground, 3) if frozenset(c) not in lines]


def cycle_matroid_data(n: int, edges):
    return list(range(len(edges))), [list(b) for b in spanning_forests(n, edges)]


def dual_data(ground, bases):
    g = set(ground)
    return list(ground), [sorted(g - set(b)) for b in bases]


def relabel_matroid(rng: random.Random, ground, bases, offset: int = 100):
    """Random injective relabelling onto offset.. labels; returns the data
    and the mapping old -> new."""
    new = rng.sample(range(offset, offset + 3 * len(ground)), len(ground))
    mapping = dict(zip(ground, new))
    return sorted(new), [sorted(mapping[e] for e in b) for b in bases], mapping


# ---------------------------------------------------------------------------
# embeddings


def plane_embedding(rng: random.Random, vertices: int, edges: int):
    """Grow a connected plane map by face-preserving steps: a pendant edge
    inside a face keeps the face count, a chord across one face splits it.
    Genus 0 by construction.  Returns (n, edges, rotation)."""
    es = [(0, 1)]
    rot = [[(0, 0)], [(0, 1)]]
    while len(rot) < vertices or len(es) < edges:
        face = rng.choice(faces_of(es, rot))
        if len(rot) < vertices and (len(es) >= edges or rng.random() < 0.55):
            d = face[rng.randrange(len(face))]
            u = es[d[0]][d[1]]
            w, e = len(rot), len(es)
            es.append((u, w))
            rot[u].insert(rot[u].index(d), (e, 0))
            rot.append([(e, 1)])
        else:
            da = face[rng.randrange(len(face))]
            db = face[rng.randrange(len(face))]
            u, w = es[da[0]][da[1]], es[db[0]][db[1]]
            e = len(es)
            es.append((u, w))
            rot[u].insert(rot[u].index(da), (e, 0))
            rot[w].insert(rot[w].index(db), (e, 1))
    return len(rot), es, [list(c) for c in rot]


def add_handles(rng: random.Random, n: int, edges, rotation, genus: int):
    """Insert a genus-``genus`` bouquet (loops a b a' b' per handle) into
    one corner of a vertex: the connected sum adds its genus exactly."""
    edges = list(edges)
    rotation = [list(c) for c in rotation]
    v = rng.randrange(n)
    pos = rng.randrange(len(rotation[v]) + 1)
    block = []
    for _ in range(genus):
        a, b = len(edges), len(edges) + 1
        edges += [(v, v), (v, v)]
        block += [(a, 0), (b, 0), (a, 1), (b, 1)]
    rotation[v][pos:pos] = block
    return n, edges, rotation


def faces_of(edges, rotation):
    """Face orbits of the dart permutation d -> rot_next(twin(d))."""
    nxt = {}
    for cyc in rotation:
        for i, d in enumerate(cyc):
            nxt[d] = cyc[(i + 1) % len(cyc)]
    faces, seen = [], set()
    for start in sorted(nxt):
        if start in seen:
            continue
        face, d = [], start
        while d not in seen:
            seen.add(d)
            face.append(d)
            d = nxt[(d[0], 1 - d[1])]
        faces.append(face)
    return faces


def embedding_text(n, edges, rotation) -> str:
    lines = [f"v: {n}"] + [f"e: {u} {v}" for u, v in edges]
    for v, cyc in enumerate(rotation):
        toks = " ".join(str(e + 1) if s == 0 else str(-(e + 1)) for e, s in cyc)
        lines.append(f"rot {v}: {toks}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# complexes with known GF(2) Betti numbers


TORUS7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]


def relabel_simplices(rng: random.Random, simplices, offset: int):
    verts = sorted({v for s in simplices for v in s})
    new = rng.sample(range(offset, offset + 4 * len(verts)), len(verts))
    m = dict(zip(verts, new))
    out = [sorted(m[v] for v in s) for s in simplices]
    rng.shuffle(out)
    return out


def complex_case(rng: random.Random, kind: str):
    """(maximal simplices, betti numbers) for one family known in closed form."""
    if kind == "sphere":  # boundary of a (d+1)-simplex: S^d
        d = rng.randint(1, 4)
        facets = list(itertools.combinations(range(d + 2), d + 1))
        return relabel_simplices(rng, facets, 1), tuple([1] + [0] * (d - 1) + [1])
    if kind == "torus":
        return relabel_simplices(rng, TORUS7, 1), (1, 2, 1)
    if kind == "circle":
        k = rng.randint(3, 9)
        return relabel_simplices(rng, [(i, (i + 1) % k) for i in range(k)], 1), (1, 1)
    if kind == "ball":  # a full simplex is contractible
        d = rng.randint(1, 5)
        return relabel_simplices(rng, [tuple(range(d + 1))], 1), tuple([1] + [0] * d)
    if kind == "two_spheres":  # disjoint union of two 2-spheres
        a = list(itertools.combinations(range(4), 3))
        b = [tuple(v + 4 for v in s) for s in itertools.combinations(range(4), 3)]
        return relabel_simplices(rng, a + b, 1), (2, 0, 2)
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# rational vectors and configurations


def rational(rng: random.Random, lo: int = -5, hi: int = 5, den: int = 3) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rat_text(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def vector_text(v) -> str:
    return ",".join(rat_text(Fraction(c)) for c in v)


def configuration(rng: random.Random, n: int, r: int):
    """n rational points of rank r with some dependencies planted: a few
    points are rational combinations of two others, or scaled copies.  The
    first r points drawn form a triangular matrix with a nonzero diagonal,
    so the configuration has full rank by construction."""
    pts = []
    for i in range(r):
        diag = rational(rng, 1, 5) * rng.choice((1, -1))
        pts.append(tuple(rational(rng) if j < i else (diag if j == i else Fraction(0)) for j in range(r)))
    while len(pts) < n:
        roll = rng.random()
        if roll < 0.25:
            a, b = rng.sample(pts, 2)
            s, t = rational(rng, -2, 2), rational(rng, -2, 2)
            pts.append(tuple(s * x + t * y for x, y in zip(a, b)))
        elif roll < 0.35:
            a = rng.choice(pts)
            s = rational(rng, 1, 3) * rng.choice((1, -1))
            pts.append(tuple(s * x for x in a))
        else:
            pts.append(tuple(rational(rng) for _ in range(r)))
    rng.shuffle(pts)
    return pts
