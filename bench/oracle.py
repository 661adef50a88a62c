"""Independent re-checks of the library's answers.

Nothing here imports ``dualities``: each verdict or witness is checked
with the benchmark's own small algorithms (face walk, graph contraction,
basis-family arithmetic, cofactor determinants, a doubling product), so a
bug shared by the library and its check cannot hide.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from gen import faces_of

# ---------------------------------------------------------------------------
# embeddings


def rotation_genera(n: int, edges, rotation):
    """Genus of each connected component of a rotation system, or None
    when the rotation is not a valid one for (n, edges)."""
    if len(rotation) != n:
        return None
    darts = set()
    for v, cyc in enumerate(rotation):
        for e, s in cyc:
            if not (0 <= e < len(edges)) or s not in (0, 1) or edges[e][s] != v or (e, s) in darts:
                return None
            darts.add((e, s))
    if len(darts) != 2 * len(edges):
        return None
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), [0, 0, 0])[0] += 1
    for u, _ in edges:
        comps[find(u)][1] += 1
    for face in faces_of(edges, rotation):
        e, s = face[0]
        comps[find(edges[e][s])][2] += 1
    out = []
    for v_c, e_c, f_c in comps.values():
        f_c = f_c or 1  # an isolated vertex bounds one region
        out.append((2 - (v_c - e_c + f_c)) // 2)
    return out


def planar_certificate_ok(n: int, edges, rotation) -> bool:
    g = rotation_genera(n, edges, [[tuple(d) for d in cyc] for cyc in rotation])
    return g is not None and all(x == 0 for x in g)


def kuratowski_minor(n: int, edges, deletions, contractions):
    """Apply a (deletions, contractions) witness to the graph and name the
    result, "K5" or "K33", or return None.  M(H) for a graph H equal to
    K5 or K3,3 after dropping isolated vertices is exactly M(K5) or
    M(K3,3), and both graphs are 3-connected, so by Whitney the graph
    check is the matroid check."""
    dels, cons = set(deletions), set(contractions)
    if dels & cons or not (dels | cons) <= set(range(len(edges))):
        return None
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in cons:
        a, b = find(edges[e][0]), find(edges[e][1])
        if a == b:
            return None  # dependent contraction
        parent[a] = b
    rest = [(find(u), find(v)) for i, (u, v) in enumerate(edges) if i not in dels | cons]
    pairs = {frozenset(p) for p in rest}
    if any(u == v for u, v in rest) or len(pairs) != len(rest):
        return None  # a loop or a parallel pair
    verts = sorted({v for p in rest for v in p})
    if len(verts) == 5 and len(rest) == 10:
        return "K5"
    if len(verts) == 6 and len(rest) == 9:
        adj = {v: {w for p in pairs if v in p for w in p if w != v} for v in verts}
        side = adj[verts[0]]
        other = set(verts) - side
        if len(side) == 3 and all(adj[v] == other for v in side) and all(adj[v] == side for v in other):
            return "K33"
    return None


# ---------------------------------------------------------------------------
# basis families


def family(bases):
    return {frozenset(b) for b in bases}


def maps_bases_onto(bases1, bases2, mapping) -> bool:
    if len(set(mapping.values())) != len(mapping):
        return False
    try:
        image = {frozenset(mapping[e] for e in b) for b in bases1}
    except KeyError:
        return False
    return image == family(bases2)


def minor_bases(ground, bases, deletions, contractions):
    """Bases of M / C \\ D, or None when C is dependent or the sets clash."""
    dels, cons = set(deletions), set(contractions)
    if dels & cons or not (dels | cons) <= set(ground):
        return None
    loops = set(ground) - set().union(*map(set, bases))
    dels |= cons & loops
    cons -= loops
    over = [frozenset(b) - cons for b in bases if cons <= set(b)]
    if not over:
        return None
    cut = [b - dels for b in over]
    best = max(len(b) for b in cut)
    keep = sorted(set(ground) - dels - cons)
    return keep, {b for b in cut if len(b) == best}


def isomorphic(ground1, bases1, ground2, bases2) -> bool:
    """Backtracking search for a ground bijection carrying bases onto bases,
    pruned by the number of bases through each element."""
    f1, f2 = family(bases1), family(bases2)
    if len(ground1) != len(ground2) or len(f1) != len(f2):
        return False
    deg1 = {e: sum(e in b for b in f1) for e in ground1}
    deg2 = {e: sum(e in b for b in f2) for e in ground2}
    if sorted(deg1.values()) != sorted(deg2.values()):
        return False
    order = sorted(ground1, key=lambda e: deg1[e])
    assign = {}

    def rec(i):
        if i == len(order):
            return maps_bases_onto(f1, f2, assign)
        e = order[i]
        for t in ground2:
            if deg2[t] == deg1[e] and t not in assign.values():
                assign[e] = t
                if rec(i + 1):
                    return True
                del assign[e]
        return False

    return rec(0)


def transversal_bases(ground, rank: int, presentation):
    """Bases of the transversal matroid of a set family: the rank-sized
    subsets with a system of distinct representatives."""
    sets = [set(s) for s in presentation]
    out = set()
    for combo in itertools.combinations(sorted(ground), rank):
        if any(all(combo[k] in sets[p[k]] for k in range(rank)) for p in itertools.permutations(range(len(sets)), rank)):
            out.add(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# exact arithmetic


def det(rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, a in enumerate(rows[0]):
        if a:
            sub = [row[:j] + row[j + 1 :] for row in rows[1:]]
            total += (-1) ** j * Fraction(a) * det(sub)
    return total


def chirotope_signs(points):
    """Signs of the maximal minors over sorted r-subsets of the points."""
    r = len(points[0])
    out = []
    for combo in itertools.combinations(range(len(points)), r):
        d = det([[Fraction(points[c][row]) for c in combo] for row in range(r)])
        out.append((d > 0) - (d < 0))
    return out


def perm_sign(seq) -> int:
    if len(set(seq)) != len(seq):
        return 0
    inversions = sum(1 for i, j in itertools.combinations(range(len(seq)), 2) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def epsilon_cross(vectors, n: int):
    """Component j: determinant of the arguments stacked over unit row j."""
    out = []
    for j in range(n):
        unit = [Fraction(int(c == j)) for c in range(n)]
        out.append(det([list(map(Fraction, v)) for v in vectors] + [unit]))
    return out


def complex_structure(v):
    out = []
    for k in range(0, len(v), 2):
        out += [-Fraction(v[k + 1]), Fraction(v[k])]
    return out


def hodge(components: dict, n: int):
    out = {}
    for key, coeff in components.items():
        comp = tuple(i for i in range(1, n + 1) if i not in key)
        out[comp] = out.get(comp, Fraction(0)) + perm_sign(key + comp) * Fraction(coeff)
    return out


def conj(x):
    return [x[0]] + [-c for c in x[1:]]


def cd_mul(x, y):
    """Doubling product (a,b)(c,d) = (ac - d*b, da + bc*) on lists of
    length 2^k, the rule the library documents for its tables."""
    n = len(x)
    if n == 1:
        return [x[0] * y[0]]
    h = n // 2
    a, b, c, d = x[:h], x[h:], y[:h], y[h:]
    left = [p - q for p, q in zip(cd_mul(a, c), cd_mul(conj(d), b))]
    right = [p + q for p, q in zip(cd_mul(d, a), cd_mul(b, conj(c)))]
    return left + right


FANO_TRIPLES = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]


def _fano_rules():
    """e_x e_y = +-e_z along each cyclic triple, anticommuting."""
    rules = {}
    for a, b, c in FANO_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            rules[(x, y)] = (1, z)
            rules[(y, x)] = (-1, z)
    return rules


_FANO = _fano_rules()


def fano_mul(x, y):
    """Octonion product from the seven cyclic Fano triples."""
    out = [Fraction(0)] * 8
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi and yj:
                if i == 0 or j == 0:
                    s, k = 1, i + j
                elif i == j:
                    s, k = -1, 0
                else:
                    s, k = _FANO[(i, j)]
                out[k] += s * xi * yj
    return out


def seven_cross(a, b):
    return fano_mul([Fraction(0)] + list(a), [Fraction(0)] + list(b))[1:]


def triple8(a, b, c):
    left = fano_mul(a, fano_mul(conj(b), c))
    right = fano_mul(c, fano_mul(conj(b), a))
    return [(p - q) / 2 for p, q in zip(left, right)]


def norm(x):
    return sum(c * c for c in x)
