import functools
import inspect
import itertools
import random
import time

import pytest

from dualities import complexes as C
from dualities import graphs as G
from dualities.gf2 import rank_of_rows

from generators import disjoint_union_embeddings, random_cellular_embedding


def naive_components(k):
    """Union-find over vertices through the 1-skeleton."""
    verts = list(k.vertices)
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s in k.simplices:
        vs = sorted(s)
        for a in vs[1:]:
            ra, rb = find(a), find(vs[0])
            if ra != rb:
                parent[ra] = rb
    return len({find(v) for v in verts})


def random_complex(rng, max_vertices=8):
    nv = rng.randint(1, max_vertices)
    maximal = []
    for _ in range(rng.randint(1, 10)):
        size = rng.randint(1, min(4, nv))
        maximal.append(rng.sample(range(nv), size))
    return C.make_complex(maximal)


# ---------------------------------------------------------------------------
# construction


def test_closure_of_triangle():
    k = C.make_complex([[1, 2, 3]])
    assert k.alpha == (3, 3, 1)


def test_hollow_triangle():
    k = C.make_complex([[1, 2], [2, 3], [1, 3]])
    assert k.alpha == (3, 3)


def test_tetrahedron_boundary():
    k = C.make_complex(itertools.combinations(range(4), 3))
    assert k.alpha == (4, 6, 4)


def test_empty_input():
    with pytest.raises(C.EmptyInput):
        C.make_complex([])
    with pytest.raises(C.EmptyInput):
        C.make_complex([[]])


def test_a_family_that_is_not_a_complex_is_refused_on_first_read():
    F = frozenset
    with pytest.raises(C.EmptyInput):
        C.SimplicialComplex(F()).dimension
    with pytest.raises(C.EmptyInput):
        C.SimplicialComplex(F({F(), F({1})})).alpha
    with pytest.raises(C.MissingFace, match=r"the face \[1\] is missing"):
        C.betti_numbers(C.SimplicialComplex(F({F({1, 2})})))
    # the lowest missing face is named: vertex 3, then the edge [1, 3]
    with pytest.raises(C.MissingFace, match=r"the face \[3\] is missing"):
        C.SimplicialComplex(F({F({1}), F({2}), F({1, 2, 3})})).vertices
    with pytest.raises(C.MissingFace, match=r"the face \[1, 3\] is missing"):
        C.is_closed_surface(C.SimplicialComplex(F({F({1}), F({2}), F({3}), F({1, 2}), F({1, 2, 3})})))
    with pytest.raises(C.MissingFace, match=r"the face \[0, 1, 2\] is missing"):
        C.SimplicialComplex(C.make_complex([range(4)]).simplices - {F({0, 1, 2})}).alpha


@pytest.mark.parametrize(
    "family",
    [
        frozenset({(1,), (2,), (1, 2)}),  # tuples, which would compare unequal to make_complex([[1, 2]])
        {frozenset({1})},  # a set, which cannot be hashed
        frozenset({frozenset({1}), (1,)}),
    ],
)
def test_a_family_must_be_a_frozenset_of_frozensets(family):
    with pytest.raises(C.ComplexError, match="frozenset of frozensets"):
        C.SimplicialComplex(family)


@pytest.mark.parametrize("vertices", [(1.5,), ("a", 1), (True,), (2, None)])
def test_a_simplex_vertex_must_be_an_int(vertices):
    F = frozenset
    family = F({F(vertices)} | {F({v}) for v in vertices})
    with pytest.raises(C.ComplexError, match="vertices must be integers"):
        C.SimplicialComplex(family).dimension
    with pytest.raises(C.ComplexError, match="vertices must be integers"):
        C.make_complex([vertices])


def test_make_complex_neither_truncates_nor_converts_vertices():
    with pytest.raises(C.ComplexError, match="not float"):
        C.make_complex([[1.7, 2.2]])
    with pytest.raises(C.ComplexError, match="not bool, str"):
        C.make_complex([["3", True]])
    with pytest.raises(C.ComplexError, match="not bool"):
        C.make_complex([[1, True]])


def test_closure_bound(monkeypatch):
    """A simplex whose faces alone pass the bound is refused before any
    face is built; otherwise the closure may grow up to the bound."""
    with pytest.raises(C.TooLarge, match="17 vertices"):
        C.make_complex([range(17)])
    monkeypatch.setattr(C, "SIMPLEX_BOUND", 14)
    assert len(C.make_complex([[1, 2, 3], [3, 4, 5]]).simplices) == 13
    assert len(C.make_complex([[1, 2, 3], [4, 5, 6]]).simplices) == 14
    with pytest.raises(C.TooLarge, match="closure"):
        C.make_complex([[1, 2, 3], [4, 5, 6], [7]])
    with pytest.raises(C.TooLarge, match="4 vertices"):
        C.make_complex([[1], [1, 2, 3, 4]])


def test_closure_idempotent():
    rng = random.Random(2)
    for _ in range(10):
        k = random_complex(rng)
        assert C.make_complex(k.maximal_simplices) == k


def naive_maximal(k):
    """The simplices in no larger simplex, by testing every pair."""
    out = [s for s in k.simplices if not any(s < t for t in k.simplices)]
    return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(s)))))


def test_maximal_simplices_match_the_definition():
    rng = random.Random(3)
    for _ in range(200):
        k = random_complex(rng)
        assert k.maximal_simplices == naive_maximal(k)


def test_table_readers_match_their_frozenset_definitions():
    rng = random.Random(4)
    for _ in range(300):
        k = random_complex(rng)
        sizes = [len(s) for s in k.simplices]
        assert k.dimension == max(sizes) - 1
        assert k.alpha == tuple(sizes.count(n) for n in range(1, max(sizes) + 1))
        assert k.vertices == tuple(sorted(set().union(*k.simplices)))
        for d in range(-1, k.dimension + 2):
            same_dim = [s for s in k.simplices if len(s) == d + 1]
            assert k.simplices_of_dim(d) == sorted(same_dim, key=sorted)


def test_face_table_is_built_once_whatever_is_read(monkeypatch):
    build = C.SimplicialComplex._faces.func
    calls = []

    def counting(self):
        calls.append(self)
        return build(self)

    table = functools.cached_property(counting)
    table.__set_name__(C.SimplicialComplex, "_faces")
    monkeypatch.setattr(C.SimplicialComplex, "_faces", table)
    for k in (C.named_complex("torus"), C.named_complex("sphere", (3,)), C.make_complex([[1, 2], [3]])):
        for _ in range(2):
            k.dimension, k.alpha, k.vertices, k.maximal_simplices, k.to_json_dict()
            [k.simplices_of_dim(d) for d in range(-1, k.dimension + 2)]
            C.betti_numbers(k), C.euler_char_complex(k), C.is_closed_surface(k)
        assert calls.count(k) == 1
    assert len(calls) == 3


def test_maximal_simplices_of_a_torus_grid_are_its_triangles():
    grid = torus_grid(8, 8)
    k = C.make_complex(grid)
    assert set(k.maximal_simplices) == {frozenset(t) for t in grid}
    assert len(k.maximal_simplices) == len(grid) == 128


# ---------------------------------------------------------------------------
# euler characteristic and betti numbers


def test_chi_examples():
    assert C.euler_char_complex(C.make_complex(itertools.combinations(range(4), 3))) == 2
    assert C.euler_char_complex(C.make_complex([[1, 2], [2, 3], [1, 3]])) == 0
    assert C.euler_char_complex(C.make_complex([[1, 2, 3]])) == 1


def test_betti_tetrahedron_boundary():
    k = C.make_complex(itertools.combinations(range(4), 3))
    assert C.betti_numbers(k) == (1, 0, 1)


def test_betti_torus():
    k = C.named_complex("torus")
    assert C.betti_numbers(k) == (1, 2, 1)
    assert C.euler_char_complex(k) == 0


def test_betti_two_hollow_triangles():
    k = C.make_complex([[1, 2], [2, 3], [1, 3], [4, 5], [5, 6], [4, 6]])
    assert C.betti_numbers(k) == (2, 2)


def test_betti_b0_counts_components():
    rng = random.Random(7)
    for _ in range(20):
        k = random_complex(rng)
        assert C.betti_numbers(k)[0] == naive_components(k)


def test_euler_poincare_random():
    rng = random.Random(12)
    for _ in range(30):
        k = random_complex(rng)
        b = C.betti_numbers(k)
        assert sum((-1) ** i * x for i, x in enumerate(b)) == C.euler_char_complex(k)


def ref_betti_numbers(k):
    """GF(2) ranks of boundary matrices whose rows and columns are found
    through frozenset-keyed indices, one sort of the simplices per
    dimension."""
    n = k.dimension
    by_dim = [sorted((s for s in k.simplices if len(s) == d + 1), key=sorted) for d in range(n + 1)]
    index = [{s: i for i, s in enumerate(simps)} for simps in by_dim]
    ranks = [0] * (n + 2)
    for d in range(1, n + 1):
        cols = []
        for s in by_dim[d]:
            col = 0
            for face in itertools.combinations(sorted(s), d):
                col |= 1 << index[d - 1][frozenset(face)]
            cols.append(col)
        ranks[d] = rank_of_rows(cols)
    return tuple(len(by_dim[d]) - ranks[d] - ranks[d + 1] for d in range(n + 1))


def test_betti_numbers_match_the_frozenset_reference():
    named = [C.named_complex("sphere", (n,)) for n in range(6)]
    named += [C.named_complex("genus", (g,)) for g in range(5)] + [C.named_complex("torus")]
    rng = random.Random(21)
    randoms = [random_complex(rng, max_vertices=9) for _ in range(250)]
    for k in named + [k for _, k in surface_cases()] + randoms:
        assert C.betti_numbers(k) == ref_betti_numbers(k), sorted(map(sorted, k.maximal_simplices))


def test_betti_numbers_are_capped_only_by_the_simplex_bound():
    assert list(inspect.signature(C.betti_numbers).parameters) == ["k"]
    with pytest.raises(C.TooLarge):
        C.make_complex([range(17)])  # 131,071 faces, past SIMPLEX_BOUND


def test_betti_numbers_of_a_60_by_60_torus_within_a_second():
    # 21,600 simplices, past the 5,000-simplex cap betti_numbers once had
    k = C.make_complex(torus_grid(60, 60))
    start = time.perf_counter()
    assert C.betti_numbers(k) == (1, 2, 1)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# named complexes


def test_sphere_parity():
    for n in range(6):
        chi = C.euler_char_complex(C.named_complex("sphere", (n,)))
        assert chi == (2 if n % 2 == 0 else 0)


def test_genus_surfaces():
    for g in range(5):
        k = C.named_complex("genus_surface", (g,))
        assert C.euler_char_complex(k) == 2 - 2 * g
        assert C.is_closed_surface(k)


def test_named_errors():
    with pytest.raises(C.UnknownName):
        C.named_complex("klein")
    with pytest.raises(C.BadParams):
        C.named_complex("sphere", (6,))
    with pytest.raises(C.BadParams):
        C.named_complex("genus_surface", (5,))


# ---------------------------------------------------------------------------
# canonical index field


def test_index_sum_tetrahedron():
    rep = C.index_sum_canonical(C.named_complex("sphere", (2,)))
    assert (rep.sources, rep.saddles, rep.sinks) == (4, 6, 4)
    assert rep.index_sum == 2


def test_index_sum_torus():
    rep = C.index_sum_canonical(C.named_complex("torus"))
    assert rep.index_sum == 0
    k = C.named_complex("torus")
    assert rep.sources == k.alpha[0]


def test_index_sum_genus2():
    assert C.index_sum_canonical(C.named_complex("genus_surface", (2,))).index_sum == -2


def test_index_sum_matches_chi_on_all_surfaces():
    for g in range(5):
        k = C.named_complex("genus_surface", (g,))
        assert C.index_sum_canonical(k).index_sum == C.euler_char_complex(k)


def test_index_sum_rejects_non_surface():
    with pytest.raises(C.NotASurface):
        C.index_sum_canonical(C.make_complex([[1, 2, 3]]))
    with pytest.raises(C.NotASurface):
        C.index_sum_canonical(C.named_complex("sphere", (3,)))


def ref_is_closed_surface(k):
    """Every simplex tested against every triangle, and the triangles
    scanned once per vertex for its link."""
    if k.dimension != 2:
        return False
    triangles = k.simplices_of_dim(2)
    tri_set = set(triangles)
    for s in k.simplices:
        if not any(s <= t for t in tri_set):
            return False
    edge_count = {}
    for t in triangles:
        for e in itertools.combinations(sorted(t), 2):
            edge_count[frozenset(e)] = edge_count.get(frozenset(e), 0) + 1
    if any(c != 2 for c in edge_count.values()):
        return False
    for v in k.vertices:
        link_edges = [tuple(sorted(t - {v})) for t in triangles if v in t]
        if not link_edges:
            return False
        deg = {}
        for a, b in link_edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if any(d != 2 for d in deg.values()):
            return False
        adj = {}
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


def torus_grid(w, h):
    """The w x h grid on the torus, each square cut along one diagonal;
    vertex (i, j) is i * h + j."""
    def v(i, j):
        return (i % w) * h + j % h

    tris = []
    for i in range(w):
        for j in range(h):
            tris.append((v(i, j), v(i + 1, j), v(i + 1, j + 1)))
            tris.append((v(i, j), v(i, j + 1), v(i + 1, j + 1)))
    return tris


def surface_cases():
    """Named complexes, grids and their broken variants, with the verdict
    each must get."""
    cases = [(f"sphere:{n}", C.named_complex("sphere", (n,))) for n in range(6)]
    cases += [(f"genus:{g}", C.named_complex("genus_surface", (g,))) for g in range(5)]
    grid = torus_grid(6, 6)
    cases.append(("torus 6x6", C.make_complex(grid)))
    # vertices 0 = (0, 0) and 21 = (3, 3) share no neighbour: identifying
    # them pinches the torus, and the link there is two disjoint hexagons
    pinched = [tuple(0 if x == 21 else x for x in t) for t in grid]
    cases.append(("pinched torus", C.make_complex(pinched)))
    # a disk: a fan of six triangles around 0, whose rim edges lie in one
    cases.append(("disk", C.make_complex([(0, i, i % 6 + 1) for i in range(1, 7)])))
    cases.append(("torus less a triangle", C.make_complex(grid[1:])))
    cases.append(("torus plus an edge", C.make_complex(grid + [(0, 99)])))
    cases.append(("torus plus a vertex", C.make_complex(grid + [(99,)])))
    cases.append(("two tetrahedra on a vertex", C.make_complex(
        list(itertools.combinations(range(4), 3)) + list(itertools.combinations((0, 4, 5, 6), 3))
    )))
    return cases


def test_is_closed_surface_matches_reference_on_named_and_broken_surfaces():
    verdicts = {}
    for name, k in surface_cases():
        verdicts[name] = C.is_closed_surface(k)
        assert verdicts[name] == ref_is_closed_surface(k), name
    assert verdicts["torus 6x6"] and verdicts["genus:4"] and verdicts["sphere:2"]
    assert not any(verdicts[name] for name in ("pinched torus", "disk", "torus less a triangle"))


def test_is_closed_surface_matches_reference_on_random_two_complexes():
    rng = random.Random(15)
    for _ in range(400):
        nv = rng.randint(3, 7)
        maximal = [rng.sample(range(nv), 3) for _ in range(rng.randint(1, 12))]
        maximal += [rng.sample(range(nv), rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        k = C.make_complex(maximal)
        assert C.is_closed_surface(k) == ref_is_closed_surface(k), maximal


def test_index_sum_on_a_large_torus_grid_is_fast(tmp_path, capsys):
    import json
    import time

    from dualities import cli

    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"maximal": torus_grid(40, 40)}))
    start = time.perf_counter()
    code = cli.main(["complex", "index-sum", str(path), "--json"])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out) == {
        "sources": 1600, "saddles": 4800, "sinks": 3200, "index_sum": 0
    }
    assert elapsed < 1.0  # 2.5 s when every simplex was tested against every triangle


def test_is_closed_surface_rejects_pinched():
    # two triangles sharing only a vertex: the link at the shared vertex
    # is two disjoint arcs, not a cycle
    k = C.make_complex([[0, 1, 2], [0, 3, 4]])
    assert not C.is_closed_surface(k)


# ---------------------------------------------------------------------------
# genus duality


def test_genus_duality_planar_degenerate():
    rep = C.genus_duality_check(G.named_embedding("tetrahedron"))
    assert rep.genus == 0
    assert rep.virtual_vertices == rep.vertices
    assert rep.all_ok


def test_genus_duality_torus():
    rep = C.genus_duality_check(G.named_embedding("torus"))
    assert (rep.vertices, rep.edges, rep.faces, rep.genus) == (1, 2, 1, 1)
    assert rep.virtual_vertices == 2 and rep.virtual_vertices_dual == 2
    assert rep.virtual_euler_ok and rep.all_ok


def test_genus_duality_genus2():
    rep = C.genus_duality_check(G.named_embedding("genus:2"))
    assert (rep.vertices, rep.edges, rep.faces, rep.genus) == (1, 4, 1, 2)
    assert rep.virtual_vertices == 3 and rep.virtual_vertices_dual == 3
    assert rep.all_ok


def test_genus_duality_random():
    rng = random.Random(42)
    for _ in range(20):
        emb = random_cellular_embedding(rng, rng.randint(2, 6), rng.randint(0, 6))
        rep = C.genus_duality_check(emb)
        assert rep.genus <= 3
        assert rep.all_ok


def test_genus_duality_rejects_disconnected():
    emb = disjoint_union_embeddings(
        [G.named_embedding("torus"), G.named_embedding("torus")]
    )
    with pytest.raises(G.NonCellular):
        C.genus_duality_check(emb)


# ---------------------------------------------------------------------------
# formats


def test_parse_complex_text():
    k = C.parse_complex("s: 1 2 3\ns: 2 3 4\n")
    assert k == C.make_complex([[1, 2, 3], [2, 3, 4]])


def test_parse_complex_json():
    import json

    k = C.named_complex("sphere", (2,))
    assert C.parse_complex(json.dumps(k.to_json_dict())) == k
