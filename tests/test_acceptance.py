"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run with ``pytest -v -s tests/test_acceptance.py`` to get one line per
criterion; every check is an exact integer/rational identity.
"""

import json
import random
import time
from fractions import Fraction

from dualities import algebras as A
from dualities import complexes as C
from dualities import graphs as G
from dualities import matroids as M
from dualities.cli import main as cli_main

from generators import disjoint_union_embeddings, random_cellular_embedding, random_planar_embedding


def _finish(num: int, name: str, budget: float, t0: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget, f"runtime {elapsed:.2f}s exceeds budget {budget}s"


def test_criterion_01_platonic_enumeration(capsys):
    t0 = time.perf_counter()
    code = cli_main(["graph", "platonic", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [(r["p"], r["q"], r["vertices"], r["edges"], r["faces"]) for r in rows] == [
        (3, 3, 4, 6, 4),
        (4, 3, 8, 12, 6),
        (3, 4, 6, 12, 8),
        (5, 3, 20, 30, 12),
        (3, 5, 12, 30, 20),
    ]
    for r in rows:
        p, q, v, e, f = r["p"], r["q"], r["vertices"], r["edges"], r["faces"]
        assert p * f == 2 * e
        assert q * v == 2 * e
        assert e * (2 * p - p * q + 2 * q) == 2 * p * q
        assert (p - 2) * (q - 2) < 4
    with capsys.disabled():
        _finish(1, "platonic enumeration", 0.1, t0)


def test_criterion_02_euler_duality_suite():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    for _ in range(100):
        emb = random_planar_embedding(rng, max_vertices=10, max_edges=20)
        traced = G.trace_faces(emb)
        v, e = emb.graph.vertex_count, len(emb.graph.edges)
        assert v - e + traced.face_count == 2
        rep = G.rank_nullity_duality_report(emb)
        assert rep.rank_dual == rep.nullity
        assert rep.nullity_dual == rep.rank
    for _ in range(20):
        k = rng.randint(2, 5)
        emb = disjoint_union_embeddings(
            [random_planar_embedding(rng, max_vertices=5, max_edges=8) for _ in range(k)]
        )
        traced = G.trace_faces(emb)
        assert traced.component_count == k
        assert traced.chi == 1 + k
    _finish(2, "euler/duality suite", 5.0, t0)


def test_criterion_03_matroid_duality_axioms():
    t0 = time.perf_counter()
    named = [
        M.named_matroid("fano"),
        M.named_matroid("fano_dual"),
        M.named_matroid("mk4"),
        M.named_matroid("mk5"),
        M.named_matroid("mk33"),
        M.named_matroid("uniform", (1, 1)),
        M.named_matroid("uniform", (2, 3)),
        M.named_matroid("uniform", (2, 4)),
        M.named_matroid("uniform", (3, 6)),
    ]
    rng = random.Random(3)
    graphic = []
    while len(graphic) < 50:
        nv = rng.randint(2, 6)
        edges = [(rng.randrange(v), v) for v in range(1, nv)]
        while len(edges) < rng.randint(nv - 1, 9):
            u, v = rng.randrange(nv), rng.randrange(nv)
            edges.append((min(u, v), max(u, v)))
        graphic.append(G.cycle_matroid(G.Multigraph(nv, tuple(edges))))
    for m in named + graphic:
        rep = M.check_duality_axioms(m)
        assert rep.involution_ok
        assert rep.ground_preserved_ok
        assert set(rep.delete_contract_ok) == set(m.ground)
        assert all(a and b for a, b in rep.delete_contract_ok.values())
    _finish(3, "matroid duality axioms", 30.0, t0)


def test_criterion_04_fano_classification():
    t0 = time.perf_counter()
    rep = M.classify(M.named_matroid("fano"))
    assert rep.binary is True
    assert rep.graphic is False
    assert rep.cographic is False
    assert rep.transversal is False
    assert rep.regular is False
    # every verdict carries an explicit witness: an excluded minor found,
    # or an exhausted-search certificate
    assert "exhaustive" in rep.witnesses["binary"]
    assert "minor" in rep.witnesses["graphic"]
    assert "minor" in rep.witnesses["cographic"]
    assert "minor" in rep.witnesses["regular"]
    assert "search" in rep.witnesses["transversal"]
    _finish(4, "fano classification", 60.0, t0)


def test_criterion_05_geometric_abstract_coherence():
    t0 = time.perf_counter()
    rng = random.Random(55)
    for _ in range(20):
        emb = random_planar_embedding(rng, max_vertices=8, max_edges=12)
        lhs = G.cycle_matroid(G.dual_embedding(emb).graph)
        rhs = G.cycle_matroid(emb.graph).dual()
        ok, _ = M.is_isomorphic(lhs, rhs)
        assert ok
    _finish(5, "geometric-abstract coherence", 60.0, t0)


def test_criterion_06_kuratowski():
    t0 = time.perf_counter()
    for name, obstruction in (("k5", "M(K5)"), ("k33", "M(K3,3)")):
        g = G.named_graph(name)
        rep = G.is_planar(g)
        assert not rep.planar
        assert rep.obstruction == obstruction
        assert rep.deletions is not None and rep.contractions is not None
        for drop in range(len(g.edges)):
            edges = tuple(e for i, e in enumerate(g.edges) if i != drop)
            sub = G.is_planar(G.Multigraph(g.vertex_count, edges))
            assert sub.planar
            assert sub.embedding is not None
            traced = G.trace_faces(sub.embedding)
            assert all(gc == 0 for gc in traced.genus_by_component)
    _finish(6, "kuratowski witnesses", 10.0, t0)


def test_criterion_07_euler_poincare():
    t0 = time.perf_counter()
    rng = random.Random(7)
    for _ in range(50):
        nv = rng.randint(1, 8)
        maximal = [
            rng.sample(range(nv), rng.randint(1, min(4, nv)))
            for _ in range(rng.randint(1, 10))
        ]
        k = C.make_complex(maximal)
        b = C.betti_numbers(k)
        assert sum((-1) ** i * x for i, x in enumerate(b)) == C.euler_char_complex(k)
    for n in range(6):
        chi = C.euler_char_complex(C.named_complex("sphere", (n,)))
        assert chi == (2 if n % 2 == 0 else 0)
    for g in range(5):
        k = C.named_complex("genus_surface", (g,))
        assert C.euler_char_complex(k) == 2 - 2 * g
        rep = C.index_sum_canonical(k)
        assert rep.index_sum == C.euler_char_complex(k)
    _finish(7, "euler-poincare", 30.0, t0)


def test_criterion_08_genus_duality():
    t0 = time.perf_counter()
    torus = C.genus_duality_check(G.named_embedding("torus"))
    assert (torus.vertices, torus.edges, torus.faces, torus.genus) == (1, 2, 1, 1)
    assert torus.virtual_vertices == 2 and torus.virtual_vertices_dual == 2
    assert torus.all_ok
    g2 = C.genus_duality_check(G.named_embedding("genus:2"))
    assert (g2.vertices, g2.edges, g2.faces, g2.genus) == (1, 4, 1, 2)
    assert g2.virtual_vertices == 3 and g2.virtual_vertices_dual == 3
    assert g2.all_ok
    rng = random.Random(8)
    for _ in range(20):
        emb = random_cellular_embedding(rng, rng.randint(2, 7), rng.randint(0, 6))
        rep = C.genus_duality_check(emb)
        assert 0 <= rep.genus <= 3
        assert rep.virtual_euler_ok
        assert rep.rank_exchange_ok and rep.nullity_exchange_ok
        assert rep.genus_law_ok
    _finish(8, "genus duality", 10.0, t0)


def test_criterion_09_division_algebras():
    t0 = time.perf_counter()
    for level in range(4):
        alg = A.cayley_dickson_algebra(level)
        rep = A.division_algebra_report(alg, sample_count=1000, seed=9)
        assert rep.norm_multiplicative, alg.name
        assert rep.alternative, alg.name
        assert rep.zero_divisor is None, alg.name
    sed = A.cayley_dickson_algebra(4)
    rep = A.division_algebra_report(sed, sample_count=0, seed=9)
    assert rep.zero_divisor is not None
    x, y = rep.zero_divisor
    zero = tuple(Fraction(0) for _ in range(16))
    assert x != zero and y != zero
    assert sed.multiply(x, y) == zero
    _finish(9, "division algebras", 10.0, t0)


def test_criterion_10_cross_products():
    t0 = time.perf_counter()
    cases = (
        ["j:2", "j:4", "j:6", "j:8"]
        + ["epsilon:3", "epsilon:4", "epsilon:5"]
        + ["three", "seven"]
        + ["triple8"]
    )
    for case_name in cases:
        rep = A.cross_axioms_report(A.cross_case(case_name), trials=200, seed=10)
        assert rep.orthogonality_ok, case_name
        assert rep.norm_identity_ok, case_name
        assert rep.multilinearity_ok, case_name
        assert rep.alternating_ok, case_name
        assert rep.basis_tuples == rep.n**rep.r
    _finish(10, "cross products", 30.0, t0)


def test_criterion_11_chirotope_bridge():
    t0 = time.perf_counter()
    rng = random.Random(11)
    produced = 0
    while produced < 20:
        n = rng.randint(3, 8)
        r = rng.randint(2, 3)
        pts = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(r)]
            for _ in range(n)
        ]
        try:
            ch = A.chirotope_of_configuration(pts)
        except A.RankDeficient:
            continue
        m = ch.support_matroid()  # raises if the axioms fail
        assert m.rank == r and m.ground == tuple(range(1, n + 1))
        produced += 1
    _finish(11, "chirotope bridge", 10.0, t0)
