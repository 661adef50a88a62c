"""The three workloads: seeded queries, each with its label and re-check.

A query is an untimed ``prepare`` that builds fresh arguments, the timed
``call`` into the library, and an untimed ``check`` that compares the
outcome with the label fixed at generation time.  ``check`` returns None
when the outcome is right, else a one-line reason.  ``undecided`` marks
outcomes answered by a cap: a planar verdict without an embedding, a
``transversal=None`` classification, or a ``TooLarge`` refusal.

Calls look library functions up on their module at call time, so the
tracer's wrappers are seen.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import gen
import oracle

WORKLOADS = ("search", "algebra", "cli")


@dataclass
class Query:
    kind: str
    prepare: Callable[[], tuple]
    call: Callable
    check: Callable[[tuple], Optional[str]]
    undecided: Callable[[tuple], bool] = lambda outcome: False
    well_formed: bool = True  # False for the malformed cli inputs


def build(workload: str, seed: int, lib, workdir: str, tiny: bool = False) -> list[Query]:
    """The workload's queries for ``seed``; ``tiny`` keeps one of each shape.
    Named objects the workload uses are built here, so their caches are
    warm before the first timed call."""
    rng = random.Random(f"{workload}:{seed}")
    return {"search": _search, "algebra": _algebra, "cli": _cli}[workload](rng, lib, workdir, tiny)


def _count(n: int, tiny: bool) -> int:
    return 1 if tiny else n


def _raised(outcome, exc_type) -> bool:
    return outcome[0] == "raise" and isinstance(outcome[1], exc_type)


def _value(outcome):
    """The call's result; an unexpected exception becomes the reason."""
    if outcome[0] == "raise":
        exc = outcome[1]
        raise _Fail(f"raised {type(exc).__name__}: {exc}")
    return outcome[1]


class _Fail(Exception):
    pass


def _checked(fn):
    """Turn a checker that raises _Fail or returns a reason into one that
    always returns the reason (None when correct)."""

    def check(outcome):
        try:
            return fn(outcome)
        except _Fail as exc:
            return str(exc)
        except Exception as exc:  # a malformed result must count as wrong, not stop the run
            return f"result not checkable: {type(exc).__name__}: {exc}"

    return check


# ---------------------------------------------------------------------------
# search: planarity, classification, minors and isomorphism


# (outer cycle length, chords, apex degree, count): apex over an outerplanar
# graph, planar by construction, 6-9 vertices and 10-12 edges.  Nine-vertex
# shapes get no certificate today (the rotation search stops at 8).
PLANAR_SHAPES = [
    (5, 0, 5, 4), (5, 1, 4, 4), (5, 1, 5, 2),
    (6, 0, 4, 4), (6, 1, 4, 4), (6, 1, 5, 1),
    (7, 0, 3, 4), (7, 1, 3, 4), (7, 1, 4, 2),
    (8, 0, 3, 4), (8, 1, 3, 2),
]
# (Kuratowski graph, subdivisions, extra edges, count); more than 20 edges
# hits the default planarity bound and raises TooLarge.  An extra edge
# changes the cost of the exhaustive K5 search by up to 10x from seed to
# seed, so few shapes have one.
NONPLANAR_SHAPES = [
    ("k5", 1, 0, 9), ("k5", 2, 0, 7), ("k5", 1, 1, 1),
    ("k33", 1, 0, 9), ("k33", 2, 0, 7), ("k33", 2, 1, 1),
    ("k33", 12, 0, 1), ("k5", 11, 0, 1),
]
# classify inputs: (cycle lengths, bridges, dualize, count).  Cactus cycle
# matroids are direct sums of circuits and coloops: graphic, cographic and
# transversal.  Their duals are direct sums of parallel classes, likewise.
# The cost of a shape does not depend on the seed: every seed gives the same
# matroid up to relabelling.  The sixteen 5-element shapes (about 90 ms each)
# straddle decile 9 of the 175 queries, so latency_p90_ms does not depend on
# which random graphs a seed draws.  Six-element rank-5 shapes (2.4-3 s each in the
# realization search) and 7-element rank>=4 non-transversal inputs are left
# out for run length; the same code paths run on the shapes below.
CACTUS_SHAPES = [
    ((3,), 1, False, 2), ((3,), 2, False, 3), ((4,), 1, True, 3), ((5,), 0, True, 2),
    ((3,), 2, True, 3), ((4,), 1, False, 3), ((5,), 0, False, 2),
    ((3, 3), 0, False, 1), ((3, 3), 0, True, 1), ((3, 3), 1, False, 1), ((3, 4), 0, True, 1),
    ((4, 4), 0, False, 2), ((4, 4), 0, True, 1),  # 8 elements: transversal search capped
]
HAS_MINOR_CASES = [  # (host, target, label)
    ("mk5", "mk4", True), ("mk33", "mk4", True), ("fano", "mk4", True),
    ("fano_dual", "mk4", True), ("u36", "u24", True), ("fano", "u24", False),
    ("mk5", "fano", False), ("mk33", "fano", False), ("mk5", "mk33", False),
    ("mk33", "u24", False),
]
# The binary test that classify starts with: an exhaustive U(2,4) search on
# relabelled Fano matroids.  It costs the same on every seed (about 5.5 ms),
# and forty copies straddle the median of the 175 queries, so
# latency_p50_ms does not depend on the random graphs either.
BINARY_HOSTS = ("fano", "fano_dual")
BINARY_COPIES = 20
ISO_NAMES = ["mk4", "mk5", "mk33", "fano", "fano_dual", "u24", "u36"]
ISO_NEGATIVE = [("mk4", "u36"), ("fano", "fano_dual"), ("mk5", "mk33")]


def _named_data():
    """Named matroids as basis lists built by the benchmark itself."""
    k4 = list(itertools.combinations(range(4), 2))
    return {
        "mk4": gen.cycle_matroid_data(4, k4),
        "mk5": gen.cycle_matroid_data(5, gen.K5_EDGES),
        "mk33": gen.cycle_matroid_data(6, gen.K33_EDGES),
        "fano": gen.fano(),
        "fano_dual": gen.dual_data(*gen.fano()),
        "u24": gen.uniform(2, 4),
        "u36": gen.uniform(3, 6),
    }


def _library_named(lib, name):
    if name.startswith("u"):
        return lib.matroids.named_matroid("uniform", (int(name[1]), int(name[2])))
    return lib.matroids.named_matroid(name)


def _fresh(lib, m):
    """A new Matroid instance on the same data, so no cached property
    computed in an earlier round is reused."""
    return lambda: (lib.matroids.Matroid(m.ground, m.bases),)


def _search(rng, lib, workdir, tiny):
    M, G = lib.matroids, lib.graphs
    for name in ("mk4", "mk5", "mk33", "fano", "fano_dual", "u24", "u36"):
        _library_named(lib, name)  # is_planar and classify use them as targets
    named = _named_data()
    queries = []

    def planar_query(n, edges, certify):
        def check(outcome):
            rep = _value(outcome)
            if not rep.planar:
                return "planar graph reported non-planar"
            if rep.embedding is not None:
                emb = rep.embedding
                if emb.graph.vertex_count != n or list(emb.graph.edges) != edges:
                    return "certificate is for another graph"
                if not oracle.planar_certificate_ok(n, edges, emb.rotation):
                    return "certificate is not a genus-0 rotation system"
            return None

        return Query(
            "is_planar:planar" if certify else "is_planar:uncertified",
            lambda: (G.Multigraph(n, tuple(edges)),),
            lambda g: lib.graphs.is_planar(g),
            _checked(check),
            lambda o: o[0] == "ok" and o[1].embedding is None,
        )

    def nonplanar_query(n, edges):
        capped = len(edges) > 20

        def check(outcome):
            if capped and _raised(outcome, G.TooLarge):
                return None
            rep = _value(outcome)
            if rep.planar:
                return "non-planar graph reported planar"
            got = oracle.kuratowski_minor(n, edges, rep.deletions, rep.contractions)
            if got is None:
                return f"witness {rep.deletions}/{rep.contractions} gives neither K5 nor K3,3"
            return None

        return Query(
            "is_planar:capped" if capped else "is_planar:nonplanar",
            lambda: (G.Multigraph(n, tuple(edges)),),
            lambda g: lib.graphs.is_planar(g),
            _checked(check),
            lambda o: _raised(o, G.TooLarge),
        )

    for outer, chords, apex, count in PLANAR_SHAPES:
        for _ in range(_count(count, tiny)):
            n, edges = gen.apex_over_outerplanar(rng, outer, chords, apex)
            queries.append(planar_query(n, edges, n <= 8))
    for base, sub, extra, count in NONPLANAR_SHAPES:
        for _ in range(_count(count, tiny)):
            queries.append(nonplanar_query(*gen.subdivided_kuratowski(rng, base, sub, extra)))

    # classification
    def classify_query(ground, bases, label):
        m = M.make_matroid(ground, bases)
        data = (ground, bases)

        def check(outcome):
            rep = _value(outcome)
            got = {k: getattr(rep, k) for k in ("binary", "regular", "graphic", "cographic")}
            want = {k: label[k] for k in got}
            if got != want:
                return f"profile {got} != {want}"
            if rep.transversal not in (None, label["transversal"]):
                return f"transversal {rep.transversal} != {label['transversal']}"
            return _classify_witnesses(rep, data)

        return Query(
            "classify",
            _fresh(lib, m),
            lambda mm: lib.matroids.classify(mm),
            _checked(check),
            lambda o: o[0] == "ok" and o[1].transversal is None,
        )

    for cycles, bridges, dualize, count in CACTUS_SHAPES:
        for _ in range(_count(count, tiny)):
            n, edges = gen.cactus(rng, cycles, bridges)
            ground, bases = gen.cycle_matroid_data(n, edges)
            if dualize:
                ground, bases = gen.dual_data(ground, bases)
            ground, bases, _ = gen.relabel_matroid(rng, ground, bases)
            label = dict(binary=True, regular=True, graphic=True, cographic=True, transversal=True)
            queries.append(classify_query(ground, bases, label))
    g, b, _ = gen.relabel_matroid(rng, *named["fano"])
    queries.append(classify_query(g, b, dict(binary=True, regular=False, graphic=False, cographic=False, transversal=False)))
    g, b, _ = gen.relabel_matroid(rng, *named["mk4"])
    queries.append(classify_query(g, b, dict(binary=True, regular=True, graphic=True, cographic=True, transversal=False)))

    # minors and isomorphism on relabelled named matroids
    def has_minor_query(host, target, label):
        g, b, mapping = gen.relabel_matroid(rng, *named[host])
        m = M.relabel(_library_named(lib, host), mapping)
        tg, tb = named[target]
        t = _library_named(lib, target)

        def check(outcome):
            found, wit = _value(outcome)
            if found != label:
                return f"has_minor {found}, expected {label}"
            if found:
                minor = oracle.minor_bases(g, b, wit[0], wit[1])
                if minor is None or not oracle.isomorphic(minor[0], minor[1], tg, tb):
                    return f"witness {wit} does not give the target"
            return None

        return Query("has_minor", _fresh(lib, m), lambda mm: lib.matroids.has_minor(mm, t), _checked(check))

    def iso_query(left, right, label):
        g1, b1, map1 = gen.relabel_matroid(rng, *named[left])
        g2, b2, map2 = gen.relabel_matroid(rng, *named[right], offset=500)
        m1 = M.relabel(_library_named(lib, left), map1)
        m2 = M.relabel(_library_named(lib, right), map2)

        def check(outcome):
            ok, bij = _value(outcome)
            if ok != label:
                return f"is_isomorphic {ok}, expected {label}"
            if ok and not oracle.maps_bases_onto(b1, b2, bij):
                return "bijection does not carry bases onto bases"
            return None

        return Query(
            "is_isomorphic",
            lambda: (M.Matroid(m1.ground, m1.bases), M.Matroid(m2.ground, m2.bases)),
            lambda a, b: lib.matroids.is_isomorphic(a, b),
            _checked(check),
        )

    for _ in range(_count(2, tiny)):
        for host, target, label in HAS_MINOR_CASES:
            queries.append(has_minor_query(host, target, label))
    for _ in range(_count(BINARY_COPIES, tiny)):
        for host in BINARY_HOSTS:
            queries.append(has_minor_query(host, "u24", False))
    for _ in range(_count(2, tiny)):
        for name in ISO_NAMES:
            queries.append(iso_query(name, name, True))
    for left, right in ISO_NEGATIVE:
        queries.append(iso_query(left, right, False))
    return queries


_MINOR_WITNESS = re.compile(r"^(\S+) minor at deletions=(\(.*?\)) contractions=(\(.*?\))$")
_GRAPH_WITNESS = re.compile(r"^cycle matroid of graph with edges (\[.*\])$")
_TARGET_DATA = {
    "U(2,4)": lambda: gen.uniform(2, 4),
    "fano": gen.fano,
    "fano_dual": lambda: gen.dual_data(*gen.fano()),
    "dual(M(K5))": lambda: gen.dual_data(*gen.cycle_matroid_data(5, gen.K5_EDGES)),
    "dual(M(K3,3))": lambda: gen.dual_data(*gen.cycle_matroid_data(6, gen.K33_EDGES)),
}


def _classify_witnesses(rep, data) -> Optional[str]:
    """Re-check the witnesses whose text has a known shape: an excluded
    minor at (deletions, contractions), a realizing graph, a transversal
    presentation.  Other wording is left to the verdict check."""
    ground, bases = data
    rank = len(bases[0])
    for key, text in rep.witnesses.items():
        host = (ground, bases) if key != "cographic" else gen.dual_data(ground, bases)
        hit = _MINOR_WITNESS.match(text)
        if hit and hit.group(1) in _TARGET_DATA:
            dels, cons = ast.literal_eval(hit.group(2)), ast.literal_eval(hit.group(3))
            minor = oracle.minor_bases(host[0], host[1], dels, cons)
            tg, tb = _TARGET_DATA[hit.group(1)]()
            if minor is None or not oracle.isomorphic(minor[0], minor[1], tg, tb):
                return f"{key} witness {text!r} does not give the minor"
            continue
        hit = _GRAPH_WITNESS.match(text)
        if hit and key in ("graphic", "cographic"):
            edges = ast.literal_eval(hit.group(1))
            nv = 1 + max((max(e) for e in edges), default=0)
            gg, gb = gen.cycle_matroid_data(nv, edges)
            if not oracle.isomorphic(gg, gb, host[0], host[1]):
                return f"{key} witness graph does not realize the matroid"
    if rep.transversal:
        text = rep.witnesses.get("transversal", "")
        sets = re.findall(r"\{([^}]*)\}", text)
        pres = [[int(t) for t in s.split()] for s in sets]
        if pres and oracle.transversal_bases(ground, rank, pres) != oracle.family(bases):
            return "transversal presentation does not give the bases"
    return None


# ---------------------------------------------------------------------------
# algebra: division algebras, cross products, chirotopes

# (algebra, is a division algebra, copies with different sample seeds)
DIVISION_ALGEBRAS = [("h", True, 4), ("o", True, 2), ("o-fano", True, 2), ("sedenion", False, 2)]
DIVISION_SAMPLES = 12
CROSS_CASES = ["three", "seven", "epsilon:2", "epsilon:3", "epsilon:4", "j:2", "j:4", "j:6", "j:8", "triple8"]
CROSS_TRIALS = 8
# (points, rank, count) for chirotope configurations
CHIROTOPE_SHAPES = [(4, 2, 14), (6, 2, 12), (5, 3, 18), (7, 3, 12), (6, 4, 8)]
CROSS_PRODUCT_CASES = [("three", 8), ("seven", 8), ("epsilon:4", 8), ("j:6", 6), ("triple8", 10)]
# The reports cost the same on every seed, and 20 of them take longer than
# any chirotope or single product.  With 134 queries, decile 9 falls among
# the four H reports (about 16 ms), so latency_p90_ms depends neither on the
# random draws nor on which of two neighbouring report kinds runs faster.


def _algebra(rng, lib, workdir, tiny):
    A = lib.algebras
    A.fano_octonion_algebra()  # the seven and triple8 cross products use it
    queries = []

    def division_query(name, division, sample_seed):
        alg = A.algebra_by_name(name)
        dim = alg.dim
        mul = oracle.cd_mul if name != "o-fano" else oracle.fano_mul

        def check(outcome):
            rep = _value(outcome)
            if rep.dim != dim or rep.samples != DIVISION_SAMPLES or rep.seed != sample_seed:
                return "report does not echo its inputs"
            if division:
                if not (rep.norm_multiplicative and rep.alternative and rep.zero_divisor is None):
                    return f"{name} must compose norms, be alternative and have no zero divisor"
                return None
            if rep.norm_multiplicative or rep.alternative or rep.zero_divisor is None:
                return "sedenions must fail composition and alternativity and have a zero divisor"
            x, y = (list(v) for v in rep.zero_divisor)
            if not any(x) or not any(y) or any(mul(x, y)):
                return "zero-divisor witness does not multiply to zero"
            x, y = (list(v) for v in rep.norm_witness)
            if oracle.norm(mul(x, y)) == oracle.norm(x) * oracle.norm(y):
                return "norm witness composes"
            x, y = (list(v) for v in rep.alternative_witness)
            xx = mul(x, x)
            if mul(xx, y) == mul(x, mul(x, y)) and mul(mul(y, x), x) == mul(y, xx):
                return "alternativity witness is alternative"
            return None

        return Query(
            "division_algebra_report",
            lambda: (alg,),
            lambda a: lib.algebras.division_algebra_report(a, sample_count=DIVISION_SAMPLES, seed=sample_seed),
            _checked(check),
        )

    def cross_axioms_query(ident, trial_seed):
        case = A.cross_case(ident)

        def check(outcome):
            rep = _value(outcome)
            if not rep.all_ok or rep.witness is not None:
                return f"{ident}: axioms are theorems, report says {rep.witness}"
            want = case.n ** case.r if case.n ** case.r <= 5000 else 0
            if rep.basis_tuples != want or rep.trials != CROSS_TRIALS or rep.seed != trial_seed:
                return "report does not echo its inputs"
            return None

        return Query(
            "cross_axioms_report",
            lambda: (case,),
            lambda c: lib.algebras.cross_axioms_report(c, trials=CROSS_TRIALS, seed=trial_seed),
            _checked(check),
        )

    def cross_query(ident):
        case = A.cross_case(ident)
        vectors = [tuple(gen.rational(rng) for _ in range(case.n)) for _ in range(case.r)]

        def check(outcome):
            got, want = list(_value(outcome)), _cross_expected(ident, vectors)
            return None if got == want else f"{ident} product {got} != {want}"

        return Query("cross_product", lambda: (case, vectors), lambda c, v: lib.algebras.cross_product(c, v), _checked(check))

    def chirotope_query(n, r):
        pts = gen.configuration(rng, n, r)

        def check(outcome):
            ch, m = _value(outcome)
            signs = oracle.chirotope_signs(pts)
            subsets = itertools.combinations(range(1, n + 1), r)
            bases = {frozenset(s) for s, sg in zip(subsets, signs) if sg}
            if (ch.n, ch.r, list(ch.signs)) != (n, r, signs):
                return "chirotope signs differ from the cofactor determinants"
            if tuple(m.ground) != tuple(range(1, n + 1)) or oracle.family(m.bases) != bases:
                return "support matroid is not the nonzero-minor family"
            return None

        def call(points):
            ch = lib.algebras.chirotope_of_configuration(points)
            return ch, ch.support_matroid()

        return Query("chirotope", lambda: (pts,), call, _checked(check))

    for name, division, copies in DIVISION_ALGEBRAS:
        for _ in range(_count(copies, tiny)):
            queries.append(division_query(name, division, rng.randrange(1 << 30)))
    for _ in range(_count(2, tiny)):
        for ident in CROSS_CASES:
            queries.append(cross_axioms_query(ident, rng.randrange(1 << 30)))
    for ident, count in CROSS_PRODUCT_CASES:
        for _ in range(_count(count, tiny)):
            queries.append(cross_query(ident))
    for n, r, count in CHIROTOPE_SHAPES:
        for _ in range(_count(count, tiny)):
            queries.append(chirotope_query(n, r))
    return queries


def _cross_expected(ident, vectors):
    if ident == "three" or ident.startswith("epsilon:"):
        return oracle.epsilon_cross(vectors, len(vectors[0]))
    if ident.startswith("j:"):
        return oracle.complex_structure(vectors[0])
    if ident == "seven":
        return oracle.seven_cross(*vectors)
    if ident == "triple8":
        return oracle.triple8(*vectors)
    raise ValueError(ident)


# ---------------------------------------------------------------------------
# cli: README commands through dualities.cli.main(argv) with --json

# (command, count) per round.  Malformed inputs follow the ROADMAP list;
# each entry of MALFORMED runs twice per round.
CLI_MIX = [
    ("graph euler", 40), ("graph dual", 30), ("complex genus-duality", 30),
    ("complex betti", 30), ("matroid validate", 24), ("matroid validate invalid", 6),
    ("matroid dual", 30), ("matroid check-duality", 20), ("algebra cross", 30),
    ("algebra chirotope", 20), ("algebra hodge", 20),
]
COMPLEX_KINDS = ["sphere", "torus", "circle", "ball", "two_spheres"]
EMBEDDING_FILES = 25
MATROID_FILES = 22  # each of the eleven MATROID_SHAPES twice
COMPLEX_FILES = 15


def run_cli(lib, argv):
    """main(argv) with its output captured; exceptions and SystemExit become
    the outcome instead of ending the benchmark."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    return rc, out.getvalue()


class _Files:
    """Writes generated input files into the run's work directory."""

    def __init__(self, workdir):
        self.dir = workdir
        self.n = 0

    def write(self, text: str, ext: str = "txt") -> str:
        self.n += 1
        path = os.path.join(self.dir, f"in{self.n:04d}.{ext}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path


def _cli_query(lib, kind, argv, want_rc, check_json=None, well_formed=True):
    def check(outcome):
        if outcome[0] == "raise":
            exc = outcome[1]
            return f"{kind}: traceback {type(exc).__name__}: {exc}"
        rc, out = outcome[1]
        if rc != want_rc:
            return f"{kind}: exit {rc}, expected {want_rc}"
        if check_json is not None:
            return check_json(json.loads(out.strip().splitlines()[-1]))
        return None

    return Query("cli:" + kind, lambda: (argv,), lambda a: run_cli(lib, a), _checked(check), well_formed=well_formed)


def _embedding_case(rng):
    """(n, edges, rotation, genus): a plane map, sometimes with handles."""
    n, edges, rot = gen.plane_embedding(rng, rng.randint(3, 8), rng.randint(4, 12))
    genus = rng.choice((0, 0, 1, 2))
    if genus:
        n, edges, rot = gen.add_handles(rng, n, edges, rot, genus)
    return n, edges, rot, genus


def _write_embedding(files, rng, n, edges, rot):
    if rng.random() < 0.5:
        return files.write(gen.embedding_text(n, edges, rot))
    return files.write(json.dumps({"vertices": n, "edges": edges, "rotation": rot}), "json")


# Matroid inputs for the cli commands, used in turn, so every seed builds the
# same matroids up to labels and the cost of the command mix does not move.
MATROID_SHAPES = [
    ("uniform", 2, 4), ("uniform", 3, 6), ("uniform", 2, 5), ("uniform", 3, 7), ("uniform", 4, 6),
    ("graph", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),  # K4
    ("graph", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),  # C5
    ("graph", 5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]),  # wheel W4
    ("graph", 5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]),  # bowtie
    ("graph", 5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),  # K2,3
    ("fano",),
]


def _matroid_case(rng, k: int):
    shape = MATROID_SHAPES[k % len(MATROID_SHAPES)]
    if shape[0] == "uniform":
        ground, bases = gen.uniform(shape[1], shape[2])
    elif shape[0] == "graph":
        ground, bases = gen.cycle_matroid_data(shape[1], gen.relabel_graph(rng, shape[1], shape[2]))
    else:
        ground, bases = gen.fano()
    ground, bases, _ = gen.relabel_matroid(rng, ground, bases, offset=1)
    return ground, bases


def _write_matroid(files, rng, ground, bases):
    if rng.random() < 0.5:
        lines = ["ground: " + " ".join(map(str, ground))] + ["basis: " + " ".join(map(str, b)) for b in bases]
        return files.write("\n".join(lines) + "\n")
    return files.write(json.dumps({"ground": ground, "bases": bases}), "json")


def _cli(rng, lib, workdir, tiny):
    files = _Files(workdir)
    queries = []
    J = ["--json"]

    def q(kind, argv, rc, check_json=None, well_formed=True):
        queries.append(_cli_query(lib, kind, argv, rc, check_json, well_formed))

    # Each input file serves several commands.  Writing a small file costs
    # about 0.6 ms on the host measured, and that cost drifts with the file
    # system's state, so few files keep setup_s about generating the inputs.
    embeddings = []
    for _ in range(_count(EMBEDDING_FILES, tiny)):
        n, edges, rot, genus = _embedding_case(rng)
        embeddings.append((n, edges, rot, genus, _write_embedding(files, rng, n, edges, rot)))
    matroids = []
    for k in range(_count(MATROID_FILES, tiny)):
        ground, bases = _matroid_case(rng, k)
        matroids.append((ground, bases, _write_matroid(files, rng, ground, bases)))
    complexes = []
    for _ in range(_count(COMPLEX_FILES, tiny)):
        simplices, betti = gen.complex_case(rng, rng.choice(COMPLEX_KINDS))
        if rng.random() < 0.5:
            path = files.write("".join("s: " + " ".join(map(str, s)) + "\n" for s in simplices))
        else:
            path = files.write(json.dumps({"maximal": simplices}), "json")
        complexes.append((betti, path))
    uses = {"embedding": itertools.count(), "matroid": itertools.count(), "complex": itertools.count()}

    def take(pool, name):
        return pool[next(uses[name]) % len(pool)]

    for kind, count in CLI_MIX:
        for _ in range(_count(count, tiny)):
            if kind in ("graph euler", "graph dual", "complex genus-duality"):
                n, edges, rot, genus, path = take(embeddings, "embedding")
                if kind == "graph euler":
                    q(kind, ["graph", "euler", path] + J, 0, _euler_check(n, edges, rot, genus))
                elif kind == "graph dual":
                    q(kind, ["graph", "dual", path] + J, 0, _dual_check(n, edges, rot, genus))
                else:
                    f = 2 - 2 * genus - n + len(edges)
                    q(kind, ["complex", "genus-duality", path] + J, 0, _fields_check(
                        kind, dict(vertices=n, edges=len(edges), faces=f, genus=genus, all_ok=True)))
            elif kind == "complex betti":
                betti, path = take(complexes, "complex")
                chi = sum((-1) ** i * b for i, b in enumerate(betti))
                q(kind, ["complex", "betti", path] + J, 0, _fields_check(
                    kind, dict(betti=list(betti), chi=chi, match=True)))
            elif kind == "matroid validate":
                ground, bases, path = take(matroids, "matroid")
                q(kind, ["matroid", "validate", path] + J, 0, _matroid_check(kind, ground, bases, valid=True))
            elif kind == "matroid validate invalid":
                ground, bases, error = _invalid_family(rng)
                path = _write_matroid(files, rng, ground, bases)
                q(kind, ["matroid", "validate", path] + J, 1, _fields_check(kind, dict(valid=False, error=error)))
            elif kind == "matroid dual":
                ground, bases, path = take(matroids, "matroid")
                q(kind, ["matroid", "dual", path] + J, 0, _matroid_check(kind, *gen.dual_data(ground, bases)))
            elif kind == "matroid check-duality":
                ground, bases, path = take(matroids, "matroid")
                want = {str(e): [True, True] for e in ground}
                q(kind, ["matroid", "check-duality", path] + J, 0, _fields_check(
                    kind, dict(all_ok=True, involution_ok=True, ground_preserved_ok=True, delete_contract_ok=want)))
            elif kind == "algebra cross":
                ident = rng.choice(["three", "seven", "epsilon:4", "j:6", "triple8"])
                n, r = {"three": (3, 2), "seven": (7, 2), "epsilon:4": (4, 3), "j:6": (6, 1), "triple8": (8, 3)}[ident]
                vectors = [tuple(gen.rational(rng) for _ in range(n)) for _ in range(r)]
                argv = ["algebra", "cross", "--case", ident] + J + ["--"] + [gen.vector_text(v) for v in vectors]
                q(kind, argv, 0, _cross_check(ident, vectors))
            elif kind == "algebra chirotope":
                r = rng.randint(2, 3)
                npts = rng.randint(r + 1, 6)
                pts = gen.configuration(rng, npts, r)
                argv = ["algebra", "chirotope"] + J + ["--"] + [gen.vector_text(p) for p in pts]
                q(kind, argv, 0, _chirotope_check(pts))
            elif kind == "algebra hodge":
                n = rng.randint(3, 6)
                k = rng.randint(1, n - 1)
                keys = rng.sample(list(itertools.combinations(range(1, n + 1), k)), rng.randint(1, 3))
                comps = {key: gen.rational(rng) or Fraction(1) for key in keys}
                toks = [",".join(map(str, key)) + "=" + gen.rat_text(c) for key, c in comps.items()]
                want = {" ".join(map(str, key)): str(v) for key, v in oracle.hodge(comps, n).items()}
                argv = ["algebra", "hodge", "--n", str(n)] + J + ["--"] + toks
                q(kind, argv, 0, _fields_check(kind, dict(n=n, result=want)))
            else:
                raise ValueError(kind)

    for _ in range(_count(2, tiny)):
        for kind, argv in _malformed(rng, files):
            q("malformed " + kind, argv, 2, well_formed=False)
    return queries


def _fields_check(kind, want: dict):
    def check(d):
        got = {k: d.get(k) for k in want}
        return None if got == want else f"{kind}: {got} != {want}"

    return check


def _euler_check(n, edges, rot, genus):
    f = 2 - 2 * genus - n + len(edges)

    def check(d):
        mine = oracle.family(tuple(face) for face in gen.faces_of(edges, [[tuple(x) for x in c] for c in rot]))
        want = dict(vertices=n, edges=len(edges), genus=genus, component_count=1, chi=2 - 2 * genus, face_count=f)
        got = {k: d.get(k) for k in want}
        if got != want:
            return f"euler: {got} != {want}"
        faces = oracle.family(tuple(tuple(x) for x in face) for face in d["faces"])
        return None if faces == mine else "euler: faces are not the rotation's orbits"

    return check


def _dual_check(n, edges, rot, genus):
    f = 2 - 2 * genus - n + len(edges)

    def check(d):
        dn, de = d["vertices"], [tuple(e) for e in d["edges"]]
        drot = [[tuple(x) for x in c] for c in d["rotation"]]
        if dn != f or len(de) != len(edges):
            return f"dual: {dn} vertices and {len(de)} edges, expected {f} and {len(edges)}"
        genera = oracle.rotation_genera(dn, de, drot)
        if genera != [genus]:
            return f"dual: rotation genera {genera}, expected [{genus}]"
        if len(gen.faces_of(de, drot)) != n:
            return "dual: its faces are not the primal vertices"
        return None

    return check


def _matroid_check(kind, ground, bases, valid=None):
    want_bases = sorted(sorted(b) for b in bases)

    def check(d):
        got_bases = sorted(sorted(b) for b in d["bases"])
        if d["ground"] != sorted(ground) or got_bases != want_bases:
            return f"{kind}: wrong ground or bases"
        if d["rank"] != len(bases[0]) or d["basis_count"] != len(bases):
            return f"{kind}: wrong rank or basis count"
        if valid is not None and d.get("valid") is not valid:
            return f"{kind}: valid flag {d.get('valid')}"
        return None

    return check


def _cross_check(ident, vectors):
    def check(d):
        want = dict(result=[str(x) for x in _cross_expected(ident, vectors)], n=len(vectors[0]), r=len(vectors))
        got = {k: d.get(k) for k in want}
        return None if got == want else f"algebra cross: {got} != {want}"

    return check


def _chirotope_check(pts):
    n, r = len(pts), len(pts[0])

    def check(d):
        signs = oracle.chirotope_signs(pts)
        subsets = list(itertools.combinations(range(1, n + 1), r))
        want_signs = {" ".join(map(str, s)): sg for s, sg in zip(subsets, signs)}
        want_bases = sorted(list(s) for s, sg in zip(subsets, signs) if sg)
        if (d["n"], d["r"], d["signs"]) != (n, r, want_signs):
            return "chirotope: signs differ from the cofactor determinants"
        sm = d["support_matroid"]
        if sorted(sorted(b) for b in sm["bases"]) != want_bases:
            return "chirotope: support matroid is not the nonzero-minor family"
        return None

    return check


def _invalid_family(rng):
    """A basis family that breaks one axiom by construction."""
    labels = rng.sample(range(1, 20), 6)
    if rng.random() < 0.5:
        a, b, c, d = labels[:4]  # {a,b} and {c,d} only: exchange fails
        return sorted(labels[:4]), [sorted((a, b)), sorted((c, d))], "ExchangeFailure"
    a, b, c = labels[:3]  # {a,b} inside {a,b,c}
    return sorted(labels[:3]), [sorted((a, b)), sorted((a, b, c))], "ContainmentViolation"


def _malformed(rng, files):
    """The ROADMAP item-5 list (minus genus:9999999999, which never returns)
    plus inputs that are rejected cleanly today.  Every one should exit 2."""
    bad = rng.choice("xyzq")
    k = rng.randint(1, 5)
    J = ["--json"]
    yield "ground token", ["matroid", "validate", files.write(f"ground: 1 2 {bad}\nbasis: 1 2\n")] + J
    yield "simplex token", ["complex", "betti", files.write(f"s: 1 2 {bad}\n")] + J
    yield "cycle param", ["graph", "euler", f"cycle:{bad}"] + J
    yield "genus param", ["complex", "betti", f"genus:{bad}"] + J
    yield "epsilon param", ["algebra", "cross", "--case", f"epsilon:{bad}"] + J + ["--", "1,0"]
    yield "hodge token", ["algebra", "hodge", "--n", "3"] + J + ["--", f"1,{bad}"]
    yield "chirotope token", ["algebra", "chirotope"] + J + ["--", "1,0", "0,1", bad]
    yield "zero denominator", ["algebra", "cross", "--case", "three"] + J + ["--", f"{k}/0,1,0", "0,1,0"]
    yield "minor token", ["matroid", "minor", files.write("ground: 1 2\nbasis: 1\n"), "--delete", bad] + J
    yield "rot vertex", ["graph", "euler", files.write(f"v: 1\nrot {4 + k}:\n")] + J
    yield "negative genus", ["graph", "euler", f"genus:-{k}"] + J
    yield "missing file", ["matroid", "validate", os.path.join(files.dir, f"missing-{k}.txt")] + J
    yield "unknown matroid", ["matroid", "dual", f"nosuch{bad}"] + J
    yield "unknown graph", ["graph", "euler", f"nosuch{bad}"] + J
    yield "broken json", ["matroid", "validate", files.write('{"ground": [1, 2', "json")] + J
    yield "missing vectors", ["algebra", "cross", "--case", "three"] + J
    yield "dimension mismatch", ["algebra", "cross", "--case", "seven"] + J + ["--", "1,0,0", "0,1,0"]
    yield "empty simplex", ["complex", "betti", files.write("s:\n")] + J
