"""Command-line surface for the library.

Exit codes: 0 on success or a verified property, 1 when a checked
property fails (an axiom check, a cross-product axiom, an invalid
matroid), 2 on usage or input errors.  ``--json`` prints one JSON object
with every report field; random trials echo their seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import algebras, complexes, graphs, matroids
from .formats import fractions, ints, split_ident, to_json


class InputError(ValueError):
    """Unreadable or unparsable input source."""


def _read_source(value: str) -> str:
    if value == "-":
        return sys.stdin.read()
    try:
        with open(value, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {value!r}: {exc}") from exc


# Source kind -> (parse file text under a ground bound, build a named
# object).  The library functions are looked up when called, so a function
# replaced on its module is the one that runs.
_LOADERS = {
    "matroid": (lambda t, b: matroids.parse_matroid(t, bound=b), lambda v: matroids.parse_named(v)),
    "graph": (lambda t, b: graphs.parse_graph(t), lambda v: graphs.named_graph(v)),
    "embedding": (lambda t, b: graphs.parse_embedding(t), lambda v: graphs.named_embedding(v)),
    "complex": (
        lambda t, b: complexes.parse_complex(t),
        lambda v: complexes.named_complex(*split_ident(v, complexes.BadParams)),
    ),
}


def _load(kind: str, value: str, bound: int = matroids.GROUND_BOUND):
    """A file path (anything existing or holding ``.`` or a separator),
    ``-`` for stdin, or otherwise a named object."""
    parse, named = _LOADERS[kind]
    if value == "-" or os.path.exists(value) or "." in value or os.sep in value:
        return parse(_read_source(value), bound)
    return named(value)


def _parse_elements(text: str) -> tuple[int, ...]:
    return ints(text.replace(",", " ").split(), matroids.BadInput)


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return fractions(text.replace(",", " ").split(), algebras.AlgebraError)


def _emit(args, report, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(to_json(report), sort_keys=True))
    else:
        for line in lines:
            print(line)


def _matroid_summary(m: matroids.Matroid) -> dict:
    d = m.to_json_dict()
    d["rank"] = m.rank
    d["basis_count"] = len(m._masks)
    return d


# ---------------------------------------------------------------------------
# matroid commands


def _cmd_matroid(args) -> int:
    bound = args.bound or matroids.GROUND_BOUND
    if args.action == "validate":
        try:
            m = _load("matroid", args.source, bound)
        except (matroids.BadInput, matroids.UnknownName, matroids.BadParams):
            raise
        except matroids.MatroidError as exc:
            _emit(
                args,
                {"valid": False, "error": type(exc).__name__, "message": str(exc)},
                [f"invalid: {type(exc).__name__}: {exc}"],
            )
            return 1
        rep = _matroid_summary(m)
        rep["valid"] = True
        _emit(args, rep, [f"valid matroid: {m!r}", m.to_text().rstrip()])
        return 0

    m = _load("matroid", args.source, bound)
    if args.action == "dual":
        d = m.dual()
        _emit(args, _matroid_summary(d), [d.to_text().rstrip()])
        return 0
    if args.action == "minor":
        res = m.minor(
            deletions=_parse_elements(args.delete),
            contractions=_parse_elements(args.contract),
        )
        _emit(args, _matroid_summary(res), [res.to_text().rstrip()])
        return 0
    if args.action == "classify":
        rep = matroids.classify(m, bound=args.bound or 10)
        lines = [f"{k}: {v}" for k, v in to_json(rep).items() if k != "witnesses"]
        lines += [f"witness[{k}]: {v}" for k, v in rep.witnesses.items()]
        _emit(args, rep, lines)
        return 0
    if args.action == "check-duality":
        rep = matroids.check_duality_axioms(m)
        lines = [
            f"involution_ok: {rep.involution_ok}",
            f"ground_preserved_ok: {rep.ground_preserved_ok}",
        ]
        lines += [
            f"element {e}: delete/contract {a}, contract/delete {b}"
            for e, (a, b) in rep.delete_contract_ok.items()
        ]
        lines.append(f"all_ok: {rep.all_ok}")
        _emit(args, rep, lines)
        return 0 if rep.all_ok else 1
    if args.action == "isomorphic":
        other = _load("matroid", args.target, bound)
        ok, bij = matroids.is_isomorphic(m, other)
        rep = {"isomorphic": ok, "bijection": bij}
        _emit(args, rep, [f"isomorphic: {ok}" + (f" via {bij}" if bij else "")])
        return 0
    if args.action == "has-minor":
        target = _load("matroid", args.target, bound)
        found, wit = matroids.has_minor(m, target)
        rep = {
            "has_minor": found,
            "deletions": wit[0] if wit else None,
            "contractions": wit[1] if wit else None,
        }
        lines = [f"has_minor: {found}"]
        if wit:
            lines.append(f"deletions: {list(wit[0])}  contractions: {list(wit[1])}")
        _emit(args, rep, lines)
        return 0
    raise InputError(f"unknown matroid action {args.action!r}")


# ---------------------------------------------------------------------------
# graph commands


def _cmd_graph(args) -> int:
    if args.action == "platonic":
        rows = graphs.platonic_solids()
        rep = {"rows": rows}
        lines = ["p q V E F name"] + [
            f"{r.p} {r.q} {r.vertices} {r.edges} {r.faces} {r.name}" for r in rows
        ]
        _emit(args, rep, lines)
        return 0
    if args.action == "invariants":
        g = _load("graph", args.source)
        inv = graphs.graph_invariants(g)
        _emit(
            args,
            inv,
            [f"components: {inv.components}", f"rank: {inv.rank}", f"nullity: {inv.nullity}"],
        )
        return 0
    if args.action == "euler":
        emb = _load("embedding", args.source)
        t = graphs.trace_faces(emb)
        rep = to_json(t)
        rep["vertices"] = emb.graph.vertex_count
        rep["edges"] = len(emb.graph.edges)
        lines = [
            f"V: {emb.graph.vertex_count}",
            f"E: {len(emb.graph.edges)}",
            f"F: {t.face_count}",
            f"chi: {t.chi}",
            f"genus: {t.genus}",
        ]
        _emit(args, rep, lines)
        return 0
    if args.action == "dual":
        emb = _load("embedding", args.source)
        d = graphs.dual_embedding(emb)
        _emit(args, d, [graphs.embedding_to_text(d).rstrip()])
        return 0
    if args.action == "planar":
        g = _load("graph", args.source)
        rep = graphs.is_planar(g, bound=args.bound or 20)
        lines = [f"planar: {rep.planar}", f"note: {rep.note}"]
        if rep.obstruction:
            lines.append(
                f"obstruction: {rep.obstruction} at deletions={list(rep.deletions)} "
                f"contractions={list(rep.contractions)}"
            )
        _emit(args, rep, lines)
        return 0
    if args.action == "blocks":
        g = _load("graph", args.source)
        bl = graphs.blocks(g)
        rep = {"blocks": bl}
        lines = [
            f"block {i}: vertices {list(b.vertices)} edges {list(b.edge_indices)}"
            for i, b in enumerate(bl)
        ]
        _emit(args, rep, lines)
        return 0
    if args.action == "cycle-matroid":
        g = _load("graph", args.source)
        m = graphs.cycle_matroid(g, bound=args.bound or matroids.GROUND_BOUND)
        _emit(args, _matroid_summary(m), [m.to_text().rstrip()])
        return 0
    raise InputError(f"unknown graph action {args.action!r}")


# ---------------------------------------------------------------------------
# complex commands


def _cmd_complex(args) -> int:
    if args.action == "genus-duality":
        emb = _load("embedding", args.source)
        rep = complexes.genus_duality_check(emb)
        d = to_json(rep)
        lines = [f"{k}: {v}" for k, v in d.items()]
        _emit(args, d, lines)
        return 0 if rep.all_ok else 1
    k = _load("complex", args.source)
    if args.action in ("chi", "named"):
        rep = {
            "alpha": list(k.alpha),
            "dimension": k.dimension,
            "chi": complexes.euler_char_complex(k),
        }
        _emit(
            args,
            rep,
            [f"alpha: {list(k.alpha)}", f"chi: {rep['chi']}"],
        )
        return 0
    if args.action == "betti":
        b = complexes.betti_numbers(k)
        chi = complexes.euler_char_complex(k)
        alt = sum((-1) ** i * x for i, x in enumerate(b))
        rep = {"betti": list(b), "chi": chi, "betti_alternating_sum": alt, "match": alt == chi}
        _emit(args, rep, [f"betti: {list(b)}", f"chi: {chi}", f"match: {alt == chi}"])
        return 0 if alt == chi else 1
    if args.action == "index-sum":
        rep = complexes.index_sum_canonical(k)
        d = to_json(rep)
        _emit(args, d, [f"{key}: {val}" for key, val in d.items()])
        return 0
    raise InputError(f"unknown complex action {args.action!r}")


# ---------------------------------------------------------------------------
# algebra commands


def _cmd_algebra(args) -> int:
    if args.action == "table":
        alg = algebras.algebra_by_name(args.algebra)
        rep = {
            "algebra": alg.name,
            "dim": alg.dim,
            "table": [
                [f"{'+' if s > 0 else '-'}e{k}" for s, k in row] for row in alg.table
            ],
        }
        lines = []
        for i, row in enumerate(alg.table):
            cells = " ".join(f"{'+' if s > 0 else '-'}e{k}" for s, k in row)
            lines.append(f"e{i}: {cells}")
        _emit(args, rep, lines)
        return 0
    if args.action == "report":
        alg = algebras.algebra_by_name(args.algebra)
        rep = algebras.division_algebra_report(alg, sample_count=args.trials, seed=args.seed)
        lines = [
            f"algebra: {alg.name} (dim {alg.dim})",
            f"norm_multiplicative: {rep.norm_multiplicative}",
            f"alternative: {rep.alternative}",
            f"zero_divisor: {_fmt_pair(rep.zero_divisor)}",
            f"samples: {rep.samples} (seed {rep.seed})",
        ]
        _emit(args, rep, lines)
        return 0
    if args.action == "zero-divisors":
        alg = algebras.algebra_by_name(args.algebra)
        rep = algebras.division_algebra_report(alg, sample_count=0, seed=args.seed)
        d = {"algebra": alg.name, "zero_divisor": rep.zero_divisor}
        lines = [f"zero_divisor: {_fmt_pair(rep.zero_divisor)}"]
        _emit(args, d, lines)
        return 0
    if args.action == "cross":
        case = algebras.cross_case(args.case)
        vectors = [_parse_vector(v) for v in args.vectors]
        out = algebras.cross_product(case, vectors)
        rep = {"case": case.tag, "n": case.n, "r": case.r, "result": out}
        _emit(args, rep, ["result: " + " ".join(str(c) for c in out)])
        return 0
    if args.action == "cross-check":
        case = algebras.cross_case(args.case)
        rep = algebras.cross_axioms_report(case, trials=args.trials, seed=args.seed)
        d = to_json(rep)
        _emit(args, d, [f"{k}: {v}" for k, v in d.items()])
        return 0 if rep.all_ok else 1
    if args.action == "hodge":
        comps: dict[tuple[int, ...], Fraction] = {}
        for item in args.components:
            key, _, val = item.partition("=")
            idx = ints(key.replace(",", " ").split(), algebras.AlgebraError)
            coeff = fractions([val], algebras.AlgebraError)[0] if val else Fraction(1)
            comps[idx] = comps.get(idx, 0) + coeff  # the map is linear
        out = algebras.hodge_dual(comps, args.n)
        rep = {"n": args.n, "result": out}
        lines = [
            f"{' '.join(str(i) for i in k)}: {v}" for k, v in sorted(out.items())
        ]
        _emit(args, rep, lines)
        return 0
    if args.action == "chirotope":
        points = [_parse_vector(p) for p in args.points]
        ch = algebras.chirotope_of_configuration(points)
        m = ch.support_matroid()
        rep = to_json({"n": ch.n, "r": ch.r, "signs": ch.by_subset})
        rep["support_matroid"] = _matroid_summary(m)
        lines = [f"n: {ch.n}", f"rank: {ch.r}"]
        lines += [f"{k}: {v}" for k, v in rep["signs"].items()]
        lines.append(f"support matroid: {m!r} (validated)")
        _emit(args, rep, lines)
        return 0
    raise InputError(f"unknown algebra action {args.action!r}")


def _fmt_pair(pair):
    if pair is None:
        return "none found (exhaustive over e_i +- e_j pairs)"
    x, y = pair
    return f"({_fmt_elem(x)}) * ({_fmt_elem(y)}) = 0"


def _fmt_elem(x) -> str:
    terms = []
    for i, c in enumerate(x):
        if c:
            coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            terms.append(f"{coeff}e{i}")
    return " + ".join(terms).replace("+ -", "- ") if terms else "0"


# ---------------------------------------------------------------------------
# parser


# Largest --bound value: the default planarity edge cap.  --bound lifts the
# matroid ground, classification and planarity caps, whose searches grow
# exponentially with it.
BOUND_MAX = 20


def _int_in(text: str, lo: int, hi: int) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not lo <= n <= hi:
        raise argparse.ArgumentTypeError(f"{n} outside {lo}..{hi}")
    return n


# Module-level argparse types: a factory returning one closure per option
# measured about a fifth lower throughput on the benchmark's cli workload,
# which builds a parser per command.
def _trials(text: str) -> int:
    return _int_in(text, 0, algebras.TRIALS_MAX)


def _bound(text: str) -> int:
    return _int_in(text, 1, BOUND_MAX)


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.add_argument("--seed", type=int, default=0, help="seed for random trials")
    p.add_argument("--trials", type=_trials, default=200, help=f"random trial count, 0..{algebras.TRIALS_MAX}")
    p.add_argument("--bound", type=_bound, default=None, help=f"search/size bound, 1..{BOUND_MAX}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualities",
        description="Exact duality computations: matroids, embedded graphs, "
        "simplicial complexes, hypercomplex algebras.",
    )
    sub = parser.add_subparsers(dest="domain", required=True)

    matroid_src = "named id (fano, uniform:2,4, mk5), file path, or - for stdin"
    pm = sub.add_parser("matroid", help="matroid operations")
    pm_sub = pm.add_subparsers(dest="action", required=True)
    for action in ("validate", "dual", "classify", "check-duality"):
        p = pm_sub.add_parser(action)
        p.add_argument("source", help=matroid_src)
        _common(p)
    p = pm_sub.add_parser("minor")
    p.add_argument("source", help=matroid_src)
    p.add_argument("--delete", default="", help="elements to delete (comma list)")
    p.add_argument("--contract", default="", help="elements to contract (comma list)")
    _common(p)
    for action in ("isomorphic", "has-minor"):
        p = pm_sub.add_parser(action)
        p.add_argument("source", help=matroid_src)
        p.add_argument("target", help="second matroid source")
        _common(p)

    pg = sub.add_parser("graph", help="graph and embedding operations")
    pg_sub = pg.add_subparsers(dest="action", required=True)
    p = pg_sub.add_parser("platonic")
    _common(p)
    for action, src in (
        ("invariants", "graph"),
        ("euler", "embedding"),
        ("dual", "embedding"),
        ("planar", "graph"),
        ("blocks", "graph"),
        ("cycle-matroid", "graph"),
    ):
        p = pg_sub.add_parser(action)
        p.add_argument("source", help=f"named {src} (k4, cube, torus), file, or -")
        _common(p)

    pc = sub.add_parser("complex", help="simplicial-complex operations")
    pc_sub = pc.add_subparsers(dest="action", required=True)
    for action in ("chi", "betti", "named", "index-sum", "genus-duality"):
        p = pc_sub.add_parser(action)
        src = "embedding" if action == "genus-duality" else "complex (sphere:2, genus:1)"
        p.add_argument("source", help=f"named {src}, file, or -")
        _common(p)

    pa = sub.add_parser("algebra", help="hypercomplex algebra operations")
    pa_sub = pa.add_subparsers(dest="action", required=True)
    for action in ("table", "report", "zero-divisors"):
        p = pa_sub.add_parser(action)
        p.add_argument("--algebra", default="o", help="r|c|h|o|o-fano|sedenion")
        _common(p)
    for action in ("cross", "cross-check"):
        p = pa_sub.add_parser(action)
        p.add_argument("--case", default="three", help="three|seven|epsilon:<n>|j:<n>|triple8")
        if action == "cross":
            p.add_argument("vectors", nargs="+", help="vectors as comma-separated rationals")
        _common(p)
    p = pa_sub.add_parser("hodge")
    p.add_argument("--n", type=int, required=True, help="ambient dimension")
    p.add_argument("components", nargs="+", help="entries like 1,2=3/2 (coefficient defaults to 1)")
    _common(p)
    p = pa_sub.add_parser("chirotope")
    p.add_argument("points", nargs="+", help="points as comma-separated rational coordinates")
    _common(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.domain == "matroid":
            return _cmd_matroid(args)
        if args.domain == "graph":
            return _cmd_graph(args)
        if args.domain == "complex":
            return _cmd_complex(args)
        if args.domain == "algebra":
            return _cmd_algebra(args)
        parser.error(f"unknown domain {args.domain!r}")
    except (
        matroids.MatroidError,
        graphs.GraphError,
        complexes.ComplexError,
        algebras.AlgebraError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (InputError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
