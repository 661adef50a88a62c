"""Command-line surface for the library.

Every command is declared once, in ``COMMANDS``, with the handler that
runs it and the arguments and options that handler reads; the parser
and the dispatch are both built from that table.  ``main`` builds only
the parser subtree of the domain its first argument names, and the whole
tree when that argument is not a domain.  A handler returns
``(report, text lines, ok)`` and ``main`` prints one or the other.

Exit codes: 0 on success or a verified property, 1 when a checked
property fails (an axiom check, a cross-product axiom, an invalid
matroid), 2 on usage or input errors.  ``--json`` prints one JSON object
with every report field; random trials echo their seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
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


# Source kind -> (parse file text, build a named object), each under a
# ground bound.  The library functions are looked up when called, so a
# function replaced on its module is the one that runs.
_LOADERS = {
    "matroid": (
        lambda t, b: matroids.parse_matroid(t, bound=b),
        lambda v, b: matroids.parse_named(v, bound=b),
    ),
    "graph": (lambda t, b: graphs.parse_graph(t), lambda v, b: graphs.named_graph(v)),
    "embedding": (lambda t, b: graphs.parse_embedding(t), lambda v, b: graphs.named_embedding(v)),
    "complex": (
        lambda t, b: complexes.parse_complex(t),
        lambda v, b: complexes.named_complex(*split_ident(v, complexes.BadParams)),
    ),
}


def _load(kind: str, value: str, bound: int = matroids.GROUND_BOUND):
    """A file path (anything existing or holding ``.`` or a separator),
    ``-`` for stdin, or otherwise a named object."""
    parse, named = _LOADERS[kind]
    if value == "-" or os.path.exists(value) or "." in value or os.sep in value:
        return parse(_read_source(value), bound)
    return named(value, bound)


def _parse_elements(text: str) -> tuple[int, ...]:
    return ints(text.replace(",", " ").split(), matroids.BadInput)


def _parse_vector(text: str) -> tuple[Fraction, ...]:
    return fractions(text.replace(",", " ").split(), algebras.AlgebraError)


def _matroid_summary(m: matroids.Matroid) -> dict:
    d = m.to_json_dict()
    d["rank"] = m.rank
    d["basis_count"] = len(m._masks)
    return d


def _matroid_result(m: matroids.Matroid):
    return _matroid_summary(m), [m.to_text().rstrip()], True


# ---------------------------------------------------------------------------
# matroid commands


def _matroid(args, value: str) -> matroids.Matroid:
    """A matroid source whose ground, named or read from a file, is within
    ``--bound``."""
    return _load("matroid", value, args.bound or matroids.GROUND_BOUND)


def _validate(args):
    try:
        m = _matroid(args, args.source)
    except (matroids.BadInput, matroids.UnknownName, matroids.BadParams, matroids.GroundTooLarge):
        raise
    except matroids.MatroidError as exc:
        rep = {"valid": False, "error": type(exc).__name__, "message": str(exc)}
        return rep, [f"invalid: {type(exc).__name__}: {exc}"], False
    rep = _matroid_summary(m)
    rep["valid"] = True
    return rep, [f"valid matroid: {m!r}", m.to_text().rstrip()], True


def _dual(args):
    return _matroid_result(_matroid(args, args.source).dual())


def _minor(args):
    m = _matroid(args, args.source)
    return _matroid_result(
        m.minor(deletions=_parse_elements(args.delete), contractions=_parse_elements(args.contract))
    )


def _classify(args):
    rep = matroids.classify(_matroid(args, args.source))
    lines = [f"{k}: {v}" for k, v in to_json(rep).items() if k != "witnesses"]
    lines += [f"witness[{k}]: {v}" for k, v in rep.witnesses.items()]
    return rep, lines, True


def _check_duality(args):
    rep = matroids.check_duality_axioms(_matroid(args, args.source))
    lines = [
        f"involution_ok: {rep.involution_ok}",
        f"ground_preserved_ok: {rep.ground_preserved_ok}",
    ]
    lines += [
        f"element {e}: delete/contract {a}, contract/delete {b}"
        for e, (a, b) in rep.delete_contract_ok.items()
    ]
    lines.append(f"all_ok: {rep.all_ok}")
    return rep, lines, rep.all_ok


def _isomorphic(args):
    m = _matroid(args, args.source)
    ok, bij = matroids.is_isomorphic(m, _matroid(args, args.target))
    line = f"isomorphic: {ok}" + (f" via {bij}" if bij else "")
    return {"isomorphic": ok, "bijection": bij}, [line], True


def _has_minor(args):
    m = _matroid(args, args.source)
    found, wit = matroids.has_minor(m, _matroid(args, args.target))
    rep = {
        "has_minor": found,
        "deletions": wit[0] if wit else None,
        "contractions": wit[1] if wit else None,
    }
    lines = [f"has_minor: {found}"]
    if wit:
        lines.append(f"deletions: {list(wit[0])}  contractions: {list(wit[1])}")
    return rep, lines, True


# ---------------------------------------------------------------------------
# graph commands


def _platonic(args):
    rows = graphs.platonic_solids()
    lines = ["p q V E F name"] + [
        f"{r.p} {r.q} {r.vertices} {r.edges} {r.faces} {r.name}" for r in rows
    ]
    return {"rows": rows}, lines, True


def _invariants(args):
    inv = graphs.graph_invariants(_load("graph", args.source))
    lines = [f"components: {inv.components}", f"rank: {inv.rank}", f"nullity: {inv.nullity}"]
    return inv, lines, True


def _euler(args):
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
    return rep, lines, True


def _graph_dual(args):
    d = graphs.dual_embedding(_load("embedding", args.source))
    return d, [graphs.embedding_to_text(d).rstrip()], True


def _planar(args):
    rep = graphs.is_planar(_load("graph", args.source), bound=args.bound or graphs.PLANAR_EDGE_BOUND)
    lines = [f"planar: {rep.planar}", f"note: {rep.note}"]
    if rep.obstruction:
        lines.append(
            f"obstruction: {rep.obstruction} at deletions={list(rep.deletions)} "
            f"contractions={list(rep.contractions)}"
        )
    return rep, lines, True


def _blocks(args):
    bl = graphs.blocks(_load("graph", args.source))
    lines = [
        f"block {i}: vertices {list(b.vertices)} edges {list(b.edge_indices)}"
        for i, b in enumerate(bl)
    ]
    return {"blocks": bl}, lines, True


def _cycle_matroid(args):
    g = _load("graph", args.source)
    return _matroid_result(graphs.cycle_matroid(g, bound=args.bound or matroids.GROUND_BOUND))


# ---------------------------------------------------------------------------
# complex commands


def _chi(args):
    k = _load("complex", args.source)
    chi = complexes.euler_char_complex(k)
    rep = {"alpha": list(k.alpha), "dimension": k.dimension, "chi": chi}
    return rep, [f"alpha: {list(k.alpha)}", f"chi: {chi}"], True


def _betti(args):
    k = _load("complex", args.source)
    b = complexes.betti_numbers(k)
    chi = complexes.euler_char_complex(k)
    alt = sum((-1) ** i * x for i, x in enumerate(b))
    rep = {"betti": list(b), "chi": chi, "betti_alternating_sum": alt, "match": alt == chi}
    return rep, [f"betti: {list(b)}", f"chi: {chi}", f"match: {alt == chi}"], alt == chi


def _index_sum(args):
    d = to_json(complexes.index_sum_canonical(_load("complex", args.source)))
    return d, [f"{key}: {val}" for key, val in d.items()], True


def _genus_duality(args):
    rep = complexes.genus_duality_check(_load("embedding", args.source))
    d = to_json(rep)
    return d, [f"{k}: {v}" for k, v in d.items()], rep.all_ok


# ---------------------------------------------------------------------------
# algebra commands


def _table(args):
    alg = algebras.algebra_by_name(args.algebra)
    rows = [[f"{'+' if s > 0 else '-'}e{k}" for s, k in row] for row in alg.table]
    rep = {"algebra": alg.name, "dim": alg.dim, "table": rows}
    return rep, [f"e{i}: {' '.join(cells)}" for i, cells in enumerate(rows)], True


def _report(args):
    alg = algebras.algebra_by_name(args.algebra)
    rep = algebras.division_algebra_report(alg, sample_count=args.trials, seed=args.seed)
    lines = [
        f"algebra: {alg.name} (dim {alg.dim})",
        f"norm_multiplicative: {rep.norm_multiplicative}",
        f"alternative: {rep.alternative}",
        f"zero_divisor: {_fmt_pair(rep.zero_divisor)}",
        f"samples: {rep.samples} (seed {rep.seed})",
    ]
    return rep, lines, True


def _zero_divisors(args):
    alg = algebras.algebra_by_name(args.algebra)
    pair = alg._zero_divisor
    return {"algebra": alg.name, "zero_divisor": pair}, [f"zero_divisor: {_fmt_pair(pair)}"], True


def _cross(args):
    case = algebras.cross_case(args.case)
    out = algebras.cross_product(case, [_parse_vector(v) for v in args.vectors])
    rep = {"case": case.tag, "n": case.n, "r": case.r, "result": out}
    return rep, ["result: " + " ".join(str(c) for c in out)], True


def _cross_check(args):
    case = algebras.cross_case(args.case)
    rep = algebras.cross_axioms_report(case, trials=args.trials, seed=args.seed)
    d = to_json(rep)
    return d, [f"{k}: {v}" for k, v in d.items()], rep.all_ok


def _hodge(args):
    comps: dict[tuple[int, ...], Fraction] = {}
    for item in args.components:
        key, _, val = item.partition("=")
        idx = ints(key.replace(",", " ").split(), algebras.AlgebraError)
        coeff = fractions([val], algebras.AlgebraError)[0] if val else Fraction(1)
        comps[idx] = comps.get(idx, 0) + coeff  # the map is linear
    out = algebras.hodge_dual(comps, args.n)
    lines = [f"{' '.join(str(i) for i in k)}: {v}" for k, v in sorted(out.items())]
    return {"n": args.n, "result": out}, lines, True


def _chirotope(args):
    ch = algebras.chirotope_of_configuration([_parse_vector(p) for p in args.points])
    m = ch.support_matroid()
    rep = to_json({"n": ch.n, "r": ch.r, "signs": ch.by_subset})
    rep["support_matroid"] = _matroid_summary(m)
    lines = [f"n: {ch.n}", f"rank: {ch.r}"]
    lines += [f"{k}: {v}" for k, v in rep["signs"].items()]
    lines.append(f"support matroid: {m!r} (validated)")
    return rep, lines, True


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
# the command table


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
# which builds a domain's parser subtree per command.
def _trials(text: str) -> int:
    return _int_in(text, 0, algebras.TRIALS_MAX)


# --bound lifts the matroid ground cap up to the limit of every Matroid;
# graph planar takes up to graphs.PLANAR_EDGE_BOUND edges instead.
def _bound(text: str) -> int:
    return _int_in(text, 1, matroids.TABLE_BOUND)


def _planar_bound(text: str) -> int:
    return _int_in(text, 1, graphs.PLANAR_EDGE_BOUND)


def _arg(*flags: str, **kwargs):
    """One ``add_argument`` call: its flags and keyword arguments."""
    return flags, kwargs


MATROID = _arg("source", help="named id (fano, uniform:2,4, mk5), file path, or - for stdin")
TARGET = _arg("target", help="second matroid source")
GRAPH = _arg("source", help="named graph (k4, cube, torus), file, or -")
EMBEDDING = _arg("source", help="named embedding (k4, cube, torus), file, or -")
COMPLEX = _arg("source", help="named complex (sphere:2, genus:1), file, or -")
BOUND = _arg(
    "--bound", type=_bound, default=None, help=f"search/size bound, 1..{matroids.TABLE_BOUND}"
)
PLANAR_BOUND = _arg(
    "--bound", type=_planar_bound, default=None, help=f"edge bound, 1..{graphs.PLANAR_EDGE_BOUND}"
)
SEED = _arg("--seed", type=int, default=0, help="seed for random trials")
TRIALS = _arg("--trials", type=_trials, default=200, help=f"random trial count, 0..{algebras.TRIALS_MAX}")
ALGEBRA = _arg("--algebra", default="o", help="r|c|h|o|o-fano|sedenion")
CASE = _arg("--case", default="three", help="three|seven|epsilon:<n>|j:<n>|triple8")

# domain -> (help, {action: (handler, the arguments and options it reads)}).
# Every action also takes --json.
COMMANDS = {
    "matroid": ("matroid operations", {
        "validate": (_validate, (MATROID, BOUND)),
        "dual": (_dual, (MATROID, BOUND)),
        "classify": (_classify, (MATROID, BOUND)),
        "check-duality": (_check_duality, (MATROID, BOUND)),
        "minor": (_minor, (
            MATROID,
            _arg("--delete", default="", help="elements to delete (comma list)"),
            _arg("--contract", default="", help="elements to contract (comma list)"),
            BOUND,
        )),
        "isomorphic": (_isomorphic, (MATROID, TARGET, BOUND)),
        "has-minor": (_has_minor, (MATROID, TARGET, BOUND)),
    }),
    "graph": ("graph and embedding operations", {
        "platonic": (_platonic, ()),
        "invariants": (_invariants, (GRAPH,)),
        "euler": (_euler, (EMBEDDING,)),
        "dual": (_graph_dual, (EMBEDDING,)),
        "planar": (_planar, (GRAPH, PLANAR_BOUND)),
        "blocks": (_blocks, (GRAPH,)),
        "cycle-matroid": (_cycle_matroid, (GRAPH, BOUND)),
    }),
    "complex": ("simplicial-complex operations", {
        "chi": (_chi, (COMPLEX,)),
        "betti": (_betti, (COMPLEX,)),
        "named": (_chi, (COMPLEX,)),
        "index-sum": (_index_sum, (COMPLEX,)),
        "genus-duality": (_genus_duality, (_arg("source", help="named embedding, file, or -"),)),
    }),
    "algebra": ("hypercomplex algebra operations", {
        "table": (_table, (ALGEBRA,)),
        "report": (_report, (ALGEBRA, SEED, TRIALS)),
        "zero-divisors": (_zero_divisors, (ALGEBRA,)),
        "cross": (_cross, (
            CASE,
            _arg("vectors", nargs="+", help="vectors as comma-separated rationals"),
        )),
        "cross-check": (_cross_check, (CASE, SEED, TRIALS)),
        "hodge": (_hodge, (
            _arg("--n", type=int, required=True, help="ambient dimension"),
            _arg("components", nargs="+", help="entries like 1,2=3/2 (coefficient defaults to 1)"),
        )),
        "chirotope": (_chirotope, (
            _arg("points", nargs="+", help="points as comma-separated rational coordinates"),
        )),
    }),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: when its first word names a domain, that
    domain's subtree only, under a top-level usage line that still lists
    every domain; otherwise (no argument, ``--help``, an unknown domain, an
    option first) the whole tree.

    The terminal is probed once per call: every parser formats its help
    and errors at the width ``argparse.HelpFormatter`` would read for
    itself, and each subparsers group gets the ``prog`` argparse would
    format for it, so neither makes a formatter of its own."""
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="dualities",
        description="Exact duality computations: matroids, embedded graphs, "
        "simplicial complexes, hypercomplex algebras.",
        formatter_class=formatter,
    )
    named = argv[0] if argv and argv[0] in COMMANDS else None
    metavar = "{" + ",".join(COMMANDS) + "}" if named else None
    domains = parser.add_subparsers(dest="domain", required=True, metavar=metavar, prog="dualities")
    for domain, (help_text, actions) in COMMANDS.items():
        if named and domain != named:
            continue
        pd = domains.add_parser(domain, help=help_text, formatter_class=formatter)
        sub = pd.add_subparsers(dest="action", required=True, prog=f"dualities {domain}")
        for action, (handler, arguments) in actions.items():
            p = sub.add_parser(action, formatter_class=formatter)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.add_argument("--json", action="store_true", help="emit one JSON object")
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        report, lines, ok = args.handler(args)
    except (
        matroids.MatroidError,
        graphs.GraphError,
        complexes.ComplexError,
        algebras.AlgebraError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(json.dumps(to_json(report), sort_keys=True))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe: point stdout at the null device so
        # that the flush at exit cannot fail again (Python's signal docs,
        # "Note on SIGPIPE"); the verdict still sets the exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
