import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualities import algebras, graphs, matroids
from dualities.cli import COMMANDS, build_parser, main

# Exact stdout and exit code of every argv in test_json_mode_is_stable and
# every README CLI line (``algebra report`` runs 20 trials instead of 500
# to keep the test fast), each with --json and then as text.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())

ACTIONS = [(domain, action) for domain, (_, actions) in COMMANDS.items() for action in actions]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_platonic_text(capsys):
    code, out, _ = run(capsys, "graph", "platonic")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if not l.startswith("p q")]
    assert len(lines) == 5
    assert lines[-1].startswith("3 5 12 30 20")


def test_platonic_json_roundtrip(capsys):
    code, data = run_json(capsys, "graph", "platonic")
    assert code == 0
    assert json.loads(json.dumps(data)) == data
    assert [r["name"] for r in data["rows"]] == [
        "tetrahedron",
        "cube",
        "octahedron",
        "dodecahedron",
        "icosahedron",
    ]


def test_matroid_classify_fano(capsys):
    code, data = run_json(capsys, "matroid", "classify", "fano")
    assert code == 0
    assert data["binary"] is True
    assert data["graphic"] is False
    assert data["cographic"] is False
    assert data["transversal"] is False
    assert data["regular"] is False
    assert all(k in data["witnesses"] for k in ("binary", "graphic", "transversal"))


def test_matroid_validate_named(capsys):
    code, data = run_json(capsys, "matroid", "validate", "uniform:2,4")
    assert code == 0 and data["valid"] and data["basis_count"] == 6


def test_matroid_validate_failure_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ground: 1 2\nbasis: 1\nbasis: 1 2\n")
    code, data = run_json(capsys, "matroid", "validate", str(path))
    assert code == 1
    assert data["valid"] is False
    assert data["error"] == "ContainmentViolation"


def test_matroid_dual_roundtrip(capsys, tmp_path):
    code, data = run_json(capsys, "matroid", "dual", "uniform:2,3")
    assert code == 0
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code2, data2 = run_json(capsys, "matroid", "dual", str(path))
    assert code2 == 0
    assert data2["bases"] == [[1, 2], [1, 3], [2, 3]]


def test_matroid_minor_flags(capsys):
    code, data = run_json(capsys, "matroid", "minor", "fano", "--delete", "7")
    assert code == 0 and len(data["bases"]) == 16


def test_matroid_check_duality(capsys):
    code, data = run_json(capsys, "matroid", "check-duality", "fano")
    assert code == 0 and data["all_ok"]


def test_matroid_has_minor(capsys):
    code, data = run_json(capsys, "matroid", "has-minor", "mk5", "mk4")
    assert code == 0 and data["has_minor"]


def test_matroid_isomorphic(capsys):
    code, data = run_json(capsys, "matroid", "isomorphic", "uniform:2,4", "uniform:2,4")
    assert code == 0 and data["isomorphic"]


def test_graph_euler(capsys):
    code, data = run_json(capsys, "graph", "euler", "tetrahedron")
    assert code == 0
    assert data["chi"] == 2 and data["face_count"] == 4


def test_graph_planar_witness(capsys):
    code, data = run_json(capsys, "graph", "planar", "k5")
    assert code == 0
    assert data["planar"] is False and data["obstruction"] == "M(K5)"


def test_graph_dual_output_parses(capsys, tmp_path):
    code, data = run_json(capsys, "graph", "dual", "cube")
    assert code == 0
    path = tmp_path / "emb.json"
    path.write_text(json.dumps(data))
    code2, data2 = run_json(capsys, "graph", "euler", str(path))
    assert code2 == 0
    assert data2["face_count"] == 8  # the octahedron


@pytest.mark.parametrize("name,faces", [("icosahedron", 20), ("dodecahedron", 12)])
def test_graph_euler_and_dual_of_thirty_edge_solids(capsys, name, faces):
    code, data = run_json(capsys, "graph", "euler", name)
    assert code == 0 and (data["edges"], data["face_count"], data["genus"]) == (30, faces, 0)
    code, data = run_json(capsys, "graph", "dual", name)
    assert code == 0 and data["vertices"] == faces


def test_graph_dual_of_the_edgeless_map(capsys):
    code, data = run_json(capsys, "graph", "dual", "genus:0")
    assert code == 0 and data == {"vertices": 1, "edges": [], "rotation": [[]]}
    code, out, _ = run(capsys, "graph", "dual", "genus:0")
    assert code == 0 and out.splitlines()[0] == "v: 1"


def test_graph_blocks(capsys):
    code, data = run_json(capsys, "graph", "blocks", "path:4")
    assert code == 0 and len(data["blocks"]) == 3


def test_graph_cycle_matroid(capsys):
    code, data = run_json(capsys, "graph", "cycle-matroid", "k4")
    assert code == 0 and len(data["bases"]) == 16


def test_complex_chi(capsys):
    code, data = run_json(capsys, "complex", "chi", "sphere:3")
    assert code == 0 and data["chi"] == 0


def test_complex_betti(capsys):
    code, data = run_json(capsys, "complex", "betti", "genus:2")
    assert code == 0 and data["betti"] == [1, 4, 1] and data["match"]


def test_complex_index_sum(capsys):
    code, data = run_json(capsys, "complex", "index-sum", "torus")
    assert code == 0 and data["index_sum"] == 0


def test_complex_genus_duality(capsys):
    code, data = run_json(capsys, "complex", "genus-duality", "genus:3")
    assert code == 0 and data["all_ok"]


def test_algebra_report(capsys):
    code, data = run_json(capsys, "algebra", "report", "--algebra", "o", "--trials", "20")
    assert code == 0
    assert data["norm_multiplicative"] and data["alternative"]
    assert data["zero_divisor"] is None
    assert data["seed"] == 0


def test_algebra_zero_divisors_sedenion(capsys):
    code, out, _ = run(capsys, "algebra", "zero-divisors", "--algebra", "sedenion")
    assert code == 0
    assert "= 0" in out


def test_algebra_cross(capsys):
    code, out, _ = run(capsys, "algebra", "cross", "--case", "three", "1,0,0", "0,1,0")
    assert code == 0 and out.strip() == "result: 0 0 1"


def test_algebra_cross_check(capsys):
    code, data = run_json(
        capsys, "algebra", "cross-check", "--case", "epsilon:4", "--trials", "30", "--seed", "9"
    )
    assert code == 0 and data["all_ok"] and data["seed"] == 9


def test_algebra_hodge(capsys):
    code, data = run_json(capsys, "algebra", "hodge", "--n", "4", "1,2=3/2")
    assert code == 0 and data["result"] == {"3 4": "3/2"}


def test_algebra_chirotope(capsys):
    code, data = run_json(capsys, "algebra", "chirotope", "1,0", "0,1", "1,1", "1,2")
    assert code == 0 and data["support_matroid"]["basis_count"] == 6


def test_algebra_table(capsys):
    code, data = run_json(capsys, "algebra", "table", "--algebra", "o-fano")
    assert code == 0 and data["table"][1][2] == "+e4"


def test_stdin_source(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("ground: 1 2 3\nbasis: 1 2\nbasis: 1 3\nbasis: 2 3\n"))
    code, data = run_json(capsys, "matroid", "dual", "-")
    assert code == 0 and data["rank"] == 1


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["matroid", "frobnicate", "fano"])
    assert exc.value.code == 2


def test_library_key_error_is_not_an_input_error(monkeypatch):
    """A KeyError from the library is a bug: it propagates, not exit 2."""

    def broken():
        raise KeyError("rows")

    monkeypatch.setattr(graphs, "platonic_solids", broken)
    with pytest.raises(KeyError):
        main(["graph", "platonic"])


@pytest.mark.parametrize("domain,action", ACTIONS)
def test_help_exits_0(capsys, domain, action):
    with pytest.raises(SystemExit) as exc:
        main([domain, action, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: dualities {domain} {action}")


TOP_USAGE = "usage: dualities [-h] {matroid,graph,complex,algebra} ...\n"
TOP_HELP = TOP_USAGE + (
    "\n"
    "Exact duality computations: matroids, embedded graphs, simplicial complexes,\n"
    "hypercomplex algebras.\n"
    "\n"
    "positional arguments:\n"
    "  {matroid,graph,complex,algebra}\n"
    "    matroid             matroid operations\n"
    "    graph               graph and embedding operations\n"
    "    complex             simplicial-complex operations\n"
    "    algebra             hypercomplex algebra operations\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)
MATROID_USAGE = (
    "usage: dualities matroid [-h]\n"
    "                         {validate,dual,classify,check-duality,minor,isomorphic,has-minor}\n"
    "                         ...\n"
)
MATROID_HELP = MATROID_USAGE + (
    "\n"
    "positional arguments:\n"
    "  {validate,dual,classify,check-duality,minor,isomorphic,has-minor}\n"
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
)

# The exact (exit code, stdout, stderr) of the top-level help and usage
# errors at 80 columns: a parser that builds only part of the command
# tree must still name every domain in these lines.
TOP_LEVEL_OUTPUT = {
    (): (2, "", TOP_USAGE + "dualities: error: the following arguments are required: domain\n"),
    ("--help",): (0, TOP_HELP, ""),
    ("matroid",): (2, "", MATROID_USAGE + "dualities matroid: error: the following arguments are required: action\n"),
    ("matroid", "--help"): (0, MATROID_HELP, ""),
    ("frobnicate",): (
        2,
        "",
        TOP_USAGE + "dualities: error: argument domain: invalid choice: 'frobnicate' "
        "(choose from 'matroid', 'graph', 'complex', 'algebra')\n",
    ),
    ("matroid", "validate", "fano", "--bogus"): (2, "", TOP_USAGE + "dualities: error: unrecognized arguments: --bogus\n"),
    ("graph", "euler", "cube", "--trials", "5"): (
        2,
        "",
        TOP_USAGE + "dualities: error: unrecognized arguments: --trials 5\n",
    ),
}


@pytest.mark.parametrize("argv", TOP_LEVEL_OUTPUT, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_top_level_usage_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    assert (exc.value.code, out.out, out.err) == TOP_LEVEL_OUTPUT[argv]


# The positional arguments of one valid call of every command.
EXAMPLES = {
    ("matroid", "validate"): ["fano"],
    ("matroid", "dual"): ["fano"],
    ("matroid", "classify"): ["fano"],
    ("matroid", "check-duality"): ["fano"],
    ("matroid", "minor"): ["fano"],
    ("matroid", "isomorphic"): ["fano", "fano"],
    ("matroid", "has-minor"): ["fano", "fano"],
    ("graph", "platonic"): [],
    ("graph", "invariants"): ["k4"],
    ("graph", "euler"): ["k4"],
    ("graph", "dual"): ["k4"],
    ("graph", "planar"): ["k4"],
    ("graph", "blocks"): ["k4"],
    ("graph", "cycle-matroid"): ["k4"],
    ("complex", "chi"): ["sphere:2"],
    ("complex", "betti"): ["sphere:2"],
    ("complex", "named"): ["sphere:2"],
    ("complex", "index-sum"): ["sphere:2"],
    ("complex", "genus-duality"): ["torus"],
    ("algebra", "table"): [],
    ("algebra", "report"): [],
    ("algebra", "zero-divisors"): [],
    ("algebra", "cross"): ["1,0,0", "0,1,0"],
    ("algebra", "cross-check"): [],
    ("algebra", "hodge"): ["--n", "3", "1"],
    ("algebra", "chirotope"): ["1,0", "0,1"],
}

# The only commands that read --seed, --trials or --bound.
SAMPLED = {("algebra", "report"), ("algebra", "cross-check")}
BOUNDED = {("matroid", a) for a in COMMANDS["matroid"][1]} | {("graph", "planar"), ("graph", "cycle-matroid")}
LISTED = {"--seed": SAMPLED, "--trials": SAMPLED, "--bound": BOUNDED}


def test_every_command_has_an_example():
    assert set(EXAMPLES) == set(ACTIONS)


@pytest.mark.parametrize("option", sorted(LISTED))
@pytest.mark.parametrize("domain,action", ACTIONS)
def test_option_accepted_only_where_listed(capsys, domain, action, option):
    arguments = COMMANDS[domain][1][action][1]
    listed = (domain, action) in LISTED[option]
    assert any(option in flags for flags, _ in arguments) == listed
    argv = [domain, action, *EXAMPLES[domain, action], option, "1"]
    if listed:
        assert getattr(build_parser().parse_args(argv), option[2:]) == 1
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def _options(domain, action):
    """Each option the action reads, --json included, with a value."""
    arguments = COMMANDS[domain][1][action][1]
    listed = [[flags[0], "1"] for flags, _ in arguments if flags[0].startswith("-")]
    return listed + [["--json"]]


@pytest.mark.parametrize("domain,action", ACTIONS)
def test_domain_subtree_parses_as_the_full_tree(domain, action):
    """The parser built for an argument vector reads it into the namespace
    the full tree does, handler included, with and without each option."""
    example = [domain, action, *EXAMPLES[domain, action]]
    for argv in [example] + [example + option for option in _options(domain, action)]:
        assert vars(build_parser(argv).parse_args(argv)) == vars(build_parser().parse_args(argv))


def _parse_outcome(capsys, parser, argv):
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def _refused_argvs(domain):
    """Argument vectors the domain's parser refuses or answers with help."""
    actions = COMMANDS[domain][1]
    positional = next(a for a, (_, args) in actions.items() if any(not f[0].startswith("-") for f, _ in args))
    out_of_range = {"--bound": "0", "--trials": "-1"}
    argvs = [[domain], [domain, "frobnicate"], [domain, positional], [domain, "--help"]]
    for action, (_, arguments) in actions.items():
        example = [domain, action, *EXAMPLES[domain, action]]
        argvs += [[domain, action, "--help"], example + ["--bogus"]]
        argvs += [example + [f[0], out_of_range[f[0]]] for f, _ in arguments if f[0] in out_of_range]
    return argvs


@pytest.mark.parametrize("domain", COMMANDS)
def test_domain_subtree_refuses_as_the_full_tree(capsys, monkeypatch, domain):
    """Help, usage errors and out-of-range values give the same exit code
    and bytes from the domain's subtree as from the full tree."""
    monkeypatch.setenv("COLUMNS", "80")
    for argv in _refused_argvs(domain):
        full = _parse_outcome(capsys, build_parser(), argv)
        assert _parse_outcome(capsys, build_parser(argv), argv) == full, argv


@pytest.mark.parametrize("domain", COMMANDS)
def test_main_builds_only_the_named_domain(capsys, monkeypatch, domain):
    """A command builds the top parser, its domain's parser and one parser
    per action of that domain, not the 31 of the full tree."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser()
    assert len(built) == 1 + len(COMMANDS) + len(ACTIONS) == 31
    built.clear()
    action = next(iter(COMMANDS[domain][1]))
    assert main([domain, action, *EXAMPLES[domain, action]]) == 0
    assert len(built) == 2 + len(COMMANDS[domain][1])


def _stock_tree():
    """The full command tree on stock ``argparse`` formatters, each of
    which reads the terminal width for itself."""
    top = build_parser()
    parser = argparse.ArgumentParser(prog=top.prog, description=top.description)
    domains = parser.add_subparsers(dest="domain", required=True)
    for domain, (help_text, actions) in COMMANDS.items():
        sub = domains.add_parser(domain, help=help_text).add_subparsers(dest="action", required=True)
        for action, (handler, arguments) in actions.items():
            p = sub.add_parser(action)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.add_argument("--json", action="store_true", help="emit one JSON object")
            p.set_defaults(handler=handler)
    return parser


@pytest.mark.parametrize("columns", ["10", "40", "80", "200"])
def test_help_and_errors_match_stock_argparse(capsys, monkeypatch, columns):
    """At any terminal width, ``main`` prints the help and usage errors
    of a tree whose formatters each read the width for themselves."""
    monkeypatch.setenv("COLUMNS", columns)
    stock = _stock_tree()
    argvs = [[], ["--help"], ["frobnicate"]] + [argv for domain in COMMANDS for argv in _refused_argvs(domain)]
    for argv in argvs:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out = capsys.readouterr()
        assert (exc.value.code, out.out, out.err) == _parse_outcome(capsys, stock, argv), argv


@pytest.mark.parametrize("domain", COMMANDS)
def test_one_terminal_probe_per_call(capsys, monkeypatch, domain):
    """``build_parser`` reads the terminal size once, however many
    parsers, arguments and formatters it makes, and parsing, help and
    usage errors read it no more."""
    probes = []
    probe = shutil.get_terminal_size

    def counted(*args, **kwargs):
        probes.append(args)
        return probe(*args, **kwargs)

    monkeypatch.setattr(shutil, "get_terminal_size", counted)
    build_parser()
    assert len(probes) == 1
    action = next(iter(COMMANDS[domain][1]))
    argvs = [[domain, action, *EXAMPLES[domain, action]], [domain, action, "--bogus"], [domain]]
    for argv in argvs + [[domain, a, "--help"] for a in COMMANDS[domain][1]]:
        probes.clear()
        try:
            main(argv)
        except SystemExit:
            pass
        assert len(probes) == 1, argv
    capsys.readouterr()


def test_each_call_reads_the_width(capsys, monkeypatch):
    """Nothing keeps the width from one call to the next."""
    texts = []
    for columns in ("40", "200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit):
            main(["matroid", "minor", "--help"])
        texts.append(capsys.readouterr().out)
    assert texts[0] != texts[1] and texts[0] == texts[2]


@pytest.mark.parametrize(
    "argv",
    [["graph", "planar", "k33", "--json"], ["matroid", "dual", "nonesuch"]],
)
def test_python_dash_m_matches_main(capsys, argv):
    """``python -m dualities`` in a fresh interpreter gives the exit code
    and standard output of ``cli.main``."""
    code = main(list(argv))
    out = capsys.readouterr().out
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "dualities", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (code, out), proc.stderr


@pytest.mark.parametrize(
    "argv, code, read",
    [
        (["matroid", "classify", "uniform:2,14", "--bound", "14", "--json"], 0, 0),
        # 377 KB, more than a 64 KB pipe holds: the reader takes 100 bytes
        (["matroid", "dual", "uniform:7,16", "--bound", "16", "--json"], 0, 100),
        (["matroid", "validate", "bad.txt", "--json"], 1, 0),
    ],
)
def test_closed_stdout_keeps_the_exit_code(tmp_path, argv, code, read):
    """A reader that closes the pipe early, as ``| head -c 100`` does,
    gets no traceback, and the exit code is still the verdict's."""
    (tmp_path / "bad.txt").write_text("ground: 1\nbasis: 2\n")
    argv = [str(tmp_path / a) if a == "bad.txt" else a for a in argv]
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dualities", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (code, b"")


def test_bad_named_source_exit_2(capsys):
    code, _, err = run(capsys, "matroid", "dual", "nonesuch")
    assert code == 2 and "UnknownName" in err


def test_garbage_file_exit_2(capsys, tmp_path):
    path = tmp_path / "garbage.txt"
    path.write_text("this is not a matroid\n")
    code, _, err = run(capsys, "matroid", "dual", str(path))
    assert code == 2


def test_stray_element_validate_exit_1(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ground: 1\nbasis: 2\n")
    code, data = run_json(capsys, "matroid", "validate", str(path))
    assert code == 1 and data["error"] == "ElementNotInGround"


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "platonic"),
        ("graph", "euler", "cube"),
        ("graph", "invariants", "k4"),
        ("graph", "planar", "k33"),
        ("graph", "blocks", "path:3"),
        ("graph", "cycle-matroid", "triangle"),
        ("matroid", "validate", "fano"),
        ("matroid", "dual", "mk4"),
        ("matroid", "classify", "uniform:2,4"),
        ("matroid", "check-duality", "uniform:2,3"),
        ("complex", "chi", "sphere:2"),
        ("complex", "named", "genus:3"),
        ("complex", "betti", "torus"),
        ("complex", "index-sum", "genus:1"),
        ("complex", "genus-duality", "torus"),
        ("algebra", "report", "--algebra", "h", "--trials", "5"),
        ("algebra", "cross-check", "--case", "three", "--trials", "5"),
        ("algebra", "table", "--algebra", "c"),
    ],
)
def test_json_mode_is_stable(capsys, argv):
    # every json-mode object re-parses into the same canonical structure
    code, data = run_json(capsys, *argv)
    assert code == 0
    assert json.loads(json.dumps(data, sort_keys=True)) == data


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_json_output_is_byte_identical(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def test_algebra_hodge_sums_repeated_keys(capsys):
    code, data = run_json(capsys, "algebra", "hodge", "--n", "2", "1=1", "1=2")
    assert code == 0 and data["result"] == {"2": "3"}


def test_validate_missing_path_exit_2(capsys, tmp_path):
    code, out, err = run(capsys, "matroid", "validate", str(tmp_path / "nonexist.txt"))
    assert code == 2 and out == "" and "cannot read" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("matroid", "validate", "FILE:ground: 1 2 x\nbasis: 1 2\n"),
        ("matroid", "minor", "fano", "--delete", "a"),
        ("complex", "betti", "FILE:s: 1 2 a\n"),
        ("complex", "betti", "genus:x"),
        ("complex", "genus-duality", "genus:9999999999"),
        ("graph", "euler", "cycle:x"),
        ("graph", "euler", "cycle:0"),
        ("graph", "blocks", "path:0"),
        ("graph", "euler", "genus:-1"),
        ("graph", "euler", "FILE:v: 1\nrot 5:\n"),
        ("algebra", "cross", "--case", "epsilon:x", "--", "1,0"),
        ("algebra", "cross-check", "--case", "epsilon:9", "--trials", "1"),
        ("algebra", "cross", "--case", "three", "--", "1/0,1,0", "0,1,0"),
        ("algebra", "hodge", "--n", "3", "--", "1,a"),
        ("algebra", "hodge", "--n", "3", "--", "1=2/0"),
        ("algebra", "chirotope", "--", "1,0", "0,1", "x"),
        ("matroid", "validate", 'FILE:{"ground": [1, "a"], "bases": [[1]]}'),
        ("matroid", "validate", 'FILE:{"ground": [1, 2], "bases": [[1.0]]}'),
        ("matroid", "validate", 'FILE:{"bases": [[1]]}'),
        ("graph", "invariants", 'FILE:{"vertices": "x", "edges": []}'),
        ("graph", "invariants", 'FILE:{"vertices": true, "edges": []}'),
        ("graph", "invariants", 'FILE:{"vertices": 2, "edges": [[0, 1, 1]]}'),
        ("graph", "euler", 'FILE:{"vertices": 2, "edges": [[0, 1]], "rotation": [[[0, null]], [[0, 1]]]}'),
        ("graph", "euler", 'FILE:{"vertices": 2, "edges": [[0, 1]], "rotation": [[0], [[0, 1]]]}'),
        ("complex", "betti", 'FILE:{"maximal": [["a"]]}'),
        ("complex", "betti", 'FILE:{"maximal": [1, 2]}'),
        ("algebra", "table", "--algebra", "x"),
        ("graph", "euler", "k5"),
        ("graph", "invariants", "nosuch"),
        ("complex", "chi", "sphere"),
        ("complex", "chi", "genus"),
        ("matroid", "validate", "uniform:3"),
        ("graph", "invariants", 'FILE:{"vertices": -1, "edges": []}'),
        ("graph", "euler", 'FILE:{"vertices": 2, "edges": [[0, 1]], "rotation": [[[0, 0, 1]], [[0, 1]]]}'),
        ("graph", "euler", "FILE:v: 2\ne: 0 1\nrot 0: 0\nrot 1: -1\n"),
        # a missing edge, then a dart left out
        ("graph", "euler", "FILE:v: 2\ne: 0 1\nrot 0: 2\nrot 1: -1\n"),
        ("graph", "euler", "FILE:v: 3\ne: 0 1\ne: 1 2\nrot 0: 1\nrot 1: -1\nrot 2: -2\n"),
        ("matroid", "validate", 'FILE:{"ground": [1, 2], "bases": [[1'),
        ("algebra", "chirotope", "--", *(f"{i},1" for i in range(11))),
        ("algebra", "chirotope", "--", *(",".join("1" if i == j else "0" for j in range(5)) for i in range(5))),
        # a tetrahedron's boundary with a dangling edge
        ("complex", "index-sum", "FILE:s: 0 1 2\ns: 0 2 3\ns: 0 1 3\ns: 1 2 3\ns: 3 4\n"),
    ],
    ids=" ".join,
)
def test_malformed_input_exit_2(capsys, tmp_path, argv):
    argv = list(argv)
    for i, a in enumerate(argv):
        if a.startswith("FILE:"):
            path = tmp_path / "in.txt"
            path.write_text(a[5:])
            argv[i] = str(path)
    code, out, err = run(capsys, *argv[:2], "--json", *argv[2:])
    assert code == 2 and out == "" and err.startswith("error: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, key",
    [
        (("matroid", "validate", "ground: 1 2\nground: 3\nbasis: 3\n"), "'ground:'"),
        (("graph", "invariants", "v: 2\nv: 3\ne: 0 1\n"), "'v:'"),
        (("graph", "euler", "v: 1\ne: 0 0\nrot 0: 1 -1\nrot 0: -1 1\n"), "'rot 0:'"),
        (("matroid", "validate", '{"ground": [1, 2], "ground": [3], "bases": [[3]]}'), "key 'ground'"),
        (("graph", "invariants", '{"vertices": 2, "vertices": 3, "edges": []}'), "key 'vertices'"),
        (("complex", "betti", '{"maximal": [[1, 2]], "maximal": [[1]]}'), "key 'maximal'"),
    ],
    ids=lambda v: v[1] if isinstance(v, tuple) else None,
)
def test_a_repeated_one_per_file_record_exit_2(capsys, tmp_path, argv, key):
    """A second record that would silently replace the first is an input error naming it."""
    path = tmp_path / "in.txt"
    path.write_text(argv[2])
    code, out, err = run(capsys, argv[0], argv[1], str(path))
    assert code == 2 and out == "" and key in err


@pytest.mark.parametrize("source", ["v: 3000000\n", '{"vertices": 3000000, "edges": []}'])
def test_vertex_count_bound_exit_2(capsys, tmp_path, source):
    path = tmp_path / "huge.txt"
    path.write_text(source)
    start = time.perf_counter()
    code, out, err = run(capsys, "graph", "invariants", str(path))
    assert code == 2 and "4096" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "source",
    ["s: " + " ".join(map(str, range(1, 25))) + "\n", json.dumps({"maximal": [list(range(1, 25))]})],
)
def test_simplex_closure_bound_exit_2(capsys, tmp_path, source):
    """One 24-vertex simplex would close to 2^24 - 1 faces: refused at once."""
    path = tmp_path / "simplex.txt"
    path.write_text(source)
    start = time.perf_counter()
    code, out, err = run(capsys, "complex", "chi", str(path))
    assert code == 2 and out == "" and err.startswith("error: TooLarge")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("trials", ["-1", "5001", "x"])
def test_trials_out_of_range_exit_2(capsys, trials):
    with pytest.raises(SystemExit) as exc:
        main(["algebra", "report", "--algebra", "c", "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err


def test_trials_range_ends_accepted():
    for trials in (0, 5000):
        args = build_parser().parse_args(["algebra", "report", "--trials", str(trials)])
        assert args.trials == trials


@pytest.mark.parametrize("bound", ["0", "-1", "21", "257", "x"])
def test_bound_out_of_range_exit_2(capsys, bound):
    """--bound takes 1..20 on the matroid commands and 1..256 on graph planar."""
    commands = [["matroid", "validate", "fano"]] + ([] if bound == "21" else [["graph", "planar", "k4"]])
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--bound", bound])
        assert exc.value.code == 2
        assert "--bound" in capsys.readouterr().err


def test_bound_accepted(capsys):
    code, data = run_json(capsys, "graph", "planar", "cycle:5", "--bound", "5")
    assert code == 0 and data["planar"] and data["embedding"] is not None
    assert run(capsys, "graph", "planar", "cycle:5", "--bound", "4")[0] == 2
    for bound in (1, 21, 256):
        assert build_parser().parse_args(["graph", "planar", "k4", "--bound", str(bound)]).bound == bound
    for bound in (1, 20):
        assert build_parser().parse_args(["matroid", "validate", "fano", "--bound", str(bound)]).bound == bound


def test_planar_default_bound_decides_the_solids(capsys):
    """The 30-edge solids need no --bound."""
    for name in ("icosahedron", "dodecahedron"):
        code, data = run_json(capsys, "graph", "planar", name)
        assert code == 0 and data["planar"] and len(data["embedding"]["edges"]) == 30


@pytest.mark.parametrize(
    "argv",
    [
        ("matroid", "validate", "FILE"),
        ("matroid", "dual", "FILE"),
        ("matroid", "validate", "uniform:3,12"),
        ("matroid", "dual", "uniform:3,12"),
        ("matroid", "isomorphic", "uniform:1,2", "uniform:3,12"),
        ("matroid", "validate", "uniform:3,14"),
    ],
    ids=" ".join,
)
def test_ground_over_bound_exit_2(capsys, tmp_path, argv):
    """A hit --bound is an input error for a file (6 elements) or a named
    source (12 or 14), and for the target as well as the source; it never
    reads as an invalid matroid."""
    path = tmp_path / "six.txt"
    path.write_text("ground: 1 2 3 4 5 6\nbasis: 1 2\n")
    count = 6 if "FILE" in argv else int(argv[-1].split(",")[1])
    argv = [str(path) if a == "FILE" else a for a in argv]
    code, out, err = run(capsys, *argv, "--bound", "5")
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: GroundTooLarge: {count} elements exceed the bound 5"]


def test_bound_lifts_the_named_uniform_size(capsys):
    """``uniform`` takes sizes above the default bound of 12 under --bound."""
    code, data = run_json(capsys, "matroid", "validate", "uniform:3,14", "--bound", "14")
    assert code == 0 and data["valid"] and len(data["ground"]) == 14


@pytest.mark.parametrize(
    "argv, limit",
    [(("uniform:3,14",), 12), (("uniform:10,20",), 12), (("uniform:10,20", "--bound", "19"), 19)],
)
def test_refused_named_source_builds_nothing(capsys, monkeypatch, argv, limit):
    def build(*args):
        raise AssertionError(f"built {args}")

    monkeypatch.setattr(matroids, "named_matroid", build)
    monkeypatch.setattr(matroids, "make_matroid", build)
    code, out, err = run(capsys, "matroid", "validate", *argv)
    size = argv[0].split(",")[1]
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: GroundTooLarge: {size} elements exceed the bound {limit}"]


def test_zero_divisors_reads_only_the_pair_scan(capsys, monkeypatch):
    monkeypatch.setattr(algebras, "division_algebra_report", None)
    code, data = run_json(capsys, "algebra", "zero-divisors", "--algebra", "sedenion")
    assert code == 0 and data["zero_divisor"] is not None


# Tokens that are malformed, negative, huge or just out of range, mixed
# with ordinary small integers.
TOKENS = st.sampled_from(
    ["x", "", "-1", "1.5", "1/0", "-3/0", "2/3", "nan", "1e3", "64", "65", "9999999999"]
) | st.integers(-3, 9).map(str)


# JSON values of every kind, nested up to a few lists deep.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.sampled_from([1.0, 2.5, "x", "1"]),
    lambda inner: st.lists(inner, max_size=3),
    max_leaves=6,
)


@st.composite
def cheap_commands(draw, workdir):
    t = [draw(TOKENS) for _ in range(3)]

    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    def json_source(name, valid):
        # one field of a valid JSON source replaced by an arbitrary value
        data = dict(valid)
        data[draw(st.sampled_from(sorted(data)))] = draw(JSON_VALUES)
        return write(name, json.dumps(data))

    vector = ",".join(t)
    graph = draw(st.sampled_from(["cycle", "path", "genus"]))
    surface = draw(st.sampled_from(["sphere", "genus"]))
    case = draw(st.sampled_from(["epsilon", "j"]))
    nv = draw(st.integers(0, 3))
    choices = [
        ["matroid", "validate", write("m.txt", f"ground: 1 2 {t[0]}\nbasis: 1 {t[1]}\n")],
        ["matroid", "minor", "fano", "--delete", t[0], "--contract", t[1]],
        ["matroid", "dual", str(workdir / f"missing-{t[0]}.txt")],
        ["graph", "euler", f"{graph}:{t[0]}"],
        ["graph", "euler", write("g.txt", f"v: {nv}\ne: 0 {t[0]}\nrot {t[1]}: 1 {t[2]}\n")],
        ["complex", "betti", f"{surface}:{t[0]}"],
        ["complex", "betti", write("c.txt", f"s: 1 {t[0]} {t[1]}\n")],
        ["algebra", "cross", "--case", f"{case}:{t[0]}", "--", vector],
        ["algebra", "cross", "--case", "three", "--", vector, "0,1,0"],
        ["algebra", "hodge", f"--n={t[2]}", "--", f"{t[0]}={t[1]}"],
        ["algebra", "chirotope", "--", vector, "1,0,0", t[2]],
        ["matroid", "validate", json_source("m.json", {"ground": [1, 2], "bases": [[1], [2]]})],
        ["graph", "invariants", json_source("g.json", {"vertices": 2, "edges": [[0, 1]]})],
        [
            "graph",
            "euler",
            json_source("e.json", {"vertices": 2, "edges": [[0, 1]], "rotation": [[[0, 0]], [[0, 1]]]}),
        ],
        ["complex", "betti", json_source("c.json", {"maximal": [[1, 2], [2, 3]]})],
    ]
    return draw(st.sampled_from(choices))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def test_fuzz_exit_codes(workdir):
    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(cheap_commands(workdir))
    def check(argv):
        try:
            code = main(argv[:2] + ["--json"] + argv[2:])
        except SystemExit as exc:  # argparse rejects the argument vector
            code = exc.code
        assert code in (0, 1, 2)

    check()
