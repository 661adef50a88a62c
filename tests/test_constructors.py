"""Constructors and checked entry points over arbitrary values.

Each test draws ints, floats, bools, strings and short tuples and lists
into the slots of one constructor, mixed with values that are valid
there, and asserts that the call either succeeds or raises its domain's
``ValueError`` subclass.  Where a slot takes only ``int`` values (not
``bool``), any other value there must raise, and so must a container
slot (an edge list, a rotation, a table, a sign vector, an index list, a
multivector) that holds anything but its container type.  A slot that
takes any iterable (the edge list of ``make_graph``, a matroid's ground
and bases, a complex's simplices) must raise when it, or an item that
must itself be iterable, is not.  The ``formats`` readers take arbitrary
text, JSON values, deep nesting and long digit strings the same way.
"""

import json
from fractions import Fraction as F
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from dualities import algebras as A
from dualities import complexes as C
from dualities import graphs as G
from dualities import matroids as M
from dualities.formats import PARAM_MAX, json_ints, read_records, split_ident

SWEEP = settings(max_examples=300, derandomize=True, deadline=None, database=None)

# hashable values, so that they can also be drawn as dict keys
scalars = st.one_of(st.integers(-2, 9), st.floats(), st.booleans(), st.text(max_size=2))
hashables = st.one_of(scalars, st.lists(scalars, max_size=3).map(tuple))
anything = st.one_of(hashables, st.lists(scalars, max_size=3))


def is_int(x):
    return type(x) is int


def is_int_pair(x):
    return isinstance(x, tuple) and len(x) == 2 and all(map(is_int, x))


def is_iterable(x):
    return hasattr(x, "__iter__")


def holds(call, error, well_typed):
    """Run ``call``: it may raise ``error``, and must when ``well_typed``
    is false."""
    try:
        out = call()
    except error:
        return None
    assert well_typed, f"accepted {out!r}"
    return out


# an edge and a loop: vertex 0 holds dart (0, 0), vertex 1 the other three
GRAPH = G.Multigraph(2, ((0, 1), (1, 1)))
DARTS = [(0, 0), (0, 1), (1, 0), (1, 1)]


ROTATIONS = st.lists(st.lists(st.one_of(st.sampled_from(DARTS), anything), max_size=4), min_size=2, max_size=2)


@SWEEP
@given(
    st.one_of(
        ROTATIONS.map(lambda rotation: tuple(map(tuple, rotation))),
        ROTATIONS.map(tuple),
        st.lists(anything, max_size=3).map(tuple),
        anything,
    )
)
def test_embedding_over_arbitrary_darts(rotation):
    well_typed = type(rotation) is tuple and all(
        type(cyc) is tuple and all(map(is_int_pair, cyc)) for cyc in rotation
    )
    emb = holds(lambda: G.Embedding(GRAPH, rotation), G.GraphError, well_typed)
    if emb is not None:
        assert G.trace_faces(emb).face_count >= 1


EDGES = [(0, 1), (1, 1), (0, 0)]
EDGE_LIKE = st.one_of(st.sampled_from(EDGES), st.sampled_from(EDGES).map(list))
EDGE_ITEMS = st.one_of(EDGE_LIKE, anything)


@SWEEP
@given(
    n=st.one_of(st.just(2), anything),
    edges=st.one_of(
        st.lists(EDGE_LIKE, max_size=3).map(tuple),
        st.lists(EDGE_ITEMS, max_size=4).map(tuple),
        st.lists(st.sampled_from(EDGES), max_size=3),
        anything,
    ),
)
def test_multigraph_over_arbitrary_edge_lists(n, edges):
    """A ``Multigraph`` edge is a tuple of two ints, so a list edge is refused."""
    well_typed = is_int(n) and type(edges) is tuple and all(map(is_int_pair, edges))
    g = holds(lambda: G.Multigraph(n, edges), G.GraphError, well_typed)
    if g is not None:
        assert len(g.component_of) == n
        assert hash(g) == hash(G.Multigraph(n, edges))


def is_edge(x):
    """An edge of ``make_graph``: a tuple or list of two ints."""
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(map(is_int, x))


@SWEEP
@given(st.one_of(st.lists(EDGE_ITEMS, max_size=4), st.lists(EDGE_ITEMS, max_size=4).map(tuple), anything))
def test_make_graph_over_arbitrary_edge_lists(edge_list):
    well_typed = is_iterable(edge_list) and all(map(is_edge, edge_list))
    g = holds(lambda: G.make_graph(2, edge_list), G.GraphError, well_typed)
    if g is not None:
        assert g.edges == tuple(map(tuple, edge_list))
        hash(g)


BASES = [(1, 2), (1, 3), (2, 3)]
FAMILIES = st.lists(st.one_of(st.sampled_from(BASES), st.sampled_from(BASES).map(list), anything), max_size=3)


@SWEEP
@given(
    ground=st.one_of(st.just((1, 2, 3)), st.lists(st.integers(1, 3), max_size=3), anything),
    bases=st.one_of(FAMILIES, FAMILIES.map(tuple), anything),
)
def test_matroid_over_arbitrary_families(ground, bases):
    """``Matroid`` and ``make_matroid`` take any iterable ground and any
    iterable of iterable bases."""
    well_typed = is_iterable(ground) and is_iterable(bases) and all(map(is_iterable, bases))
    holds(lambda: M.Matroid(ground, bases), M.MatroidError, well_typed)
    m = holds(lambda: M.make_matroid(ground, bases), M.MatroidError, well_typed)
    if m is not None:
        assert m.bases == M.make_matroid(m.ground, m.bases).bases


SIMPLICES = [(1, 2), (2, 3), (1,)]


@SWEEP
@given(
    st.one_of(
        st.lists(st.one_of(st.sampled_from(SIMPLICES), st.sampled_from(SIMPLICES).map(list), anything), max_size=3),
        anything,
    )
)
def test_make_complex_over_arbitrary_families(family):
    well_typed = is_iterable(family) and all(is_iterable(s) and all(map(is_int, s)) for s in family)
    cx = holds(lambda: C.make_complex(family), C.ComplexError, well_typed)
    if cx is not None:
        assert set(cx.vertices) == {v for s in family for v in s}


C_TABLE = (((1, 0), (1, 1)), ((1, 1), (-1, 0)))


@SWEEP
@given(
    dim=st.one_of(st.just(2), anything),
    entry=st.one_of(st.sampled_from([(-1, 0), (1, 0), (-1, 1)]), anything),
    index=st.one_of(st.integers(-1, 2), anything),
)
def test_hypercomplex_algebra_over_arbitrary_entries(dim, entry, index):
    table = (C_TABLE[0], (C_TABLE[1][0], entry))
    alg = holds(
        lambda: A.HypercomplexAlgebra("C?", dim, table, "test"),
        A.AlgebraError,
        is_int(dim) and is_int_pair(entry),
    )
    if alg is not None:
        unit = holds(lambda: alg.e(index), A.IndexOutOfRange, is_int(index))
        if unit is not None:
            assert unit == tuple(F(int(i == index)) for i in range(2))


ROWS = st.one_of(st.sampled_from(C_TABLE), st.sampled_from(C_TABLE).map(list), anything)


@SWEEP
@given(st.one_of(st.lists(ROWS, max_size=3).map(tuple), st.just(list(C_TABLE)), anything))
def test_hypercomplex_algebra_over_arbitrary_tables(table):
    well_typed = type(table) is tuple and all(type(row) is tuple and all(map(is_int_pair, row)) for row in table)
    holds(lambda: A.HypercomplexAlgebra("C?", 2, table, "test"), A.AlgebraError, well_typed)


@SWEEP
@given(
    tag=st.one_of(st.sampled_from(["three", "seven", "triple8", "epsilon", "complex_structure"]), anything),
    n=st.one_of(st.integers(0, 10), anything),
    r=st.one_of(st.integers(0, 3), anything),
)
def test_cross_product_case_over_arbitrary_fields(tag, n, r):
    case = holds(
        lambda: A.CrossProductCase(tag, n, r),
        A.UnknownCase,
        isinstance(tag, str) and is_int(n) and is_int(r),
    )
    if case is not None:
        assert A.cross_axioms_report(case, 1).all_ok


@st.composite
def chirotope_fields(draw):
    n = draw(st.one_of(st.integers(0, 5), anything))
    r = draw(st.one_of(st.integers(0, 5), anything))
    size = comb(n, r) if is_int(n) and is_int(r) and 0 <= r <= n else draw(st.integers(0, 4))
    signs = draw(st.lists(st.one_of(st.sampled_from([-1, 0, 1]), anything), min_size=size, max_size=size))
    return n, r, draw(st.one_of(st.just(tuple(signs)), st.just(signs), anything))


@SWEEP
@given(chirotope_fields())
def test_chirotope_over_arbitrary_fields(fields):
    n, r, signs = fields
    well_typed = is_int(n) and is_int(r) and type(signs) is tuple and all(map(is_int, signs))
    holds(lambda: A.Chirotope(n, r, signs), A.BadDims, well_typed)


@st.composite
def multivectors(draw):
    key = st.one_of(st.lists(st.integers(1, 4), max_size=3, unique=True).map(lambda k: tuple(sorted(k))), hashables)
    coeff = st.one_of(st.integers(-3, 3), st.just(F(1, 2)), anything)
    return draw(st.dictionaries(key, coeff, max_size=3))


@SWEEP
@given(
    components=st.one_of(
        multivectors(),
        multivectors().map(lambda components: list(components.items())),
        multivectors().map(lambda components: components.keys()),
        anything,
    ),
    n=st.one_of(st.integers(0, 4), anything),
)
def test_hodge_dual_over_arbitrary_components(components, n):
    well_typed = (
        is_int(n)
        and type(components) is dict
        and all(isinstance(key, tuple) and all(map(is_int, key)) for key in components)
        and all(is_int(c) or type(c) is F for c in components.values())
    )
    holds(lambda: A.hodge_dual(components, n), A.AlgebraError, well_typed)


@SWEEP
@given(
    st.one_of(
        st.lists(st.one_of(st.integers(1, 4), anything), max_size=4),
        st.lists(st.integers(1, 4), max_size=4).map(tuple),
        st.sets(st.integers(1, 4), max_size=4),
        st.dictionaries(st.integers(1, 4), st.integers(1, 4), max_size=4),
        st.lists(st.integers(1, 4), max_size=4).map(iter),
        anything,
    )
)
def test_epsilon_symbol_over_arbitrary_indices(indices):
    well_typed = isinstance(indices, (list, tuple)) and all(map(is_int, indices))
    sign = holds(lambda: A.epsilon_symbol(indices), A.IndexOutOfRange, well_typed)
    assert sign in (None, -1, 0, 1)



# ---------------------------------------------------------------------------
# the formats readers


class Bad(ValueError):
    """The error class a caller hands to the readers."""


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8,
)
# deep nesting past the recursion limit, and integers past Python's digit limit
deep = st.integers(0, 200_000).map(lambda k: '{"a": ' + "[" * k + "]" * k + "}")
long_digits = st.integers(1, 10_000).map(lambda k: "9" * k)
line = st.tuples(
    st.sampled_from(["ground", "basis", "rot", "s", "x", ""]),
    st.lists(st.one_of(st.text(max_size=3), long_digits), max_size=3),
).map(lambda rec: f"{rec[0]}: {' '.join(rec[1])}")
# objects whose keys may repeat
flat_objects = st.lists(st.text(max_size=2), max_size=3).map(
    lambda keys: "{" + ", ".join(f'"{k}": 1' for k in keys) + "}"
)
texts = st.one_of(
    st.text(),
    st.lists(line, max_size=4).map("\n".join),
    json_values.map(lambda v: json.dumps({"a": v})),
    deep,
    long_digits.map(lambda digits: '{"a": [' + digits + "]}"),
    flat_objects,
)


@SWEEP
@given(texts)
def test_read_records_over_arbitrary_text(text):
    keys = {"ground": 0, "basis": 0, "rot": 1}
    out = holds(lambda: read_records(text, keys, Bad), Bad, True)
    if isinstance(out, list):
        assert all(key in keys and len(args) >= keys[key] and all(map(is_int, args)) for key, args in out)


@SWEEP
@given(st.dictionaries(st.sampled_from(["a", "b"]), json_values, max_size=2), st.integers(0, 3))
def test_json_ints_over_arbitrary_json(data, depth):
    level = [holds(lambda: json_ints(data, "a", depth, Bad), Bad, True)]
    if level != [None]:  # plain ints, ``depth`` tuples deep
        for _ in range(depth):
            assert all(type(v) is tuple for v in level)
            level = [x for v in level for x in v]
        assert all(map(is_int, level))


@SWEEP
@given(st.one_of(st.text(), st.text(max_size=8).map("uniform:".__add__), long_digits.map("genus:".__add__)))
def test_split_ident_over_arbitrary_text(ident):
    out = holds(lambda: split_ident(ident, Bad), Bad, True)
    if out is not None:
        name, params = out
        assert name == ident.partition(":")[0].lower()
        assert all(is_int(p) and 0 <= p <= PARAM_MAX for p in params)
