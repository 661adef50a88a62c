"""Constructors and checked entry points over arbitrary values.

Each test draws ints, floats, bools, strings and short tuples and lists
into the slots of one constructor, mixed with values that are valid
there, and asserts that the call either succeeds or raises its domain's
``ValueError`` subclass.  Where a slot takes only ``int`` values (not
``bool``), any other value there must raise, and so must a container
slot (an edge list, a rotation, a table, a sign vector, an index list, a
multivector) that holds anything but its container type.
"""

from fractions import Fraction as F
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from dualities import algebras as A
from dualities import graphs as G

SWEEP = settings(max_examples=300, derandomize=True, deadline=None, database=None)

# hashable values, so that they can also be drawn as dict keys
scalars = st.one_of(st.integers(-2, 9), st.floats(), st.booleans(), st.text(max_size=2))
hashables = st.one_of(scalars, st.lists(scalars, max_size=3).map(tuple))
anything = st.one_of(hashables, st.lists(scalars, max_size=3))


def is_int(x):
    return type(x) is int


def is_int_pair(x):
    return isinstance(x, tuple) and len(x) == 2 and all(map(is_int, x))


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


def is_edge(x):
    """An edge is any pair of ints: the edge list is checked as a tuple,
    each edge only by unpacking it."""
    return isinstance(x, (tuple, list)) and len(x) == 2 and all(map(is_int, x))


EDGES = [(0, 1), (1, 1), (0, 0)]


@SWEEP
@given(
    n=st.one_of(st.just(2), anything),
    edges=st.one_of(
        st.lists(st.one_of(st.sampled_from(EDGES), anything), max_size=4).map(tuple),
        st.lists(st.sampled_from(EDGES), max_size=3),
        anything,
    ),
)
def test_multigraph_over_arbitrary_edge_lists(n, edges):
    well_typed = is_int(n) and type(edges) is tuple and all(map(is_edge, edges))
    g = holds(lambda: G.Multigraph(n, edges), G.GraphError, well_typed)
    if g is not None:
        assert len(g.component_of) == n


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

