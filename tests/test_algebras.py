import itertools
import json
import math
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from dualities import algebras as A
from dualities import matroids as M
from dualities.formats import PARAM_MAX, to_json
from test_matroids import counted


def neg(x):
    return tuple(-c for c in x)


# ---------------------------------------------------------------------------
# Fraction references: the loops the library ran before its integer kernels


def ref_multiply(alg, x, y):
    """Bilinear extension of the basis table, one Fraction product per term."""
    out = [F(0)] * alg.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = alg.table[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            s, k = row[j]
            out[k] += xi * yj if s > 0 else -(xi * yj)
    return tuple(out)


def ref_det(rows):
    """Gaussian elimination over the rationals."""
    n = len(rows)
    m = [[F(x) for x in row] for row in rows]
    det = F(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return F(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return det


def ref_cross(case, vectors):
    """The defining formula of each cross-product case, on Fractions."""
    vs = [tuple(F(c) for c in v) for v in vectors]
    n = case.n
    if case.tag in ("three", "epsilon"):
        units = [[F(int(c == j)) for c in range(n)] for j in range(n)]
        return tuple(ref_det([*vs, unit]) for unit in units)
    if case.tag == "complex_structure":
        (v,) = vs
        return tuple(c for k in range(0, n, 2) for c in (-v[k + 1], v[k]))
    O = A.fano_octonion_algebra()
    if case.tag == "seven":
        return ref_multiply(O, (F(0), *vs[0]), (F(0), *vs[1]))[1:]
    a, b, c = vs
    b_conj = O.conjugate(b)
    left = ref_multiply(O, a, ref_multiply(O, b_conj, c))
    right = ref_multiply(O, c, ref_multiply(O, b_conj, a))
    return tuple((l - r) / 2 for l, r in zip(left, right))


def ref_int_mul(alg):
    """The dense integer product: every term of a per-row (j, k, sign) table."""
    rows = [[(j, k, s) for j, (s, k) in enumerate(row)] for row in alg.table]

    def mul(x, y):
        out = [0] * alg.dim
        for xi, row in zip(x, rows):
            if xi:
                for j, k, s in row:
                    out[k] += s * xi * y[j]
        return out

    return mul


def ref_pair_zero_divisor(alg):
    """The first dense x y = 0 over the e_i +- e_j vectors, in family order
    for x then y: i < j in lexicographic order, s = +1 before s = -1."""
    dim, mul = alg.dim, ref_int_mul(alg)
    family = []
    for i, j in itertools.combinations(range(dim), 2):
        for s in (1, -1):
            x = [0] * dim
            x[i], x[j] = 1, s
            family.append(x)
    for x in family:
        for y in family:
            if not any(mul(x, y)):
                return A._element(x), A._element(y)
    return None


def ref_division_algebra_report(alg, sample_count=200, seed=0):
    """Every basis pair, sample and e_i +- e_j vector as a dense vector."""
    rng = random.Random(seed)
    dim, mul = alg.dim, ref_int_mul(alg)

    def rand_element():
        return [rng.randint(-5, 5) for _ in range(dim)]

    basis = [A._unit(i, dim) for i in range(dim)]
    pairs = [(x, y) for x in basis for y in basis]
    pairs += [(rand_element(), rand_element()) for _ in range(sample_count)]

    norm_ok, norm_wit = True, None
    alt_ok, alt_wit = True, None
    for x, y in pairs:
        if norm_ok:
            xy = mul(x, y)
            if A._dot(xy, xy) != A._dot(x, x) * A._dot(y, y):
                norm_ok, norm_wit = False, (x, y)
        if alt_ok:
            xx = mul(x, x)
            if mul(xx, y) != mul(x, mul(x, y)) or mul(mul(y, x), x) != mul(y, xx):
                alt_ok, alt_wit = False, (x, y)
        if not norm_ok and not alt_ok:
            break

    if alt_ok:
        for i, j, s in A._pair_family(dim):
            x = A._pair_vector(dim, i, j, s)
            xx = mul(x, x)
            y = next((y for y in basis if mul(xx, y) != mul(x, mul(x, y))), None)
            if y is not None:
                alt_ok, alt_wit = False, (x, y)
                break

    def witness(pair):
        return None if pair is None else (A._element(pair[0]), A._element(pair[1]))

    return A.DivisionAlgebraReport(
        alg.name,
        alg.dim,
        norm_ok,
        alt_ok,
        ref_pair_zero_divisor(alg),
        witness(norm_wit),
        witness(alt_wit),
        sample_count,
        seed,
    )


def ref_cross_axioms_report(case, trials=200, seed=0):
    """Every basis tuple as dense unit vectors, with dense dots and Gram
    determinants, and a second pass over the repeated-argument tuples."""
    rng = random.Random(seed)
    n, r = case.n, case.r
    cross = A._case_kernel(case.tag, n)

    def rand_vec():
        return [rng.randint(-4, 4) for _ in range(n)]

    def shown(args):
        return tuple(A._element(a) for a in args)

    tuples = []
    if n**r <= 5000:
        tuples = [
            tuple(A._unit(i, n) for i in combo)
            for combo in itertools.product(range(n), repeat=r)
        ]
    basis_count = len(tuples)
    tuples += [tuple(rand_vec() for _ in range(r)) for _ in range(trials)]

    orth = norm = True
    witness = None
    for args in tuples:
        x = cross(args)
        if orth and any(A._dot(x, a) != 0 for a in args):
            orth, witness = False, f"orthogonality at {shown(args)}"
        if norm:
            gram = [[A._dot(a, b) for b in args] for a in args]
            if A._dot(x, x) != A._det(gram):
                norm, witness = False, witness or f"norm at {shown(args)}"
        if not orth and not norm:
            break

    multi = True
    for _ in range(max(trials, 1)):
        slot = rng.randrange(r)
        args = [rand_vec() for _ in range(r)]
        u, v = rand_vec(), rand_vec()
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        combo = [a * ui + b * vi for ui, vi in zip(u, v)]
        args_combo = list(args)
        args_combo[slot] = combo
        args_u = list(args)
        args_u[slot] = u
        args_v = list(args)
        args_v[slot] = v
        lhs = cross(args_combo)
        rhs = [a * p + b * q for p, q in zip(cross(args_u), cross(args_v))]
        if lhs != rhs:
            multi, witness = False, witness or f"multilinearity at slot {slot}"
            break

    alt = True
    if r >= 2:
        for _ in range(max(trials, 1)):
            args = [rand_vec() for _ in range(r)]
            i, j = rng.sample(range(r), 2)
            swapped = list(args)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            if [-c for c in cross(args)] != cross(swapped):
                alt, witness = False, witness or f"alternation at swap {(i, j)}"
                break
        if n**r <= 5000:
            for combo in itertools.product(range(n), repeat=r):
                if len(set(combo)) < r:
                    if any(cross([A._unit(i, n) for i in combo])):
                        alt, witness = False, witness or f"repeat args {combo} gave nonzero"
                        break

    return A.CrossAxiomsReport(
        case.tag, n, r, orth, norm, multi, alt, basis_count, trials, seed, witness
    )


def same_report(got, want):
    """Equal field by field, with the same JSON bytes (so a witness
    coordinate is a ``Fraction`` on both sides)."""
    assert got == want
    assert json.dumps(to_json(got)) == json.dumps(to_json(want))


def sympy_det(rows):
    return F(str(sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in rows]).det()))


rationals = st.builds(F, st.integers(-9, 9), st.integers(1, 7))
# a zero entry now and then makes singular matrices and zero pivots likely
sparse_rationals = st.one_of(st.just(F(0)), rationals)
PROPERTY = settings(max_examples=100, derandomize=True, deadline=None, database=None)
ALGEBRAS = ["r", "c", "h", "o", "o-fano", "sedenion"]
CROSS_IDENTS = (
    ["three", "seven", "triple8"]
    + [f"epsilon:{n}" for n in range(2, 9)]
    + [f"j:{n}" for n in (2, 4, 6, 8)]
)


def naive_det(rows):
    """Leibniz expansion, independent of the elimination path."""
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = A._perm_sign([p + 1 for p in perm])
        term = F(1)
        for i in range(n):
            term *= F(rows[i][perm[i]])
        total += sign * term
    return total


# ---------------------------------------------------------------------------
# algebra tables


def test_cd_levels():
    assert A.cayley_dickson_algebra(0).dim == 1
    assert A.cayley_dickson_algebra(3).dim == 8
    with pytest.raises(A.LevelTooLarge):
        A.cayley_dickson_algebra(5)


def test_cd_real_and_complex():
    R = A.cayley_dickson_algebra(0)
    assert R.multiply(R.e(0), R.e(0)) == R.e(0)
    C = A.cayley_dickson_algebra(1)
    assert C.multiply(C.e(1), C.e(1)) == neg(C.e(0))


def test_cd_quaternions():
    H = A.cayley_dickson_algebra(2)
    e = H.e
    assert H.multiply(e(1), e(2)) == e(3)
    assert H.multiply(e(2), e(1)) == neg(e(3))
    assert H.multiply(e(2), e(3)) == e(1)
    assert H.multiply(e(3), e(1)) == e(2)
    # associativity on all basis triples
    for i, j, k in itertools.product(range(4), repeat=3):
        lhs = H.multiply(H.multiply(e(i), e(j)), e(k))
        rhs = H.multiply(e(i), H.multiply(e(j), e(k)))
        assert lhs == rhs


def test_fano_octonion_lines():
    O = A.fano_octonion_algebra()
    assert O.multiply(O.e(1), O.e(2)) == O.e(4)
    assert O.multiply(O.e(2), O.e(1)) == neg(O.e(4))
    assert O.multiply(O.e(5), O.e(6)) == O.e(1)
    for i in range(1, 8):
        assert O.multiply(O.e(i), O.e(i)) == neg(O.e(0))


def test_identity_element():
    for alg in (A.cayley_dickson_algebra(3), A.fano_octonion_algebra()):
        rng = random.Random(1)
        x = tuple(F(rng.randint(-9, 9)) for _ in range(alg.dim))
        assert alg.multiply(alg.e(0), x) == x
        assert alg.multiply(x, alg.e(0)) == x


@pytest.mark.parametrize("i", [99, -1, 8, "1", True, 1.0])
def test_basis_index_outside_range_raises(i):
    O = A.algebra_by_name("o")
    with pytest.raises(A.IndexOutOfRange):
        O.e(i)
    assert O.e(7) == tuple(F(int(j == 7)) for j in range(8))


def test_table_shape_and_entries_are_checked():
    row0 = ((1, 0), (1, 1))
    bad = [
        (row0,),  # one row in dimension 2
        (row0, ((1, 1), (5, 9))),  # sign 5, index 9
        (row0, ((1, 1), (1, 2))),  # index 2 in dimension 2
        (row0, ((1, 1),)),  # a short row
        (row0, ((1, 1), (-1, 0)), row0),  # three rows
        (((1, 0), (1, 0)), ((1, 1), (-1, 0))),  # e_0 e_1 = e_0
        (row0, ((1, 0), (-1, 0))),  # e_1 e_0 = e_0
        (row0, ((1, 1), (-1,))),  # an entry that is not a pair
        (row0, ((1, 1), (-1.0, 0))),  # a float sign
        (row0, ((1, True), (-1, 0))),  # a bool index, equal to 1
        (row0, ((True, 1), (-1, 0))),  # a bool sign
    ]
    for table in bad:
        with pytest.raises(A.AlgebraError):
            A.HypercomplexAlgebra("bad", 2, table, "test")
    C = A.HypercomplexAlgebra("C", 2, (row0, ((1, 1), (-1, 0))), "test")
    assert C.multiply(C.e(1), C.e(1)) == neg(C.e(0))


@pytest.mark.parametrize("dim", [0, 32, True])
def test_dimension_outside_one_to_sixteen_raises(dim):
    """The product kernel is one generated sum per output index; 16 keeps
    each sum at most 256 terms, well inside what CPython compiles."""
    size = int(dim)
    table = tuple(tuple((1, i ^ j) for j in range(size)) for i in range(size))
    with pytest.raises(A.BadDims):
        A.HypercomplexAlgebra("bad", dim, table, "test")


def test_no_kernel_is_generated_at_import():
    code = (
        "import dualities\n"
        "from dualities import algebras as A, cli\n"
        "caches = (A._minor_kernel, A._case_kernel, A._gram_kernel, A._lin_kernel,"
        " A.cayley_dickson_algebra, A.fano_octonion_algebra)\n"
        "print(*(f.cache_info().currsize for f in caches))\n"
    )
    src = str(Path(A.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60,
    )
    assert out.stdout.split() == ["0"] * 6, out.stderr


def test_table_check_survives_optimize_flag():
    # asserts vanish under python -O; the table check must not
    code = (
        "from dualities import algebras as A\n"
        "try:\n"
        "    A.HypercomplexAlgebra('bad', 2, (((1, 0), (1, 1)), ((1, 1), (5, 9))), 't')\n"
        "except A.AlgebraError:\n"
        "    print('rejected')\n"
    )
    src = str(Path(A.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True, text=True, env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=60,
    )
    assert out.stdout.strip() == "rejected", out.stderr


def test_scalars_must_be_int_or_fraction():
    H = A.cayley_dickson_algebra(2)
    case = A.cross_case("three")
    for bad in (0.1, 1.0, "1", "1/2", True, None, 1j):
        with pytest.raises(A.AlgebraError):
            A.as_element([1, bad])
        with pytest.raises(A.AlgebraError):
            H.element([bad, 0, 0, 0])
        with pytest.raises(A.AlgebraError):
            H.multiply(H.e(1), (F(1), bad, F(0), F(0)))
        with pytest.raises(A.AlgebraError):
            A.norm_and_conjugate(H, (F(1), bad, F(0), F(0)))
        with pytest.raises(A.AlgebraError):
            A.cross_product(case, [[bad, 0, 0], [0, 1, 0]])
        with pytest.raises(A.AlgebraError):
            A.det_rational([[1, bad], [0, 1]])
        with pytest.raises(A.AlgebraError):
            A.hodge_dual({(1,): bad}, 3)
        with pytest.raises(A.AlgebraError):
            A.chirotope_of_configuration([[1, 0], [bad, 1]])
    with pytest.raises(A.DimMismatch):
        A.norm_and_conjugate(H, (F(1), F(0)))
    assert A.as_element([2, F(1, 3)]) == (F(2), F(1, 3))
    assert all(type(c) is F for c in A.as_element([2, F(1, 3)]))


def test_multiply_dim_mismatch():
    H = A.cayley_dickson_algebra(2)
    with pytest.raises(A.DimMismatch):
        H.multiply(H.e(0), (F(1),))


def test_quaternion_difference_of_squares():
    H = A.cayley_dickson_algebra(2)
    x = H.element([1, 1, 0, 0])
    y = H.element([1, -1, 0, 0])
    assert H.multiply(x, y) == H.element([2, 0, 0, 0])


def test_bilinearity():
    O = A.fano_octonion_algebra()
    rng = random.Random(3)
    for _ in range(20):
        x = tuple(F(rng.randint(-5, 5)) for _ in range(8))
        y = tuple(F(rng.randint(-5, 5)) for _ in range(8))
        two_x = tuple(2 * c for c in x)
        three_y = tuple(3 * c for c in y)
        assert O.multiply(two_x, three_y) == tuple(6 * c for c in O.multiply(x, y))


# ---------------------------------------------------------------------------
# norms and conjugation


def test_norm_and_conjugate_basis():
    O = A.fano_octonion_algebra()
    n, c = A.norm_and_conjugate(O, O.e(3))
    assert n == 1 and c == neg(O.e(3))


def test_norm_sum_of_squares():
    O = A.fano_octonion_algebra()
    x = O.element([1, 1, 1, 0, 1, 0, 0, 0])
    assert O.norm_sq(x) == 4


def test_x_times_conjugate_is_norm():
    H = A.cayley_dickson_algebra(2)
    rng = random.Random(8)
    for _ in range(25):
        x = tuple(F(rng.randint(-6, 6)) for _ in range(4))
        n, c = A.norm_and_conjugate(H, x)
        expected = tuple(n if i == 0 else F(0) for i in range(4))
        assert H.multiply(x, c) == expected


def test_conjugation_involution_and_antihomomorphism():
    for alg in (A.cayley_dickson_algebra(3), A.fano_octonion_algebra()):
        for i, j in itertools.product(range(alg.dim), repeat=2):
            x, y = alg.e(i), alg.e(j)
            assert alg.conjugate(alg.conjugate(x)) == x
            assert alg.conjugate(alg.multiply(x, y)) == alg.multiply(
                alg.conjugate(y), alg.conjugate(x)
            )


# ---------------------------------------------------------------------------
# division-algebra reports


@pytest.mark.parametrize("name", ["r", "c", "h", "o", "o-fano"])
def test_division_algebras_pass(name):
    alg = A.algebra_by_name(name)
    rep = A.division_algebra_report(alg, sample_count=100, seed=5)
    assert rep.norm_multiplicative
    assert rep.alternative
    assert rep.zero_divisor is None


def test_sedenions_fail():
    S = A.cayley_dickson_algebra(4)
    rep = A.division_algebra_report(S, sample_count=100, seed=5)
    assert not rep.norm_multiplicative
    assert not rep.alternative
    assert rep.zero_divisor is not None
    x, y = rep.zero_divisor
    zero = tuple(F(0) for _ in range(16))
    assert x != zero and y != zero
    assert S.multiply(x, y) == zero


def E(*coeffs):
    return tuple(F(c) for c in coeffs)


SEDENION_ZERO_DIVISOR = (
    E(0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0),
    E(0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1),
)
# the first random sample fails both norm composition and alternativity
SEDENION_FIRST_FAILURE = {
    0: (
        E(1, 1, -5, -1, 3, 2, 1, -1, 2, 0, 4, -2, 3, -3, -1, -3),
        E(-4, 4, -1, 3, 4, -3, -1, -4, -4, 5, 0, 2, 3, -4, 0, 1),
    ),
    1: (
        E(-3, 4, -4, -1, -4, 2, 2, 2, 5, 1, -2, -4, 2, -5, 1, 1),
        E(4, -5, 2, -1, -2, 4, -4, 0, -5, -5, -5, 5, 3, -5, 1, 5),
    ),
    2: (
        E(-5, -4, -4, 0, -3, 5, -1, -1, 4, -2, 4, -5, 4, 5, -3, 1),
        E(5, 1, 3, 0, 3, 2, 3, -1, -5, -5, 0, 2, 0, 1, 1, 3),
    ),
    3: (
        E(-2, 4, 3, -3, 0, 4, 2, 5, 4, -4, 4, -5, 2, -1, 3, -2),
        E(-2, 2, 3, 3, 2, 1, 5, -3, -2, 5, -3, 3, 1, -5, 5, -4),
    ),
}


@pytest.mark.parametrize("seed", sorted(SEDENION_FIRST_FAILURE))
def test_sedenion_witnesses_pinned(seed):
    rep = A.division_algebra_report(A.cayley_dickson_algebra(4), sample_count=12, seed=seed)
    assert rep.zero_divisor == SEDENION_ZERO_DIVISOR
    assert rep.norm_witness == SEDENION_FIRST_FAILURE[seed]
    assert rep.alternative_witness == SEDENION_FIRST_FAILURE[seed]
    for pair in (rep.zero_divisor, rep.norm_witness, rep.alternative_witness):
        assert all(type(c) is F for v in pair for c in v)


def test_fano_and_cd_octonions_share_profile():
    a = A.division_algebra_report(A.cayley_dickson_algebra(3), 50, seed=2)
    b = A.division_algebra_report(A.fano_octonion_algebra(), 50, seed=2)
    assert (a.norm_multiplicative, a.alternative, a.zero_divisor) == (
        b.norm_multiplicative,
        b.alternative,
        b.zero_divisor,
    )


def test_cancels_matches_the_vector_sum():
    codes = [c for k in range(1, 4) for c in (k, -k)]
    for terms in itertools.product(codes, repeat=4):
        total = [0] * 4
        for c in terms:
            total[abs(c)] += 1 if c > 0 else -1
        assert A._cancels(*terms) == (not any(total)), terms


COUNTS = st.integers(0, 50)
SEEDS = st.integers(0, 2**20)
REPORT_PROPERTY = settings(max_examples=6, derandomize=True, deadline=None, database=None)


@pytest.mark.parametrize("name", ALGEBRAS)
@REPORT_PROPERTY
@given(count=COUNTS, seed=SEEDS)
def test_division_report_matches_reference(name, count, seed):
    alg = A.algebra_by_name(name)
    same_report(
        A.division_algebra_report(alg, count, seed),
        ref_division_algebra_report(alg, count, seed),
    )


@pytest.mark.parametrize("name", ALGEBRAS)
def test_division_report_matches_reference_on_seeds(name):
    alg = A.algebra_by_name(name)
    for seed in range(21):
        same_report(
            A.division_algebra_report(alg, 30, seed),
            ref_division_algebra_report(alg, 30, seed),
        )


@st.composite
def perturbed_algebras(draw, most=3):
    """A Cayley-Dickson table with 1 to ``most`` entries off row and column
    0 replaced by a random (+-1, k)."""
    level = draw(st.integers(1, 4))
    dim = 1 << level
    table = [list(row) for row in A.cayley_dickson_algebra(level).table]
    cell = st.tuples(st.integers(1, dim - 1), st.integers(1, dim - 1))
    for i, j in draw(st.lists(cell, min_size=1, max_size=most, unique=True)):
        table[i][j] = (draw(st.sampled_from((1, -1))), draw(st.integers(0, dim - 1)))
    return A.HypercomplexAlgebra("perturbed", dim, tuple(map(tuple, table)), "test")


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(alg=perturbed_algebras(), count=st.integers(0, 12), seed=SEEDS)
def test_division_report_matches_reference_on_perturbed_tables(alg, count, seed):
    same_report(
        A.division_algebra_report(alg, count, seed),
        ref_division_algebra_report(alg, count, seed),
    )


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(alg=perturbed_algebras(most=6))
def test_pair_zero_divisor_matches_dense_scan_on_perturbed_tables(alg):
    got = A._pair_zero_divisor(alg)
    assert got == ref_pair_zero_divisor(alg)
    if got is not None:
        assert all(type(c) is F for v in got for c in v)


@st.composite
def collided_algebras(draw):
    """A Cayley-Dickson table whose rows i and j (0 < i < j) each send
    three or more columns to one signed basis element, so that x e_k is
    the same vector for all those k when x = e_i +- e_j."""
    level = draw(st.integers(2, 4))
    dim = 1 << level
    table = [list(row) for row in A.cayley_dickson_algebra(level).table]
    i, j = sorted(draw(st.lists(st.integers(1, dim - 1), min_size=2, max_size=2, unique=True)))
    columns = draw(st.lists(st.integers(1, dim - 1), min_size=3, max_size=5, unique=True))
    for row in (i, j):
        entry = (draw(st.sampled_from((1, -1))), draw(st.integers(0, dim - 1)))
        for c in columns:
            table[row][c] = entry
    return A.HypercomplexAlgebra("collided", dim, tuple(map(tuple, table)), "test")


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(alg=collided_algebras())
def test_pair_zero_divisor_matches_dense_scan_on_collided_tables(alg):
    assert A._pair_zero_divisor(alg) == ref_pair_zero_divisor(alg)


@st.composite
def algebras_with_int_vectors(draw):
    """A named, perturbed or collided algebra and two integer vectors with
    zeros now and then."""
    alg = draw(
        st.one_of(
            st.sampled_from(ALGEBRAS).map(A.algebra_by_name), perturbed_algebras(), collided_algebras()
        )
    )
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    x = draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim))
    y = draw(st.lists(entry, min_size=alg.dim, max_size=alg.dim))
    return alg, x, y


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(algebras_with_int_vectors())
def test_generated_product_is_the_dense_loop(drawn):
    alg, x, y = drawn
    got = alg._mul(x, y)
    assert got == ref_int_mul(alg)(x, y)
    assert all(type(c) is int for c in got)


def test_each_kernel_is_generated_once():
    alg = A.HypercomplexAlgebra("O", 8, A.cayley_dickson_algebra(3).table, "test")
    assert "_mul" not in vars(alg)  # not at construction
    assert alg._mul is alg._mul
    A._minors([[1, 2, 3], [4, 5, 6]], 3)
    misses = A._minor_kernel.cache_info().misses
    assert A._minors([[7, 8, 9], [1, 0, 2]], 3) == minors_by_det([[7, 8, 9], [1, 0, 2]], 3)
    assert A._minor_kernel.cache_info().misses == misses
    assert A._minor_kernel(2, 3) is A._minor_kernel(2, 3)
    assert A._case_kernel("three", 3) is A._case_kernel("three", 3)
    assert A._case_kernel("complex_structure", 6) is A._case_kernel("complex_structure", 6)
    assert A._gram_kernel(2, 3) is A._gram_kernel(2, 3)
    assert A._lin_kernel(3) is A._lin_kernel(3)
    # a second report of a shape generates nothing
    kernels = (A._case_kernel, A._gram_kernel, A._lin_kernel)
    A.cross_axioms_report(A.cross_case("j:6"), 2, 0)
    misses = [k.cache_info().misses for k in kernels]
    A.cross_axioms_report(A.cross_case("j:6"), 5, 1)
    assert [k.cache_info().misses for k in kernels] == misses


def test_algebra_pickles_after_a_product():
    O = A.algebra_by_name("o")
    O.multiply(O.e(1), O.e(2))
    copy = pickle.loads(pickle.dumps(O))
    assert copy == O and copy.multiply(O.e(1), O.e(2)) == O.multiply(O.e(1), O.e(2))
    # objects holding every cached table fact a report reads
    holders = [(sedenions(), A.division_algebra_report), (A.cross_case("triple8"), A.cross_axioms_report)]
    for obj, report in holders:
        first = report(obj, 0, 3)
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj
        same_report(report(copy, 0, 3), first)
        same_report(report(obj, 0, 3), first)
    # the resolved kernel stays off the case: only the fields and the basis verdict
    case = A.cross_case("three")
    first = A.cross_axioms_report(case, 8, 5)
    assert set(vars(case)) == {"tag", "n", "r", "_basis_verdict"}
    copy = pickle.loads(pickle.dumps(case))
    assert copy == case
    same_report(A.cross_axioms_report(copy, 8, 5), first)


DIVISION_FACTS = ("_basis_alternative_witness", "_family_alternative_witness", "_zero_divisor")


def sedenions():
    """A fresh algebra object with the sedenion table and no cached facts."""
    return A.HypercomplexAlgebra("S", 16, A.cayley_dickson_algebra(4).table, "test")


def test_division_report_computes_table_facts_once(monkeypatch):
    zero_divisor_calls = counted(monkeypatch, A, "_pair_zero_divisor")
    assoc_calls = counted(monkeypatch, A.HypercomplexAlgebra, "_assoc")
    S = sedenions()
    first = A.division_algebra_report(S, 0, seed=1)
    assert all(fact in vars(S) for fact in DIVISION_FACTS)
    assert len(zero_divisor_calls) == 1 and zero_divisor_calls[0] is S
    scanned = len(assoc_calls)
    same_report(A.division_algebra_report(S, 0, seed=1), first)
    A.division_algebra_report(S, 7, seed=2)
    assert len(zero_divisor_calls) == 1 and len(assoc_calls) == scanned
    # a fresh object with the same table computes its own facts
    fresh = sedenions()
    same_report(A.division_algebra_report(fresh, 0, seed=1), first)
    assert len(zero_divisor_calls) == 2 and zero_divisor_calls[1] is fresh
    assert len(assoc_calls) == 2 * scanned


def test_first_division_report_skips_the_family_when_samples_fail():
    S = sedenions()
    rep = A.division_algebra_report(S, sample_count=12, seed=0)
    assert rep.alternative_witness == SEDENION_FIRST_FAILURE[0]
    assert "_family_alternative_witness" not in vars(S)
    assert "_basis_alternative_witness" in vars(S) and "_zero_divisor" in vars(S)
    rep = A.division_algebra_report(S, sample_count=0, seed=0)
    assert rep.alternative_witness is not None
    assert vars(S)["_family_alternative_witness"] == rep.alternative_witness


def test_cross_report_reads_the_basis_tuples_once(monkeypatch):
    """The first report on a case object runs the kernel once on each
    basis tuple, in product order, before any random tuple; a later report
    on that object runs only its random tuples, and a fresh object makes
    its own basis pass."""
    runs = []
    break_kernels(monkeypatch, lambda x, vs: runs.append(vs) or x)

    def report(case, trials, seed):
        before = len(runs)
        return A.cross_axioms_report(case, trials, seed), runs[before:]

    case = A.cross_case("triple8")
    basis = [[A._unit(i, 8) for i in combo] for combo in itertools.product(range(8), repeat=3)]
    first, cold = report(case, 3, seed=1)
    assert cold[: len(basis)] == basis
    rep, warm = report(case, 3, seed=1)
    same_report(rep, first)
    assert warm == cold[len(basis) :]
    assert len(report(case, 5, seed=2)[1]) < len(basis)
    rep, fresh = report(A.cross_case("triple8"), 3, seed=1)
    same_report(rep, first)
    assert fresh == cold
    # more than 5000 basis tuples: no basis pass
    case = A.cross_case("epsilon:8")
    rep, cold = report(case, 1, seed=0)
    assert rep.basis_tuples == 0
    assert report(case, 1, seed=0)[1] == cold


@st.composite
def oriented_algebras(draw):
    """e_a e_b = +-e_(a xor b), every imaginary unit squaring to -1, units
    anticommuting, and each triple {a, b, a xor b} given a random
    orientation.  Such a table is alternative on basis pairs, so the
    e_i + e_j family decides alternativity when no sample fails first."""
    rnd = draw(st.randoms(use_true_random=False))
    dim = 1 << draw(st.integers(2, 4))
    table = [[(1, a ^ b) for b in range(dim)] for a in range(dim)]
    for a in range(1, dim):
        table[a][a] = (-1, 0)
        for b in range(a + 1, dim):
            if a ^ b > b:  # each triple once, as a < b < a xor b
                s = rnd.choice((1, -1))
                for x, y in ((a, b), (b, a ^ b), (a ^ b, a)):
                    table[x][y], table[y][x] = (s, x ^ y), (-s, x ^ y)
    return A.HypercomplexAlgebra("oriented", dim, tuple(map(tuple, table)), "test")


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(alg=oriented_algebras(), count=st.integers(0, 2), seed=SEEDS)
def test_division_report_matches_reference_on_oriented_tables(alg, count, seed):
    same_report(
        A.division_algebra_report(alg, count, seed),
        ref_division_algebra_report(alg, count, seed),
    )


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(alg=st.one_of(perturbed_algebras(), oriented_algebras()))
def test_family_fact_read_first_is_the_zero_sample_witness(alg):
    # read before any report: the family fact must not depend on a report
    # having checked the basis pairs first
    want = ref_division_algebra_report(alg, 0).alternative_witness
    assert alg._family_alternative_witness == want


def kept_facts(obj, names, before):
    """The cached facts ``obj`` holds now, after checking that each one in
    ``before`` is still the very same object."""
    now = {name: vars(obj)[name] for name in names if name in vars(obj)}
    assert all(now[name] is fact for name, fact in before.items())
    return now


REPORT_RUNS = st.lists(st.tuples(st.integers(0, 6), SEEDS), min_size=2, max_size=4)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(alg=st.one_of(perturbed_algebras(), oriented_algebras()), runs=REPORT_RUNS)
def test_division_reports_on_one_algebra_match_reference(alg, runs):
    facts = {}
    for count, seed in runs:
        same_report(
            A.division_algebra_report(alg, count, seed),
            ref_division_algebra_report(alg, count, seed),
        )
        facts = kept_facts(alg, DIVISION_FACTS, facts)


def test_sedenion_alternativity_witness_from_pair_family():
    S = A.cayley_dickson_algebra(4)
    for seed in range(3):
        rep = A.division_algebra_report(S, sample_count=0, seed=seed)
        same_report(rep, ref_division_algebra_report(S, 0, seed))
        x, y = rep.alternative_witness
        assert sum(1 for c in x if c) == 2 and sum(1 for c in y if c) == 1
        assert S.multiply(S.multiply(x, x), y) != S.multiply(x, S.multiply(x, y))


@pytest.mark.parametrize("count", [-1, -3, A.TRIALS_MAX + 1, True, 2.0])
def test_report_counts_outside_bounds_raise(count):
    with pytest.raises(A.AlgebraError):
        A.division_algebra_report(A.algebra_by_name("o"), sample_count=count)
    with pytest.raises(A.AlgebraError):
        A.cross_axioms_report(A.cross_case("three"), trials=count)


@pytest.mark.parametrize("seed", [None, 7.0, "7", True, False])
def test_report_seeds_must_be_ints(seed):
    """A report echoes its seed, so one that does not fix the draws (None
    draws from the OS) is refused rather than echoed."""
    with pytest.raises(A.AlgebraError, match="seed must be an int"):
        A.division_algebra_report(A.algebra_by_name("sedenion"), 12, seed)
    with pytest.raises(A.AlgebraError, match="seed must be an int"):
        A.cross_axioms_report(A.cross_case("three"), 8, seed)


@pytest.mark.parametrize("seed", [-3, 0, 2**70])
def test_report_seeds_are_any_int(seed):
    S, case = A.algebra_by_name("sedenion"), A.cross_case("three")
    assert A.division_algebra_report(S, 2, seed) == A.division_algebra_report(S, 2, seed)
    assert A.division_algebra_report(S, 2, seed).seed == seed
    assert A.cross_axioms_report(case, 2, seed).seed == seed


@pytest.mark.parametrize("lo, hi", [(-5, 5), (-4, 4), (-3, 3), (0, 0), (0, 7), (0, 8)])
def test_randints_draws_what_randint_draws(lo, hi):
    for seed in range(200):
        count = seed % 23
        rng, want_rng = random.Random(seed), random.Random(seed)
        got = A._randints(rng, lo, hi, count)
        want = [want_rng.randint(lo, hi) for _ in range(count)]
        assert got == want, seed
        assert rng.random() == want_rng.random(), seed


def test_index_draws_are_what_randrange_and_sample_draw():
    """``_randbelow`` for ``randrange(r)``, and two of them with the pool
    swap for ``sample(range(r), 2)``, as ``cross_axioms_report`` draws."""
    for r in range(1, 9):
        for seed in range(500):
            rng, want_rng = random.Random(seed), random.Random(seed)
            assert A._randbelow(rng, r) == want_rng.randrange(r), (r, seed)
            assert rng.getstate() == want_rng.getstate(), (r, seed)
            if r < 2:
                continue
            rng, want_rng = random.Random(seed), random.Random(seed)
            i, j = A._randbelow(rng, r), A._randbelow(rng, r - 1)
            if j == i:
                j = r - 1
            assert [i, j] == want_rng.sample(range(r), 2), (r, seed)
            assert rng.getstate() == want_rng.getstate(), (r, seed)


def test_report_count_bounds_accepted():
    R = A.cayley_dickson_algebra(0)
    for count in (0, A.TRIALS_MAX):
        assert A.division_algebra_report(R, sample_count=count).samples == count
        assert A.cross_axioms_report(A.cross_case("j:2"), trials=count).trials == count


# ---------------------------------------------------------------------------
# epsilon symbol and determinants


def test_epsilon_symbol():
    assert A.epsilon_symbol([1, 2, 3]) == 1
    assert A.epsilon_symbol([2, 1, 3]) == -1
    assert A.epsilon_symbol([1, 1, 3]) == 0
    with pytest.raises(A.IndexOutOfRange):
        A.epsilon_symbol([1, 2, 4])


@pytest.mark.parametrize("indices", [["a"], [2.0, 1], [1, True], [F(1)], [(1,)], [None, 1]])
def test_epsilon_symbol_takes_only_int_indices(indices):
    with pytest.raises(A.IndexOutOfRange):
        A.epsilon_symbol(indices)


def test_det_matches_naive():
    rng = random.Random(14)
    for n in range(1, 5):
        for _ in range(10):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert A.det_rational(rows) == naive_det(rows)


@PROPERTY
@given(st.integers(0, 6).flatmap(lambda n: st.lists(st.lists(sparse_rationals, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_sympy(rows):
    assert A.det_rational(rows) == sympy_det(rows) == ref_det(rows)


def test_det_singular_and_zero_first_pivot():
    rows = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]  # zero first pivot, singular
    assert A.det_rational(rows) == 0 == sympy_det(rows)
    rows = [[0, F(1, 2), 2], [F(3, 4), 4, 5], [6, 7, F(-8, 3)]]
    assert A.det_rational(rows) == sympy_det(rows) != 0
    assert A.det_rational([[0, 0], [0, 1]]) == 0
    assert A.det_rational([]) == 1
    with pytest.raises(A.BadDims):
        A.det_rational([[1, 2], [3]])


@pytest.mark.parametrize("name", ALGEBRAS)
def test_multiply_matches_reference(name):
    alg = A.algebra_by_name(name)
    elements = st.lists(sparse_rationals, min_size=alg.dim, max_size=alg.dim).map(tuple)

    @PROPERTY
    @given(elements, elements)
    def check(x, y):
        got = alg.multiply(x, y)
        assert got == ref_multiply(alg, x, y)
        assert all(type(c) is F for c in got)

    check()


@pytest.mark.parametrize("ident", CROSS_IDENTS)
def test_cross_product_matches_reference(ident):
    case = A.cross_case(ident)
    vector = st.lists(sparse_rationals, min_size=case.n, max_size=case.n)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(st.lists(vector, min_size=case.r, max_size=case.r))
    def check(vectors):
        got = A.cross_product(case, vectors)
        assert got == ref_cross(case, vectors)
        assert all(type(c) is F for c in got)

    check()


@PROPERTY
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.lists(
            st.lists(sparse_rationals, min_size=r, max_size=r), min_size=r, max_size=8
        )
    )
)
def test_chirotope_signs_match_sympy(points):
    r = len(points[0])
    want = []
    for combo in itertools.combinations(range(len(points)), r):
        d = sympy_det([[points[c][row] for c in combo] for row in range(r)])
        want.append((d > 0) - (d < 0))
    if not any(want):
        with pytest.raises(A.RankDeficient):
            A.chirotope_of_configuration(points)
    else:
        assert list(A.chirotope_of_configuration(points).signs) == want


def minors_by_det(rows, n):
    """Every maximal minor as its own Bareiss determinant, in combination
    order of the column sets."""
    return [
        A._det([[row[c] for c in cols] for row in rows])
        for cols in itertools.combinations(range(n), len(rows))
    ]


@st.composite
def int_matrices(draw):
    """(rows, n): r <= 4 rows of n <= 10 integers, or r = n - 1 <= 7, with
    a zero row or a zero column now and then."""
    if draw(st.booleans()):
        r, n = draw(st.integers(0, 4)), draw(st.integers(0, 10))
    else:
        n = draw(st.integers(1, 8))
        r = n - 1
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(r)]
    if r and draw(st.booleans()):
        rows[draw(st.integers(0, r - 1))] = [0] * n
    if n and draw(st.booleans()):
        c = draw(st.integers(0, n - 1))
        for row in rows:
            row[c] = 0
    return rows, n


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(int_matrices())
def test_minors_are_the_determinants_of_the_column_sets(matrix):
    rows, n = matrix
    assert A._minors(rows, n) == minors_by_det(rows, n)


def test_minors_on_fixed_shapes():
    assert A._minors([], 0) == [1] == A._minors([], 5)
    assert A._minors([[0, 0, 0], [1, 2, 3]], 3) == [0, 0, 0]
    assert A._minors([[1, 2], [3, 4]], 2) == [-2]
    assert A._minors([[1], [2]], 1) == []  # r > n: no column set


configurations = st.integers(1, 4).flatmap(
    lambda r: st.lists(
        st.lists(st.one_of(st.just(F(0)), st.integers(-2, 2).map(F), rationals), min_size=r, max_size=r),
        min_size=1,
        max_size=10,
    )
)


@PROPERTY
@given(configurations)
def test_support_matroid_is_the_validated_tuple_family(points):
    try:
        ch = A.chirotope_of_configuration(points)
    except A.RankDeficient:
        return
    n, r = len(points), len(points[0])
    subsets = itertools.combinations(range(1, n + 1), r)
    bases = [s for s, sg in zip(subsets, ch.signs) if sg]
    got = ch.support_matroid()
    assert got == M.make_matroid(range(1, n + 1), bases)
    assert got.to_json_dict() == M.make_matroid(range(1, n + 1), bases).to_json_dict()


def matroid_outcome(build):
    try:
        m = build()
    except M.MatroidError as exc:
        return type(exc), str(exc)
    return m.ground, m.bases


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.integers(1, 13).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(1, min(n, 3)).flatmap(
                lambda r: st.tuples(
                    st.just(r),
                    st.lists(
                        st.sampled_from((-1, 0, 0, 1)),
                        min_size=math.comb(n, r),
                        max_size=math.comb(n, r),
                    ),
                )
            ),
        )
    )
)
def test_support_matroid_of_any_signs_fails_as_make_matroid_does(shape):
    """A hand-built chirotope's support need not be a matroid: the mask
    path raises what ``make_matroid`` on the tuples raises, witness and
    message included (an empty support, an exchange failure, a ground
    above the bound)."""
    n, (r, signs) = shape
    ch = A.Chirotope(n, r, tuple(signs))
    subsets = itertools.combinations(range(1, n + 1), r)
    bases = [s for s, sg in zip(subsets, signs) if sg]
    assert matroid_outcome(ch.support_matroid) == matroid_outcome(
        lambda: M.make_matroid(range(1, n + 1), bases)
    )


@pytest.mark.parametrize(
    "n, r, signs",
    [
        (4, 2, (1,)),  # one sign for six 2-subsets
        (3, 2, (1,) * 5),  # extra signs
        (3, -1, (1,)),  # a negative rank
        (2, 3, ()),  # a rank above n
        (F(3), 1, (1, 1, 0)),  # a non-int n
        (3, 1, (1, 2, 0)),  # a sign outside -1..1
        (3, 1, (1, True, 0)),  # a bool sign
        (10**9, 5 * 10**8, (1,)),  # a short vector, refused before C(n, r) is computed
        (3, 2, ([1], 1, 1)),  # a list sign, refused by its type before the set test hashes it
        (3, 2, (1, -1, [0])),
    ],
)
def test_chirotope_fields_are_checked(n, r, signs):
    with pytest.raises(A.BadDims):
        A.Chirotope(n, r, signs)


def test_chirotope_edge_shapes_are_accepted():
    assert A.Chirotope(0, 0, (1,)).by_subset == {(): 1}
    assert A.Chirotope(3, 3, (-1,)).sign((3, 1, 2)) == -1


# ---------------------------------------------------------------------------
# cross products


def test_cross_three():
    case = A.cross_case("three")
    assert A.cross_product(case, [[1, 0, 0], [0, 1, 0]]) == A.as_element([0, 0, 1])


def test_cross_seven_from_table():
    case = A.cross_case("seven")
    O = A.fano_octonion_algebra()
    rng = random.Random(6)
    for _ in range(10):
        x = [F(rng.randint(-3, 3)) for _ in range(7)]
        y = [F(rng.randint(-3, 3)) for _ in range(7)]
        got = A.cross_product(case, [x, y])
        full = O.multiply((F(0), *x), (F(0), *y))
        assert got == full[1:]
    e1 = [1, 0, 0, 0, 0, 0, 0]
    e2 = [0, 1, 0, 0, 0, 0, 0]
    assert A.cross_product(case, [e1, e2]) == A.as_element([0, 0, 0, 1, 0, 0, 0])


def test_cross_epsilon_n4():
    case = A.cross_case("epsilon:4")
    args = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert A.cross_product(case, args) == A.as_element([0, 0, 0, 1])


def test_cross_three_equals_epsilon_three():
    rng = random.Random(4)
    c3 = A.cross_case("three")
    e3 = A.cross_case("epsilon:3")
    for _ in range(10):
        x = [rng.randint(-5, 5) for _ in range(3)]
        y = [rng.randint(-5, 5) for _ in range(3)]
        assert A.cross_product(c3, [x, y]) == A.cross_product(e3, [x, y])


def test_complex_structure_squares_to_minus_one():
    for n in (2, 4, 6, 8):
        case = A.cross_case(f"j:{n}")
        for i in range(n):
            v = [F(1) if j == i else F(0) for j in range(n)]
            jv = A.cross_product(case, [v])
            jjv = A.cross_product(case, [jv])
            assert jjv == neg(tuple(v))


def test_triple8_orthogonality_example():
    case = A.cross_case("triple8")
    args = [
        [0, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
    ]
    x = A.cross_product(case, args)
    assert any(c != 0 for c in x)
    for a in args:
        assert A._dot(x, a) == 0


MONOMIAL_COEFFS = [1, -1, 2, -2, 3, -3]
coeffs8 = st.sampled_from(MONOMIAL_COEFFS + [F(1, 2), F(-3, 2), F(2, 3), F(-1, 3)])
monomials8 = st.builds(
    lambda k, c: [c if i == k else 0 for i in range(8)], st.integers(0, 7), coeffs8
)
# two nonzero entries: one more than the table path takes
binomials8 = st.builds(
    lambda ks, c, d: [c if i == ks[0] else d if i == ks[1] else 0 for i in range(8)],
    st.lists(st.integers(0, 7), min_size=2, max_size=2, unique=True),
    coeffs8,
    coeffs8,
)
dense8 = st.lists(sparse_rationals, min_size=8, max_size=8)


def check_triple8_kernel(vectors):
    """``cross_product`` and, on the cleared integer arguments, the kernel
    ``_case_kernel`` equal the defining formula; the kernel keeps an int
    for every even half and a ``Fraction`` for every odd one."""
    case = A.cross_case("triple8")
    want = ref_cross(case, vectors)
    got = A.cross_product(case, vectors)
    assert got == want and all(type(c) is F for c in got)
    ints = []
    for v in vectors:
        d = math.lcm(*(F(c).denominator for c in v))
        ints.append([int(c * d) for c in v])
    args = [list(v) for v in ints]
    got = A._case_kernel(case.tag, case.n)(args)
    want = ref_cross(case, ints)
    assert got == list(want)
    assert [type(c) for c in got] == [int if c.denominator == 1 else F for c in want]
    assert args == ints  # the arguments are not mutated


def test_triple8_every_basis_tuple_matches_reference():
    for combo in itertools.product(range(8), repeat=3):
        coeffs = [(-1) ** p * (p % 3 + 1) for p in combo]
        check_triple8_kernel([[c if i == p else 0 for i in range(8)] for p, c in zip(combo, coeffs)])


@PROPERTY
@given(st.lists(monomials8, min_size=3, max_size=3))
def test_triple8_monomial_arguments_match_reference(vectors):
    check_triple8_kernel(vectors)


@PROPERTY
@given(st.lists(st.one_of(monomials8, binomials8, dense8), min_size=3, max_size=3))
def test_triple8_mixed_arguments_match_reference(vectors):
    check_triple8_kernel(vectors)


BASIS_IDENTS = (
    ["three", "seven", "triple8"]
    + [f"epsilon:{n}" for n in range(2, 6)]
    + [f"j:{n}" for n in range(2, PARAM_MAX + 1, 2)]
)


@pytest.mark.parametrize("ident", BASIS_IDENTS)
def test_basis_products_match_the_defining_formula(ident):
    """Every case with at most 5000 basis tuples: the kernel's product of
    each unit tuple, the value the basis pass reads, is the defining
    formula's."""
    case = A.cross_case(ident)
    n, r = case.n, case.r
    assert n**r <= 5000
    cross = A._case_kernel(case.tag, n)
    for combo in itertools.product(range(n), repeat=r):
        units = [A._unit(i, n) for i in combo]
        assert cross(units) == list(ref_cross(case, units)), combo


# (r, n) of every admitted case: epsilon (three is epsilon:3), seven,
# triple8 and J
GRAM_SHAPES = (
    [(n - 1, n) for n in range(2, 9)]
    + [(2, 7), (3, 8)]
    + [(1, n) for n in range(2, PARAM_MAX + 1, 2)]
)
SHAPE_TAGS = {(2, 7): "seven", (3, 8): "triple8"}


def ref_rotate(v):
    """The block rotation J, (v0, v1, ...) -> (-v1, v0, ...), with J^2 = -I."""
    out = []
    for k in range(0, len(v), 2):
        out += (-v[k + 1], v[k])
    return out


def ref_gram_check(x, rows):
    """Orthogonality and the norm identity by dense dots and a Bareiss
    determinant of the Gram matrix."""
    gram = [[A._dot(a, b) for b in rows] for a in rows]
    return not any(A._dot(x, a) for a in rows), A._dot(x, x) == A._det(gram)


@pytest.mark.parametrize("r, n", GRAM_SHAPES)
def test_gram_kernel_is_the_dot_and_determinant_check(r, n):
    """On the shape's true product x (both checks hold), 2x (orthogonal,
    wrong norm), x reversed (right norm, not orthogonal as a rule), a
    random vector and, for r >= 2, x plus a vector orthogonal to the first
    row only, each as ints, as whole ``Fraction``s and halved."""
    tag = SHAPE_TAGS.get((r, n), "complex_structure" if r == 1 and n % 2 == 0 else "epsilon")
    cross, check = A._case_kernel(tag, n), A._gram_kernel(r, n)
    rng = random.Random(100 * r + n)
    seen = set()
    for _ in range(25):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(r)]
        x = cross(rows)
        ys = [x, [2 * c for c in x], x[::-1], [rng.randint(-4, 4) for _ in range(n)]]
        if r > 1:
            a, b = rows[0], rows[-1]
            ys.append([c + A._dot(a, a) * q - A._dot(a, b) * p for c, p, q in zip(x, a, b)])
        for y in ys:
            for z in (y, [F(c) for c in y], [F(c, 2) for c in y]):
                got = check(z, rows)
                assert got == ref_gram_check(z, rows), (rows, z)
                seen.add(got)
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("n", sorted({n for _, n in GRAM_SHAPES}))
def test_lin_kernel_is_the_combination(n):
    lin, rng = A._lin_kernel(n), random.Random(n)
    for _ in range(20):
        a, b = rng.randint(-3, 3), rng.choice([rng.randint(-3, 3), F(rng.randint(-3, 3), 2)])
        u = [rng.randint(-4, 4) for _ in range(n)]
        v = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        assert lin(a, u, b, v) == [a * p + b * q for p, q in zip(u, v)]


@pytest.mark.parametrize("n", range(2, PARAM_MAX + 1, 2))
def test_rotation_kernel_is_the_block_rotation(n):
    """The generated J keeps each value's type: ints on the report's
    samples, ``Fraction``s in ``cross_product``."""
    cross, rng = A._case_kernel("complex_structure", n), random.Random(n)
    for _ in range(10):
        for v in ([rng.randint(-4, 4) for _ in range(n)], [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]):
            args = [list(v)]
            got, want = cross(args), ref_rotate(v)
            assert got == want and list(map(type, got)) == list(map(type, want))
            assert args == [v]
            assert A.cross_product(A.cross_case(f"j:{n}"), [v]) == tuple(map(F, want))


def test_cross_errors():
    case = A.cross_case("three")
    with pytest.raises(A.CaseArityMismatch):
        A.cross_product(case, [[1, 0, 0]])
    with pytest.raises(A.DimMismatch):
        A.cross_product(case, [[1, 0], [0, 1]])
    with pytest.raises(A.UnknownCase):
        A.cross_case("j:5")
    with pytest.raises(A.UnknownCase):
        A.CrossProductCase("seven", 5, 2)


@pytest.mark.parametrize(
    "case_name",
    ["three", "seven", "epsilon:3", "epsilon:4", "epsilon:5", "j:2", "j:4", "j:6", "j:8", "triple8"],
)
def test_cross_axioms(case_name):
    rep = A.cross_axioms_report(A.cross_case(case_name), trials=60, seed=10)
    assert rep.all_ok, rep.witness


@pytest.mark.parametrize("ident", CROSS_IDENTS)
@REPORT_PROPERTY
@given(trials=COUNTS, seed=SEEDS)
def test_cross_report_matches_reference(ident, trials, seed):
    case = A.cross_case(ident)
    same_report(
        A.cross_axioms_report(case, trials, seed),
        ref_cross_axioms_report(case, trials, seed),
    )


def is_unit(v):
    return sorted(v) == [0] * (len(v) - 1) + [1]


def break_kernels(mp, broken):
    """Make ``_case_kernel``, the one seam of every dense product, return
    ``broken(x, vs)`` for the product x = cross(vs) of the real kernel."""
    real_kernel = A._case_kernel

    def case_kernel(tag, n):
        kernel = real_kernel(tag, n)
        return lambda vs: broken(list(kernel(vs)), vs)

    mp.setattr(A, "_case_kernel", case_kernel)


def break_products(mp, breaks):
    """Add d e_m to the product of each basis index tuple in ``breaks``
    (tuple -> (m, d)) in ``_case_kernel``, where every product comes from:
    the library's basis pass and the reference both run it on unit
    vectors.  Any argument list of unit vectors counts, random ones
    included, so the library and the reference see one product."""

    def cross(x, vs):
        if all(map(is_unit, vs)):
            hit = breaks.get(tuple(v.index(1) for v in vs))
            if hit:
                m, d = hit
                x[m] += d
        return x

    break_kernels(mp, cross)


@pytest.mark.parametrize(
    "ident, breaks, failed",
    [
        # x[a] != 0 for an argument index a
        ("three", {(0, 1): (0, 1)}, "orthogonality_ok"),
        ("triple8", {(1, 2, 3): (2, -1)}, "orthogonality_ok"),
        # a component outside the arguments: |x|^2 != Gram determinant
        ("seven", {(0, 1): (5, 1)}, "norm_identity_ok"),
        ("j:4", {(2,): (0, 1)}, "norm_identity_ok"),
        # repeated arguments give a nonzero product (and break the norm)
        ("epsilon:4", {(2, 2, 0): (1, 2)}, "alternating_ok"),
        ("triple8", {(7, 3, 7): (0, 1)}, "alternating_ok"),
    ],
)
def test_cross_report_matches_reference_on_broken_products(ident, breaks, failed):
    case = A.cross_case(ident)
    with pytest.MonkeyPatch.context() as mp:
        break_products(mp, breaks)
        rep = A.cross_axioms_report(case, trials=4, seed=1)
        same_report(rep, ref_cross_axioms_report(case, trials=4, seed=1))
    assert not getattr(rep, failed)
    assert rep.witness is not None


@pytest.mark.parametrize("ident", ["epsilon:6", "three", "epsilon:3", "epsilon:4"])
def test_cross_report_matches_reference_on_sampled_failures(ident):
    """The kernel wrong only off the unit vectors, so every basis tuple
    passes and the random samples decide: a term quadratic in the first
    argument, or one that keeps its sign when two arguments swap.  epsilon:6
    has 6^5 > 5000 basis tuples, so none are checked at all."""
    case = A.cross_case(ident)
    terms = [lambda vs: vs[0][0] ** 2, lambda vs: vs[0][0] * vs[1][0]]
    flags = ("orthogonality_ok", "norm_identity_ok", "multilinearity_ok", "alternating_ok")
    failed = set()
    for term in terms:

        def cross(x, vs, term=term):
            if not all(map(is_unit, vs)):
                x[0] += term(vs)
            return x

        with pytest.MonkeyPatch.context() as mp:
            break_kernels(mp, cross)
            for seed in range(3):
                rep = A.cross_axioms_report(case, trials=20, seed=seed)
                same_report(rep, ref_cross_axioms_report(case, trials=20, seed=seed))
                failed.update(f for f in flags if not getattr(rep, f))
    assert failed == set(flags)


@st.composite
def broken_cases(draw):
    case = A.cross_case(draw(st.sampled_from(["three", "seven", "epsilon:3", "epsilon:4", "j:4", "triple8"])))
    index = st.integers(0, case.n - 1)
    combos = draw(st.lists(st.tuples(*[index] * case.r), min_size=1, max_size=4, unique=True))
    return case, {c: (draw(index), draw(st.sampled_from((1, -1, 2)))) for c in combos}


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(broken=broken_cases(), trials=st.integers(0, 6), seed=SEEDS)
def test_cross_report_matches_reference_on_random_breaks(broken, trials, seed):
    case, breaks = broken
    with pytest.MonkeyPatch.context() as mp:
        break_products(mp, breaks)
        same_report(
            A.cross_axioms_report(case, trials, seed),
            ref_cross_axioms_report(case, trials, seed),
        )


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(broken=broken_cases(), runs=REPORT_RUNS)
def test_cross_reports_on_one_case_match_reference(broken, runs):
    case, breaks = broken
    facts = {}
    with pytest.MonkeyPatch.context() as mp:
        break_products(mp, breaks)
        for trials, seed in runs:
            same_report(
                A.cross_axioms_report(case, trials, seed),
                ref_cross_axioms_report(case, trials, seed),
            )
            facts = kept_facts(case, ["_basis_verdict"], facts)


# ---------------------------------------------------------------------------
# hodge dual


def test_hodge_basic():
    assert A.hodge_dual({(1, 2): 1}, 3) == {(3,): F(1)}
    assert A.hodge_dual({(1, 2): 1}, 4) == {(3, 4): F(1)}


def test_hodge_double_dual_sign():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for sub in itertools.combinations(range(1, n + 1), k):
                w = {sub: F(2)}
                ww = A.hodge_dual(A.hodge_dual(w, n), n)
                assert ww == {sub: F(2) * (-1) ** (k * (n - k))}


def test_hodge_random_double_dual():
    rng = random.Random(19)
    n, k = 4, 2
    comps = {
        sub: F(rng.randint(-5, 5))
        for sub in itertools.combinations(range(1, n + 1), k)
    }
    ww = A.hodge_dual(A.hodge_dual(comps, n), n)
    assert {s: c for s, c in ww.items()} == comps


def test_hodge_errors():
    with pytest.raises(A.BadDims):
        A.hodge_dual({}, 3)
    with pytest.raises(A.BadDims):
        A.hodge_dual({(1,): 1, (1, 2): 1}, 3)
    with pytest.raises(A.BadDims):
        A.hodge_dual({(2, 1): 1}, 3)
    with pytest.raises(A.BadDims):
        A.hodge_dual({(1, 9): 1}, 3)
    # a list of (key, coefficient) pairs is refused as a whole, not key by key
    with pytest.raises(A.BadDims, match="components must map"):
        A.hodge_dual([((1,), 1)], 3)


@pytest.mark.parametrize(
    "components, n",
    [
        ({(1,): 1}, 3.0),
        ({(1,): 1}, True),
        ({(1,): 1}, "3"),
        ({(1,): 1}, None),
        ({("a",): 1}, 3),
        ({(1.0,): 1}, 3),
        ({(True,): 1}, 3),
        ({(1, F(2)): 1}, 3),
        ({1: 1}, 3),
        ({"12": 1}, 3),
        ({frozenset({1}): 1}, 3),
    ],
)
def test_hodge_takes_only_int_dimensions_and_keys(components, n):
    with pytest.raises(A.BadDims):
        A.hodge_dual(components, n)


# ---------------------------------------------------------------------------
# chirotopes


def test_chirotope_three_points():
    ch = A.chirotope_of_configuration([[1, 0], [0, 1], [1, 1]])
    assert all(s != 0 for s in ch.signs)


def test_chirotope_collinear_triple():
    ch = A.chirotope_of_configuration([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]])
    zero_count = sum(1 for s in ch.signs if s == 0)
    assert zero_count == 1
    assert ch.sign((1, 2, 4)) == 0


def test_chirotope_alternating():
    ch = A.chirotope_of_configuration([[1, 0], [0, 1], [1, 1]])
    assert ch.sign((1, 2)) == -ch.sign((2, 1))
    assert ch.sign((1, 1)) == 0


def test_chirotope_support_u24():
    ch = A.chirotope_of_configuration([[1, 0], [0, 1], [1, 1], [1, 2]])
    assert ch.support_matroid() == M.named_matroid("uniform", (2, 4))


def test_chirotope_needs_a_point():
    with pytest.raises(A.BadDims):
        A.chirotope_of_configuration([])


def test_chirotope_sign_outside_its_range():
    ch = A.chirotope_of_configuration([[1, 0], [0, 1], [1, 1]])
    for indices in ((1, 4), (0, 2), (1, 2, 3)):
        with pytest.raises(A.IndexOutOfRange):
            ch.sign(indices)


def test_chirotope_rank_deficient():
    with pytest.raises(A.RankDeficient):
        A.chirotope_of_configuration([[1, 1], [2, 2], [3, 3]])


def test_chirotope_support_always_a_matroid():
    rng = random.Random(33)
    for _ in range(15):
        n = rng.randint(3, 7)
        r = rng.randint(2, 3)
        pts = [[F(rng.randint(-3, 3)) for _ in range(r)] for _ in range(n)]
        try:
            ch = A.chirotope_of_configuration(pts)
        except A.RankDeficient:
            continue
        m = ch.support_matroid()  # make_matroid validates the axioms
        assert m.rank == r


def test_cross_case_bounds():
    for ident in ("epsilon:9", "epsilon:1", "epsilon:x", "j:-2", "j:", "three:1"):
        with pytest.raises(A.UnknownCase):
            A.cross_case(ident)


def test_complex_structure_case_is_bounded():
    """A directly built J case takes the even n that ``cross_case`` does."""
    assert A.CrossProductCase("complex_structure", PARAM_MAX, 1).n == 64
    for n in (PARAM_MAX + 2, 7):
        with pytest.raises(A.UnknownCase) as info:
            A.CrossProductCase("complex_structure", n, 1)
        assert str(info.value) == f"no admissible case for tag=complex_structure r=1 n={n}"


@pytest.mark.parametrize(
    "fields", [(["three"], 3, 2), ("three", 3.0, 2), ("complex_structure", 4.0, 1), ("complex_structure", 2, True)]
)
def test_case_fields_are_a_str_and_ints(fields):
    with pytest.raises(A.UnknownCase):
        A.CrossProductCase(*fields)
