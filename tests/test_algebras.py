import itertools
import random
from fractions import Fraction as F

import pytest

from dualities import algebras as A
from dualities import matroids as M


def neg(x):
    return tuple(-c for c in x)


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


def test_fano_and_cd_octonions_share_profile():
    a = A.division_algebra_report(A.cayley_dickson_algebra(3), 50, seed=2)
    b = A.division_algebra_report(A.fano_octonion_algebra(), 50, seed=2)
    assert (a.norm_multiplicative, a.alternative, a.zero_divisor) == (
        b.norm_multiplicative,
        b.alternative,
        b.zero_divisor,
    )


# ---------------------------------------------------------------------------
# epsilon symbol and determinants


def test_epsilon_symbol():
    assert A.epsilon_symbol([1, 2, 3]) == 1
    assert A.epsilon_symbol([2, 1, 3]) == -1
    assert A.epsilon_symbol([1, 1, 3]) == 0
    with pytest.raises(A.IndexOutOfRange):
        A.epsilon_symbol([1, 2, 4])


def test_det_matches_naive():
    rng = random.Random(14)
    for n in range(1, 5):
        for _ in range(10):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert A.det_rational(rows) == naive_det(rows)


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
        assert A.dot(x, a) == 0


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
