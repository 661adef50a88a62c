"""Hypercomplex algebras, generalized cross products, and chirotopes.

All scalars are exact rationals: every identity checked here (norm
composition, alternativity, orthogonality, Gram determinants) is an
exact theorem, so there is no floating-point mode and no tolerance.

The API takes and returns ``Fraction`` tuples, but the arithmetic runs on
``int``: each public function clears the denominators of every argument
vector once (multiplying it by the positive lcm of its denominators),
calls an integer kernel, and divides the result by the product of those
lcms.  Every operation here is multilinear in its argument vectors, so
this is exact.

The reports check their exhaustive basis families on the multiplication
table rather than on dense unit vectors: the division-algebra report
reads the alternative laws on basis pairs and on the e_i +- e_j family
off the table's associators, and finds the first zero divisor among
products of e_i +- e_j pairs by dict lookup, in O(dim) steps per left
factor.  The cross-product report reads the product of every basis
tuple off the tables as signed index terms (``_basis_terms``): x . e_a is
the coefficient of e_a, and the Gram determinant of unit vectors is 1 or
0.  Only their seeded random samples run the dense integer kernels; the
witnesses are converted back to ``Fraction``.  The samples are drawn by
``_randints``, which makes the ``getrandbits`` calls of
``Random.randint`` without its call layers.

Chirotope signs and the epsilon cross products share one minor kernel,
``_minors``.  A plan cached per shape (``_minor_plan``) lists, for every
column set in combination order, its Laplace terms along the newest row
as (signed column, index of the sub-minor one level down); the kernel
runs it on plain lists, skipping zero entries and zero sub-minors, and
returns the maximal minors in combination order.  The chirotope reads
its signs straight off that list, and its support matroid goes from the
nonzero minors' column masks to the mask-level validation of
``make_matroid``.  ``_det`` (fraction-free Bareiss elimination) serves
``det_rational`` and the Gram determinants.

Two octonion presentations are provided: the doubling construction
applied three times, and a table read off the seven cyclic triples of
the Fano plane.  They differ entry-wise (different sign conventions) but
share the same property profile, which is what the checks assert.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from typing import Iterable, Mapping, Optional, Sequence

from .formats import split_ident

Element = tuple[Fraction, ...]


class AlgebraError(ValueError):
    """Base class for algebra failures."""


class LevelTooLarge(AlgebraError):
    """Doubling level above 4 (dimension 16) is not supported."""


class DimMismatch(AlgebraError):
    """Element length does not match the algebra dimension."""


class CaseArityMismatch(AlgebraError):
    """Wrong number of argument vectors for a cross-product case."""


class IndexOutOfRange(AlgebraError):
    """Index outside its range: 1..n for epsilon symbols and chirotopes,
    0..dim-1 for basis elements."""


class BadDims(AlgebraError):
    """Inconsistent dimensions for a multivector operation."""


class RankDeficient(AlgebraError):
    """Every maximal minor of the configuration vanishes."""


class UnknownCase(AlgebraError):
    """Unrecognized cross-product case."""


def _frac(x) -> Fraction:
    """The one scalar check: an exact ``int`` (not ``bool``) or ``Fraction``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise AlgebraError(f"scalars must be int or Fraction, got {type(x).__name__} {x!r}")


def as_element(coeffs: Iterable) -> Element:
    return tuple(_frac(c) for c in coeffs)


def _clear(coeffs: Iterable) -> tuple[list[int], int]:
    """Integers m and the positive lcm d of the denominators, with
    coeffs = m / d."""
    fs = [_frac(c) for c in coeffs]
    d = lcm(*(c.denominator for c in fs))
    return [c.numerator * (d // c.denominator) for c in fs], d


def _element(ints: Iterable, den: int = 1) -> Element:
    """Back to the API: the ``Fraction`` tuple ints / den."""
    if den == 1:
        return tuple(c if isinstance(c, Fraction) else Fraction(c) for c in ints)
    return tuple(Fraction(c, den) for c in ints)


def _dot(x: Sequence, y: Sequence):
    return sum(map(operator.mul, x, y))


def _unit(i: int, n: int) -> list[int]:
    v = [0] * n
    v[i] = 1
    return v


# Largest random sample or trial count of a report; each costs a few exact
# products, so the ceiling keeps one report to seconds.
TRIALS_MAX = 5000


def _check_count(count, what: str) -> None:
    if not (isinstance(count, int) and not isinstance(count, bool) and 0 <= count <= TRIALS_MAX):
        raise AlgebraError(f"{what} must be an int in 0..{TRIALS_MAX}, got {count!r}")


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]`` without its call
    layers: the same ``getrandbits(k)`` draws, each redrawn while it is at
    least the width hi - lo + 1, as ``random.Random._randbelow`` does, so
    the values and the generator's state after the draws are the same."""
    width = hi - lo + 1
    k = width.bit_length()
    bits = rng.getrandbits
    out = []
    for _ in range(count):
        v = bits(k)
        while v >= width:
            v = bits(k)
        out.append(lo + v)
    return out


# ---------------------------------------------------------------------------
# algebras


@dataclass(frozen=True, repr=False)
class HypercomplexAlgebra:
    """Multiplication table e_i e_j = sign * e_k on a power-of-two basis."""

    name: str
    dim: int
    table: tuple[tuple[tuple[int, int], ...], ...]
    provenance: str

    def __post_init__(self):
        dim, table = self.dim, self.table
        if not (isinstance(dim, int) and dim >= 1):
            raise AlgebraError(f"dimension must be a positive int, got {dim!r}")
        if len(table) != dim or any(len(row) != dim for row in table):
            raise AlgebraError(f"table must have {dim} rows of {dim} entries")
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                if not (
                    isinstance(entry, tuple)
                    and len(entry) == 2
                    and entry[0] in (-1, 1)
                    and isinstance(entry[1], int)
                    and 0 <= entry[1] < dim
                ):
                    raise AlgebraError(
                        f"entry ({i}, {j}) must be (+-1, k) with 0 <= k < {dim}, got {entry!r}"
                    )
        for i in range(dim):
            if table[0][i] != (1, i):
                raise AlgebraError("e_0 must be a left identity")
            if table[i][0] != (1, i):
                raise AlgebraError("e_0 must be a right identity")

    def __repr__(self):
        return f"HypercomplexAlgebra({self.name}, dim={self.dim})"

    def e(self, i: int) -> Element:
        """The i-th basis element, 0 <= i < dim."""
        if not (isinstance(i, int) and 0 <= i < self.dim):
            raise IndexOutOfRange(f"basis index {i!r} outside 0..{self.dim - 1}")
        return _element(_unit(i, self.dim))

    def element(self, coeffs: Iterable) -> Element:
        x = as_element(coeffs)
        if len(x) != self.dim:
            raise DimMismatch(f"need {self.dim} coefficients, got {len(x)}")
        return x

    @cached_property
    def _rows(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Row i of the table as (j, k, sign) with e_i e_j = sign * e_k;
        built on the first product, not at construction."""
        return tuple(
            tuple((j, k, s) for j, (s, k) in enumerate(row)) for row in self.table
        )

    @cached_property
    def _triple_terms(self) -> tuple[tuple[int, int, int, int], ...]:
        """Entry (p * dim + q) * dim + r is (s, k, t, m) with
        e_p (conj(e_q) e_r) = s e_k and e_r (conj(e_q) e_p) = t e_m, the two
        halves of the triple8 cross product on basis vectors; built on
        first use, like ``_rows``."""
        table = self.table
        out = []
        for p, q, r in itertools.product(range(self.dim), repeat=3):
            conj = 1 if q == 0 else -1
            (u, a), (v, b) = table[q][r], table[q][p]
            (s, k), (t, m) = table[p][a], table[r][b]
            out.append((conj * u * s, k, conj * v * t, m))
        return tuple(out)

    def _mul(self, x: Sequence[int], y: Sequence[int]) -> list[int]:
        """The integer kernel: bilinear extension of the basis table."""
        out = [0] * self.dim
        for xi, row in zip(x, self._rows):
            if xi:
                for j, k, s in row:
                    out[k] += s * xi * y[j]
        return out

    def multiply(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the basis table."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimMismatch("element length does not match algebra dimension")
        (xs, dx), (ys, dy) = _clear(x), _clear(y)
        return _element(self._mul(xs, ys), dx * dy)

    def conjugate(self, x: Element) -> Element:
        x = self.element(x)
        return (x[0],) + tuple(-c for c in x[1:])

    def norm_sq(self, x: Element) -> Fraction:
        return sum(c * c for c in self.element(x))


def norm_and_conjugate(alg: HypercomplexAlgebra, x: Element) -> tuple[Fraction, Element]:
    """Squared norm and conjugate of an element."""
    return alg.norm_sq(x), alg.conjugate(x)


def _cd_basis_mul(level: int, i: int, j: int) -> tuple[int, int]:
    """Sign and index of e_i e_j under the doubling rule
    (a,b)(c,d) = (ac - d*b, da + bc*), conjugation negating e_k for k>0."""
    if level == 0:
        return 1, 0
    h = 1 << (level - 1)
    if i < h and j < h:
        return _cd_basis_mul(level - 1, i, j)
    if i < h:
        s, k = _cd_basis_mul(level - 1, j - h, i)  # d a
        return s, k + h
    if j < h:
        s, k = _cd_basis_mul(level - 1, i - h, j)  # b c*
        if j != 0:
            s = -s
        return s, k + h
    s, k = _cd_basis_mul(level - 1, j - h, i - h)  # d* b
    if j - h != 0:
        s = -s
    return -s, k


@lru_cache(maxsize=None)
def cayley_dickson_algebra(level: int) -> HypercomplexAlgebra:
    """Doubling algebras: levels 0..4 give dimensions 1, 2, 4, 8, 16."""
    if not 0 <= level <= 4:
        raise LevelTooLarge("levels 0..4 (dimension <= 16) supported")
    dim = 1 << level
    table = tuple(
        tuple(_cd_basis_mul(level, i, j) for j in range(dim)) for i in range(dim)
    )
    names = {1: "R", 2: "C", 4: "H", 8: "O", 16: "sedenion"}
    return HypercomplexAlgebra(names[dim], dim, table, "cayley_dickson")


FANO_TRIPLES = (
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (4, 5, 7),
    (5, 6, 1),
    (6, 7, 2),
    (7, 1, 3),
)


@lru_cache(maxsize=None)
def fano_octonion_algebra() -> HypercomplexAlgebra:
    """Octonions from the seven cyclic triples (i, i+1, i+3) mod 7:
    along each triple e_i e_j = e_k cyclically, anticommuting off the
    diagonal, and every imaginary unit squares to -e_0."""
    rules: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b, c in FANO_TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            rules[(x, y)] = (1, z)
            rules[(y, x)] = (-1, z)
    table = []
    for i in range(8):
        row = []
        for j in range(8):
            if i == 0:
                row.append((1, j))
            elif j == 0:
                row.append((1, i))
            elif i == j:
                row.append((-1, 0))
            else:
                row.append(rules[(i, j)])
        table.append(tuple(row))
    return HypercomplexAlgebra("O(fano)", 8, tuple(table), "fano_lines")


def algebra_by_name(name: str) -> HypercomplexAlgebra:
    key = name.lower()
    levels = {"r": 0, "c": 1, "h": 2, "o": 3, "sedenion": 4}
    if key in levels:
        return cayley_dickson_algebra(levels[key])
    if key in ("o-fano", "fano"):
        return fano_octonion_algebra()
    raise AlgebraError(f"unknown algebra {name!r}")


# ---------------------------------------------------------------------------
# division-algebra property report


@dataclass(frozen=True)
class DivisionAlgebraReport:
    algebra: str
    dim: int
    norm_multiplicative: bool
    alternative: bool
    zero_divisor: Optional[tuple[Element, Element]]
    norm_witness: Optional[tuple[Element, Element]]
    alternative_witness: Optional[tuple[Element, Element]]
    samples: int
    seed: int


def _pair_family(dim: int) -> list[tuple[int, int, int]]:
    """All e_i + s*e_j with i < j and s = +-1, as (i, j, s), in
    deterministic order."""
    return [
        (i, j, s) for i, j in itertools.combinations(range(dim), 2) for s in (1, -1)
    ]


def _pair_vector(dim: int, i: int, j: int, s: int) -> list[int]:
    x = _unit(i, dim)
    x[j] = s
    return x


def _cancels(a: int, b: int, c: int, d: int) -> bool:
    """Whether four signed basis terms, each coded +-(index + 1), sum to
    zero: exactly when they cancel in two pairs, and two terms cancel when
    their codes sum to 0."""
    return (a == -b and c == -d) or (a == -c and b == -d) or (a == -d and b == -c)


def _pair_zero_divisor(alg: HypercomplexAlgebra) -> Optional[tuple[Element, Element]]:
    """First (x, y) of the pair family, in family order for x then y, with
    x y = 0, found in O(dim) steps per x.  For x = e_i + s e_j, the product
    v_k = x e_k has the two signed basis terms e_i e_k and s e_j e_k, coded
    +-(index + 1) as (a, c).  Its key is ``()`` when a = -c (v_k = 0) and
    the sorted pair otherwise, so two products are equal exactly when
    their keys are.  Since x (e_k + t e_l) = v_k + t v_l, t = +1 gives zero
    when key(v_l) = key(-v_k) and t = -1 when key(v_l) = key(v_k).  The
    walk over k from dim - 1 down to 0 keeps the smallest l > k seen for
    each key, so its last hit is the first (k, l, t) in family order."""
    dim = alg.dim
    code = [[s * (k + 1) for s, k in row] for row in alg.table]
    for i, j, s in _pair_family(dim):
        ci, cj = code[i], code[j]
        smallest: dict[tuple[int, ...], int] = {}
        hit = None
        for k in range(dim - 1, -1, -1):
            a, c = ci[k], s * cj[k]
            if a == -c:
                key = minus = ()
            elif a < c:
                key, minus = (a, c), (-c, -a)
            else:
                key, minus = (c, a), (-a, -c)
            plus_l, minus_l = smallest.get(minus), smallest.get(key)
            # at equal l (only when v_k = 0) t = +1 comes first
            if plus_l is not None and (minus_l is None or plus_l <= minus_l):
                hit = k, plus_l, 1
            elif minus_l is not None:
                hit = k, minus_l, -1
            smallest[key] = k
        if hit is not None:
            return (
                _element(_pair_vector(dim, i, j, s)),
                _element(_pair_vector(dim, *hit)),
            )
    return None


def division_algebra_report(
    alg: HypercomplexAlgebra, sample_count: int = 200, seed: int = 0
) -> DivisionAlgebraReport:
    """Exact checks of norm composition and alternativity on all basis
    pairs, then on seeded random integer pairs, then alternativity on the
    e_i +- e_j family, and an exhaustive zero-divisor search over products
    of e_i +- e_j pairs.  The basis families are read off the table's
    associators; only the random pairs run the dense kernel."""
    _check_count(sample_count, "sample_count")
    rng = random.Random(seed)
    dim, table, mul = alg.dim, alg.table, alg._mul

    def assoc(p, q, r):
        """a(p, q, r) = (e_p e_q) e_r - e_p (e_q e_r) as the codes
        +-(index + 1) of its two signed basis terms."""
        s, k = table[p][q]  # e_p e_q = s e_k
        t, left = table[k][r]
        u, m = table[q][r]  # e_q e_r = u e_m
        v, right = table[p][m]
        return s * t * (left + 1), u * v * (right + 1)

    def alternative_on(i, j):
        """The alternative laws on (e_i, e_j): a(i, i, j) = 0 = a(j, i, i)."""
        (a, b), (c, d) = assoc(i, i, j), assoc(j, i, i)
        return a == b and c == d

    def linearised_zero(i, j, k):
        """a(i, j, k) + a(j, i, k) = 0."""
        (a, b), (c, d) = assoc(i, j, k), assoc(j, i, k)
        return _cancels(a, -b, c, -d)

    # Norm composition holds on every basis pair by construction:
    # ``__post_init__`` admits only entries +-e_k, so |e_i e_j|^2 = 1.
    alt_wit = next(
        (
            (_unit(i, dim), _unit(j, dim))
            for i, j in itertools.product(range(dim), repeat=2)
            if not alternative_on(i, j)
        ),
        None,
    )
    norm_ok, norm_wit = True, None
    alt_ok = alt_wit is None
    for _ in range(sample_count):
        drawn = _randints(rng, -5, 5, 2 * dim)
        x, y = drawn[:dim], drawn[dim:]
        xy = mul(x, y)  # one of the two checks still runs, and both read it
        if norm_ok and _dot(xy, xy) != _dot(x, x) * _dot(y, y):
            norm_ok, norm_wit = False, (x, y)
        if alt_ok:
            xx = mul(x, x)
            if mul(xx, y) != mul(x, xy) or mul(mul(y, x), x) != mul(y, xx):
                alt_ok, alt_wit = False, (x, y)
        if not norm_ok and not alt_ok:
            break

    # The e_i +- e_j family catches sedenion failures that basis pairs
    # miss.  Once a(i, i, k) = 0 for all i and k, the linearised left
    # alternative law (Schafer, An Introduction to Nonassociative Algebras,
    # 1966, III.1) gives (x, x, e_k) = s (a(i, j, k) + a(j, i, k)) for
    # x = e_i + s e_j, so the first failure in family order has s = +1.
    if alt_ok:
        for i, j in itertools.combinations(range(dim), 2):
            k = next((k for k in range(dim) if not linearised_zero(i, j, k)), None)
            if k is not None:
                alt_ok, alt_wit = False, (_pair_vector(dim, i, j, 1), _unit(k, dim))
                break

    def witness(pair):
        return None if pair is None else (_element(pair[0]), _element(pair[1]))

    return DivisionAlgebraReport(
        alg.name,
        alg.dim,
        norm_ok,
        alt_ok,
        _pair_zero_divisor(alg),
        witness(norm_wit),
        witness(alt_wit),
        sample_count,
        seed,
    )


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def _det(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination (Bareiss,
    1968): after step k every entry below row k is a (k+1)-minor, so each
    division by the previous pivot is exact.  Overwrites ``m``."""
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            p = next((r for r in range(k + 1, n) if m[r][k]), None)
            if p is None:
                return 0
            m[k], m[p] = m[p], m[k]
            sign = -sign
        rk, pk = m[k], m[k][k]
        for ri in m[k + 1 :]:
            a = ri[k]
            for c in range(k + 1, n):
                ri[c] = (pk * ri[c] - a * rk[c]) // prev
        prev = pk
    return sign * m[-1][-1] if n else 1


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant: each row is scaled to integers, which scales the
    determinant by the product of the row lcms."""
    cleared = [_clear(row) for row in rows]
    if any(len(m) != len(cleared) for m, _ in cleared):
        raise BadDims("determinant needs a square matrix")
    return Fraction(_det([m for m, _ in cleared]), prod(d for _, d in cleared))


def dot(x: Sequence, y: Sequence) -> Fraction:
    (xs, dx), (ys, dy) = _clear(x), _clear(y)
    return Fraction(_dot(xs, ys), dx * dy)


# ---------------------------------------------------------------------------
# epsilon symbol and Hodge dual


def epsilon_symbol(indices: Sequence[int]) -> int:
    """Sign of the permutation of 1..n given by ``indices``; 0 on repeats."""
    n = len(indices)
    for i in indices:
        if not 1 <= i <= n:
            raise IndexOutOfRange(f"index {i} outside 1..{n}")
    return _perm_sign(indices)


def _perm_sign(seq: Sequence[int]) -> int:
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def hodge_dual(
    components: Mapping[tuple[int, ...], object], n: int
) -> dict[tuple[int, ...], Fraction]:
    """Map a k-vector (coefficients over sorted k-subsets of 1..n) to its
    (n-k)-vector pairing through the epsilon symbol."""
    if not components:
        raise BadDims("empty multivector")
    sizes = {len(key) for key in components}
    if len(sizes) != 1:
        raise BadDims("all component subsets must share one size")
    (k,) = sizes
    if not 0 <= k <= n <= 8:
        raise BadDims(f"need 0 <= k <= n <= 8, got k={k} n={n}")
    out: dict[tuple[int, ...], Fraction] = {}
    for key, coeff in components.items():
        key = tuple(key)
        if tuple(sorted(key)) != key or len(set(key)) != len(key):
            raise BadDims(f"component key {key} must be a sorted subset")
        if any(not 1 <= i <= n for i in key):
            raise BadDims(f"component key {key} outside 1..{n}")
        comp = tuple(i for i in range(1, n + 1) if i not in key)
        sign = _perm_sign(key + comp)
        out[comp] = out.get(comp, Fraction(0)) + sign * _frac(coeff)
    return out


# ---------------------------------------------------------------------------
# generalized cross products


CROSS_TAGS = ("three", "seven", "epsilon", "complex_structure", "triple8")


@dataclass(frozen=True)
class CrossProductCase:
    """One admissible (r, n) pair: r argument vectors in dimension n."""

    tag: str
    n: int
    r: int

    def __post_init__(self):
        ok = (
            (self.tag == "three" and (self.r, self.n) == (2, 3))
            or (self.tag == "seven" and (self.r, self.n) == (2, 7))
            or (self.tag == "epsilon" and self.r == self.n - 1 and 2 <= self.n <= 8)
            or (
                self.tag == "complex_structure"
                and self.r == 1
                and self.n % 2 == 0
                and self.n >= 2
            )
            or (self.tag == "triple8" and (self.r, self.n) == (3, 8))
        )
        if not ok:
            raise UnknownCase(f"no admissible case for tag={self.tag} r={self.r} n={self.n}")


def cross_case(ident: str) -> CrossProductCase:
    """Parse ``three``, ``seven``, ``epsilon:<n>`` (2 <= n <= 8), ``j:<n>``
    (even n >= 2) and ``triple8``."""
    name, params = split_ident(ident, UnknownCase)
    fixed = {"three": (3, 2), "seven": (7, 2), "triple8": (8, 3)}
    if name in fixed and not params:
        return CrossProductCase(name, *fixed[name])
    if name == "epsilon" and len(params) == 1:
        return CrossProductCase("epsilon", params[0], params[0] - 1)
    if name == "j" and len(params) == 1:
        return CrossProductCase("complex_structure", params[0], 1)
    raise UnknownCase(f"unknown cross-product case {ident!r}")


@lru_cache(maxsize=None)
def _minor_plan(r: int, n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """Entry k - 1 lists, for every k-set of the n columns in combination
    order, the Laplace terms of its minor along row k as pairs (entry,
    sub): ``sub`` indexes the (k - 1)-set without the term's column c one
    level down, and ``entry`` is c when the cofactor sign is +1 and n + c
    when it is -1 (one per chosen column to the right of c).  Depends on
    the shape only, like ``matroids._lacking``."""
    plan, index = [], {(): 0}
    for k in range(1, r + 1):
        level, grown = [], {}
        for i, cols in enumerate(itertools.combinations(range(n), k)):
            grown[cols] = i
            level.append(
                tuple(
                    (c + n * ((k - 1 - p) & 1), index[cols[:p] + cols[p + 1 :]])
                    for p, c in enumerate(cols)
                )
            )
        plan.append(tuple(level))
        index = grown
    return tuple(plan)


def _minors(rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """The minors of the r rows on every r-set of the n columns, in
    ``itertools.combinations`` order: one list per level of
    ``_minor_plan``, built row by row by Laplace expansion along the
    newest row, so all minors share their sub-minors.  A term with a zero
    entry or a zero sub-minor is skipped."""
    minors = [1]
    for row, level in zip(rows, _minor_plan(len(rows), n)):
        signed = [*row, *[-a for a in row]]
        grown = []
        for terms in level:
            d = 0
            for entry, sub in terms:
                a = signed[entry]
                if a:
                    m = minors[sub]
                    if m:
                        d += a * m
            grown.append(d)
        minors = grown
    return minors


def _epsilon_cross(vectors: Sequence[Sequence[int]], n: int) -> list[int]:
    """Component j is the determinant of the n-1 arguments stacked over the
    j-th unit row, i.e. the epsilon contraction with the result index last:
    the cofactor (-1)^(n-1+j) times the maximal minor of the arguments
    without column j, which is minor n-1-j in combination order."""
    return [-m if (n - 1 + j) & 1 else m for j, m in enumerate(reversed(_minors(vectors, n)))]


def _rotate(v: Sequence) -> list:
    """The block rotation J, (v0, v1, ...) -> (-v1, v0, ...), with J^2 = -I."""
    out = []
    for k in range(0, len(v), 2):
        out += (-v[k + 1], v[k])
    return out


def _halve(left: Sequence[int], right: Sequence[int]) -> list:
    """(left - right) / 2, keeping a ``Fraction`` for any odd component."""
    return [
        (l - r) // 2 if (l - r) % 2 == 0 else Fraction(l - r, 2)
        for l, r in zip(left, right)
    ]


def _cross(case: CrossProductCase, vs: Sequence[Sequence[int]]) -> list:
    """The integer kernel of ``cross_product``.  triple8 halves exactly and
    keeps a ``Fraction`` for any odd component.  Never mutates ``vs``, so
    callers may share argument vectors between calls."""
    if case.tag in ("three", "epsilon"):
        return _epsilon_cross(vs, case.n)
    if case.tag == "complex_structure":
        return _rotate(vs[0])
    mul = fano_octonion_algebra()._mul
    if case.tag == "seven":
        return mul([0, *vs[0]], [0, *vs[1]])[1:]
    if case.tag == "triple8":
        a, b, c = vs
        b_conj = [b[0]] + [-t for t in b[1:]]
        return _halve(mul(a, mul(b_conj, c)), mul(c, mul(b_conj, a)))
    raise UnknownCase(case.tag)


def cross_product(case: CrossProductCase, vectors: Sequence[Sequence]) -> Element:
    """Evaluate one generalized cross product exactly.

    three / epsilon: determinant-expansion product of n-1 vectors;
    seven: imaginary part of the octonion product of pure-imaginary
    embeddings; complex_structure: the block rotation J with J^2 = -I;
    triple8: the octonion triple product (a(b* c) - c(b* a)) / 2.
    """
    vs = [list(v) for v in vectors]
    if len(vs) != case.r:
        raise CaseArityMismatch(f"case needs {case.r} vectors, got {len(vs)}")
    for v in vs:
        if len(v) != case.n:
            raise DimMismatch(f"vectors must have dimension {case.n}")
    if case.tag == "complex_structure":  # no arithmetic: stays on its inputs
        return tuple(_rotate(as_element(vs[0])))
    cleared = [_clear(v) for v in vs]
    return _element(_cross(case, [m for m, _ in cleared]), prod(d for _, d in cleared))


def _basis_terms(case: CrossProductCase) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """A scale and the product of every basis tuple (e_c1, ..., e_cr), in
    ``itertools.product`` order over c, each as its nonzero terms
    (index, coefficient) on distinct indices: the product is the sum of
    coefficient / scale * e_index.  The terms are read off the tables,
    with no vectors:

    three / epsilon: eps(c, j) e_j for the one index j that c misses, and
    nothing when c repeats an index;
    complex_structure: J e_i is e_(i+1) for even i and -e_(i-1) for odd i;
    seven: Im(e_(a+1) e_(b+1)) from the Fano octonion table;
    triple8: s e_k - t e_m from ``_triple_terms``, at scale 2."""
    n, r = case.n, case.r
    if case.tag in ("three", "epsilon"):
        # itertools.permutations lists the permutations of range(n) in
        # lexicographic order, where the sign of each is (-1) to the sum of
        # its Lehmer digits; a permutation p is the tuple p[:-1] with its
        # missing index p[-1]
        signs = [1]
        for k in range(2, n + 1):
            signs = [-s if d & 1 else s for d in range(k) for s in signs]
        terms = {
            p[:-1]: ((p[-1], s),) for p, s in zip(itertools.permutations(range(n)), signs)
        }
        return 1, [terms.get(c, ()) for c in itertools.product(range(n), repeat=r)]
    if case.tag == "complex_structure":
        return 1, [((i + 1, 1),) if i % 2 == 0 else ((i - 1, -1),) for i in range(n)]
    octonions = fano_octonion_algebra()
    if case.tag == "seven":
        return 1, [((k - 1, s),) if k else () for row in octonions.table[1:] for s, k in row[1:]]
    if case.tag == "triple8":
        # k = m on every triple: under a relabelling the Fano lines are the
        # triples {a, b, a ^ b} of Z_2^3, so a product of three basis units
        # is, up to sign, one unit however it is ordered and bracketed
        return 2, [((k, s - t),) if s != t else () for s, k, t, _ in octonions._triple_terms]
    raise UnknownCase(case.tag)


@dataclass(frozen=True)
class CrossAxiomsReport:
    case: str
    n: int
    r: int
    orthogonality_ok: bool
    norm_identity_ok: bool
    multilinearity_ok: bool
    alternating_ok: bool
    basis_tuples: int
    trials: int
    seed: int
    witness: Optional[str]

    @property
    def all_ok(self) -> bool:
        return (
            self.orthogonality_ok
            and self.norm_identity_ok
            and self.multilinearity_ok
            and self.alternating_ok
        )


def cross_axioms_report(
    case: CrossProductCase, trials: int = 200, seed: int = 0
) -> CrossAxiomsReport:
    """Exact axiom checks: the product is orthogonal to every argument,
    its squared norm is the Gram determinant of the arguments, it is
    multilinear, and it flips sign under argument swaps (vacuous for
    r = 1).  Runs over every basis tuple (when there are at most 5000 of
    them) plus seeded random tuples.  The basis products are read off the
    tables as signed index terms (``_basis_terms``); only the random
    tuples, drawn through ``_randints``, run the dense kernel."""
    _check_count(trials, "trials")
    rng = random.Random(seed)
    n, r = case.n, case.r

    def cross(args):
        return _cross(case, args)

    def rand_vecs(count):
        drawn = _randints(rng, -4, 4, count * n)
        return [drawn[i : i + n] for i in range(0, count * n, n)]

    def shown(args):
        return tuple(_element(a) for a in args)

    def shown_units(combo):
        return shown([_unit(i, n) for i in combo])

    combos, scale, basis = [], 1, []
    if n**r <= 5000:
        combos = list(itertools.product(range(n), repeat=r))
        scale, basis = _basis_terms(case)
    samples = [rand_vecs(r) for _ in range(trials)]

    orth = norm = True
    witness = None
    scale_sq = scale * scale
    sizes = list(map(len, map(set, combos)))
    for combo, size, terms in zip(combos, sizes, basis):
        # x . e_a is the coefficient of e_a in x, and the Gram determinant
        # of unit vectors is 1 when their indices are distinct, else 0
        norm_sq = 0
        for k, c in terms:
            norm_sq += c * c
            if orth and k in combo:
                orth, witness = False, f"orthogonality at {shown_units(combo)}"
        if norm and norm_sq != (scale_sq if size == r else 0):
            norm, witness = False, witness or f"norm at {shown_units(combo)}"
    for args in samples if orth or norm else ():
        x = cross(args)
        if orth and any(_dot(x, a) for a in args):
            orth, witness = False, f"orthogonality at {shown(args)}"
        if norm and _dot(x, x) != _det([[_dot(a, b) for b in args] for a in args]):
            norm, witness = False, witness or f"norm at {shown(args)}"
        if not orth and not norm:
            break

    multi = True
    for _ in range(max(trials, 1)):
        slot = rng.randrange(r)
        *args, u, v = rand_vecs(r + 2)
        a, b = _randints(rng, -3, 3, 2)
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
            args = rand_vecs(r)
            i, j = rng.sample(range(r), 2)
            swapped = list(args)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            if [-c for c in cross(args)] != cross(swapped):
                alt, witness = False, witness or f"alternation at swap {(i, j)}"
                break
        repeat = next(
            (c for c, size, terms in zip(combos, sizes, basis) if size < r and terms), None
        )
        if repeat is not None:
            alt, witness = False, witness or f"repeat args {repeat} gave nonzero"

    return CrossAxiomsReport(
        case.tag, n, r, orth, norm, multi, alt, len(combos), trials, seed, witness
    )


# ---------------------------------------------------------------------------
# chirotopes


@dataclass(frozen=True)
class Chirotope:
    """Signs of the maximal minors of a rank-r configuration of n points."""

    n: int
    r: int
    signs: tuple[int, ...]  # aligned with sorted r-subsets of 1..n

    @cached_property
    def _subsets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(itertools.combinations(range(1, self.n + 1), self.r))

    @cached_property
    def by_subset(self) -> dict[tuple[int, ...], int]:
        """The sign of each sorted r-subset of 1..n."""
        return dict(zip(self._subsets, self.signs))

    def sign(self, indices: Sequence[int]) -> int:
        """Alternating sign lookup: 0 on repeats, permutation-adjusted."""
        key = tuple(sorted(indices))
        if len(set(indices)) != len(indices):
            return 0
        if key not in self.by_subset:
            raise IndexOutOfRange(f"{indices} is not an r-subset of 1..{self.n}")
        return self.by_subset[key] * _perm_sign(tuple(indices))

    def support_matroid(self):
        """Matroid on 1..n whose bases are the subsets with nonzero sign,
        built through full axiom validation: the bases are the column
        masks of the nonzero minors, and they go straight to the
        mask-level step of ``make_matroid`` (``matroids._validated``)."""
        from . import matroids

        # the ground bound first: it also bounds the masks ``_column_masks`` caches
        ground = matroids._ground(range(1, self.n + 1))
        masks = [b for b, sg in zip(_column_masks(self.n, self.r), self.signs) if sg != 0]
        return matroids._validated(matroids._from_masks(ground, masks))


@lru_cache(maxsize=None)
def _column_masks(n: int, r: int) -> tuple[int, ...]:
    """The r-sets of n columns as bitmasks, in combination order."""
    return tuple(sum(1 << c for c in cols) for cols in itertools.combinations(range(n), r))


def chirotope_of_configuration(points: Sequence[Sequence]) -> Chirotope:
    """Chirotope of n rational points given as length-r coordinate columns."""
    n = len(points)
    if n == 0:
        raise BadDims("need at least one point")
    r = len(points[0])
    if any(len(p) != r for p in points):
        raise BadDims("all points need the same coordinate length")
    if n > 10 or r > 4:
        raise BadDims("configuration capped at 10 points of rank at most 4")
    # scaling every point by the positive lcm of all denominators keeps
    # every sign; the points are the columns of the r x n coordinate matrix
    coords = [_frac(c) for p in points for c in p]
    den = lcm(*[c.denominator for c in coords])
    ints = [c.numerator * (den // c.denominator) for c in coords]
    minors = _minors([ints[i::r] for i in range(r)], n)
    signs = tuple((d > 0) - (d < 0) for d in minors)
    if not any(signs):
        raise RankDeficient("all maximal minors vanish")
    return Chirotope(n, r, signs)
