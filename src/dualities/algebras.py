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

The reports check their exhaustive basis families once per algebra or
case object: the division-algebra report reads the alternative laws on
basis pairs and on the e_i +- e_j family off the table's associators,
and finds the first zero divisor among products of e_i +- e_j pairs by
dict lookup, in O(dim) steps per left factor.  The cross-product report
runs its case's kernel once on every basis tuple of unit vectors and
feeds each product to the shape's Gram check and to the repeated-index
test, so each product is defined in one place (``_case_kernel``).  These
basis facts are cached properties of the algebra or case object,
computed on the first report that needs them, so only the reports'
seeded random samples run on every call, on the dense integer kernels;
the witnesses are converted back to ``Fraction``.  A cross report
resolves its case's kernel once (``_case_kernel``, cached per tag and
dimension, never on the case object) and calls it directly in its
loops.  The samples are drawn by ``_randints`` and the argument indices
by ``_randbelow``, which make the ``getrandbits`` calls of
``Random.randint``, ``randrange`` and ``sample`` without their call
layers, so a seed gives the same draws.

The dense kernels are straight-line code that ``_compiled`` builds on
first use, never at import: an algebra's product (``_mul``) is one signed
sum of x_i y_j per output index, and the maximal minors (``_minors``) are
one local per column set, level by level, each expanded along the newest
row over the sub-minors one level down (``_laplace_body``).  The epsilon
cross product runs the same expansion and returns the signed cofactors
directly (``_epsilon_kernel``), and J is one generated rotation per
dimension (``_rotation_kernel``).  The chirotope reads its signs off the
minors, and its support matroid goes from the nonzero minors' column
masks to the mask-level validation of ``make_matroid``.  Each random
trial of a cross report runs generated code of its shape only: the
orthogonality and norm checks of a sample are one ``_gram_kernel`` call,
whose Gram determinant is the same expansion over the Gram entries, and
the multilinearity combinations are ``_lin_kernel`` calls.  ``_det``
(fraction-free Bareiss elimination) serves ``det_rational`` alone.

Two octonion presentations are provided: the doubling construction
applied three times, and a table read off the seven cyclic triples of
the Fano plane.  They differ entry-wise (different sign conventions) but
share the same property profile, which is what the checks assert.
"""

from __future__ import annotations

import itertools
import operator
import random
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm, prod
from typing import Optional

from .formats import PARAM_MAX, split_ident

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
    """Dimensions out of range or inconsistent."""


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
    pairs = [_frac(c).as_integer_ratio() for c in coeffs]
    d = lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


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


def _check_seed(seed) -> None:
    """A report echoes its seed, so it must be one that reproduces the
    draws: an ``int`` (not ``bool``); ``None`` would draw from the OS."""
    if not (isinstance(seed, int) and not isinstance(seed, bool)):
        raise AlgebraError(f"seed must be an int, got {seed!r}")


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


def _randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)`` for n >= 1 without its call layers: the
    ``getrandbits(k)`` draws of ``random.Random._randbelow``, with k the bit
    length of n, each redrawn while it is at least n, so the value and the
    generator's state after the draw are the same."""
    k = n.bit_length()
    v = rng.getrandbits(k)
    while v >= n:
        v = rng.getrandbits(k)
    return v


def _compiled(source: str, name: str):
    """The function ``name`` that ``source`` defines, run with no builtins;
    the kernel generators' source holds only ints and fixed identifiers."""
    namespace = {"__builtins__": {}}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


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
        # 16 (the sedenions) at most keeps each generated sum within what CPython compiles
        if type(dim) is not int or not 1 <= dim <= 16:
            raise BadDims(f"dimension must be an int in 1..16, got {dim!r}")
        if type(table) is not tuple or len(table) != dim or any(
            type(row) is not tuple or len(row) != dim for row in table
        ):
            raise AlgebraError(f"table must be a tuple of {dim} rows, each a tuple of {dim} entries")
        for i, row in enumerate(table):
            for j, entry in enumerate(row):
                if not (
                    isinstance(entry, tuple)
                    and len(entry) == 2
                    and type(entry[0]) is type(entry[1]) is int
                    and entry[0] in (-1, 1)
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

    def __reduce__(self):  # the kernels do not pickle; they and the cached facts are rebuilt on use
        return type(self), (self.name, self.dim, self.table, self.provenance)

    def e(self, i: int) -> Element:
        """The i-th basis element, 0 <= i < dim."""
        if not (type(i) is int and 0 <= i < self.dim):
            raise IndexOutOfRange(f"basis index {i!r} outside 0..{self.dim - 1}")
        return _element(_unit(i, self.dim))

    def element(self, coeffs: Iterable) -> Element:
        x = as_element(coeffs)
        if len(x) != self.dim:
            raise DimMismatch(f"need {self.dim} coefficients, got {len(x)}")
        return x

    # The division report's table facts, each computed the first time a
    # report reads it, so later reports run only their seeded samples.

    def _assoc(self, p: int, q: int, r: int) -> tuple[int, int]:
        """a(p, q, r) = (e_p e_q) e_r - e_p (e_q e_r) as the codes
        +-(index + 1) of its two signed basis terms."""
        table = self.table
        s, k = table[p][q]  # e_p e_q = s e_k
        t, left = table[k][r]
        u, m = table[q][r]  # e_q e_r = u e_m
        v, right = table[p][m]
        return s * t * (left + 1), u * v * (right + 1)

    @cached_property
    def _basis_alternative_witness(self) -> Optional[tuple[Element, Element]]:
        """The first basis pair (e_i, e_j), in product order, that breaks
        an alternative law a(i, i, j) = 0 = a(j, i, i); None if none does."""
        dim, assoc = self.dim, self._assoc
        for i, j in itertools.product(range(dim), repeat=2):
            (a, b), (c, d) = assoc(i, i, j), assoc(j, i, i)
            if a != b or c != d:
                return _element(_unit(i, dim)), _element(_unit(j, dim))
        return None

    @cached_property
    def _family_alternative_witness(self) -> Optional[tuple[Element, Element]]:
        """The first pair of the basis and e_i +- e_j families that breaks
        an alternative law: ``_basis_alternative_witness`` if there is one,
        else the first (e_i + e_j, e_k) that breaks the left law; None if
        none does.

        The e_i +- e_j family catches sedenion failures that basis pairs
        miss.  Once a(i, i, k) = 0 for all i and k, the linearised left
        alternative law (Schafer, An Introduction to Nonassociative
        Algebras, 1966, III.1) gives (x, x, e_k) = s (a(i, j, k) + a(j, i, k))
        for x = e_i + s e_j, so the first failure in family order has
        s = +1 and is the first k with a(i, j, k) + a(j, i, k) != 0."""
        if self._basis_alternative_witness is not None:  # the scan below needs a(i, i, k) = 0
            return self._basis_alternative_witness
        dim, assoc = self.dim, self._assoc
        for i, j in itertools.combinations(range(dim), 2):
            for k in range(dim):
                (a, b), (c, d) = assoc(i, j, k), assoc(j, i, k)
                if not _cancels(a, -b, c, -d):
                    return _element(_pair_vector(dim, i, j, 1)), _element(_unit(k, dim))
        return None

    @cached_property
    def _zero_divisor(self) -> Optional[tuple[Element, Element]]:
        """``_pair_zero_divisor`` of this table."""
        return _pair_zero_divisor(self)

    @cached_property
    def _mul(self):
        """The integer kernel ``mul(x, y)``, generated on the first product:
        output k is the signed sum of x_i y_j over the entries e_i e_j =
        +-e_k, never empty since e_0 is an identity."""
        dim = self.dim
        sums: list[list[str]] = [[] for _ in range(dim)]
        for i, row in enumerate(self.table):
            for j, (s, k) in enumerate(row):
                sums[k].append(f"{'-' if s < 0 else '+'} x{i}*y{j}")
        xs, ys = (", ".join(f"{v}{i}" for i in range(dim)) for v in "xy")
        out = ", ".join(" ".join(terms).lstrip("+ ") for terms in sums)
        return _compiled(f"def mul(x, y):\n [{xs}] = x\n [{ys}] = y\n return [{out}]\n", "mul")

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
    associators, once per algebra object: each is a cached fact of
    ``alg``, computed the first time a report needs it.  A first report
    on a fresh object computes the facts it reads, and a later one runs
    only the random pairs, on the dense kernel.  The e_i +- e_j family is
    read only when no basis pair or sample has already broken
    alternativity."""
    _check_count(sample_count, "sample_count")
    _check_seed(seed)
    rng = random.Random(seed)
    dim, mul = alg.dim, alg._mul

    # Norm composition holds on every basis pair by construction:
    # ``__post_init__`` admits only entries +-e_k, so |e_i e_j|^2 = 1.
    alt_wit = alg._basis_alternative_witness
    norm_ok, norm_wit = True, None
    alt_ok = alt_wit is None
    for _ in range(sample_count):
        drawn = _randints(rng, -5, 5, 2 * dim)
        x, y = drawn[:dim], drawn[dim:]
        xy = mul(x, y)  # one of the two checks still runs, and both read it
        if norm_ok and _dot(xy, xy) != _dot(x, x) * _dot(y, y):
            norm_ok, norm_wit = False, (_element(x), _element(y))
        if alt_ok:
            xx = mul(x, x)
            if mul(xx, y) != mul(x, xy) or mul(mul(y, x), x) != mul(y, xx):
                alt_ok, alt_wit = False, (_element(x), _element(y))
        if not norm_ok and not alt_ok:
            break
    if alt_ok:
        alt_wit = alg._family_alternative_witness
        alt_ok = alt_wit is None

    return DivisionAlgebraReport(
        alg.name, alg.dim, norm_ok, alt_ok, alg._zero_divisor, norm_wit, alt_wit, sample_count, seed
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


# ---------------------------------------------------------------------------
# epsilon symbol and Hodge dual


def epsilon_symbol(indices: Sequence[int]) -> int:
    """Sign of the permutation of 1..n given by ``indices``, a list or
    tuple; 0 on repeats."""
    if not isinstance(indices, (list, tuple)):
        raise IndexOutOfRange(f"indices must be a list or tuple of ints, got {indices!r}")
    n = len(indices)
    for i in indices:
        if type(i) is not int or not 1 <= i <= n:
            raise IndexOutOfRange(f"index {i!r} is not an int in 1..{n}")
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
    if type(n) is not int:
        raise BadDims(f"n must be an int, got {n!r}")
    if not isinstance(components, Mapping):
        raise BadDims(f"components must map index tuples to coefficients, got {components!r}")
    if not components:
        raise BadDims("empty multivector")
    for key in components:
        if not isinstance(key, tuple) or {*map(type, key)} - {int}:
            raise BadDims(f"component key {key!r} must be a tuple of ints")
    sizes = {len(key) for key in components}
    if len(sizes) != 1:
        raise BadDims("all component subsets must share one size")
    (k,) = sizes
    if not 0 <= k <= n <= 8:
        raise BadDims(f"need 0 <= k <= n <= 8, got k={k} n={n}")
    out: dict[tuple[int, ...], Fraction] = {}
    for key, coeff in components.items():
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


def _shown(vectors) -> tuple[Element, ...]:
    """Argument vectors as a report's witness text shows them."""
    return tuple(_element(v) for v in vectors)


# The cases of one fixed shape: tag -> (n, r).
_FIXED_SHAPES = {"three": (3, 2), "seven": (7, 2), "triple8": (8, 3)}


@dataclass(frozen=True)
class CrossProductCase:
    """One admissible (r, n) pair: r argument vectors in dimension n, of a
    fixed shape (``_FIXED_SHAPES``), epsilon (r = n - 1, 2 <= n <= 8) or
    complex_structure, the rotation J (r = 1, even n in 2..PARAM_MAX)."""

    tag: str
    n: int
    r: int

    def __post_init__(self):
        tag, n, r = self.tag, self.n, self.r
        ok = isinstance(tag, str) and type(n) is type(r) is int and (
            _FIXED_SHAPES.get(tag) == (n, r)
            or (tag == "epsilon" and r == n - 1 and 2 <= n <= 8)
            or (tag == "complex_structure" and r == 1 and n % 2 == 0 and 2 <= n <= PARAM_MAX)
        )
        if not ok:
            raise UnknownCase(f"no admissible case for tag={tag} r={r} n={n}")

    @cached_property
    def _basis_verdict(self) -> tuple[bool, bool, Optional[str], int, bool]:
        """What the basis tuples show, computed on the first report that
        needs it: orthogonality, the norm identity, the first witness text
        among those two, the number of tuples, and whether a tuple that
        repeats an index has a nonzero product.  There are no tuples when
        n^r > 5000.  Each tuple of unit vectors, in ``itertools.product``
        order, runs the case's kernel once, and that product feeds both
        the repeated-index test, over every tuple, and the shape's Gram
        check (``_gram_scan``)."""
        n, r = self.n, self.r
        if n**r > 5000:
            return True, True, None, 0, False
        units = [_unit(i, n) for i in range(n)]
        combos = list(itertools.product(range(n), repeat=r))
        tuples = [[units[i] for i in combo] for combo in combos]
        products = list(map(_case_kernel(self.tag, n), tuples))
        repeat = any(any(x) for combo, x in zip(combos, products) if len(set(combo)) < r)
        return (*_gram_scan(_gram_kernel(r, n), products, tuples), len(combos), repeat)


def cross_case(ident: str) -> CrossProductCase:
    """Parse ``three``, ``seven``, ``epsilon:<n>`` (2 <= n <= 8), ``j:<n>``
    (even n in 2..PARAM_MAX) and ``triple8``."""
    name, params = split_ident(ident, UnknownCase)
    if name in _FIXED_SHAPES and not params:
        return CrossProductCase(name, *_FIXED_SHAPES[name])
    if name == "epsilon" and len(params) == 1:
        return CrossProductCase("epsilon", params[0], params[0] - 1)
    if name == "j" and len(params) == 1:
        return CrossProductCase("complex_structure", params[0], 1)
    raise UnknownCase(f"unknown cross-product case {ident!r}")


def _unpack(source: str, r: int, n: int, entry: str = "a") -> str:
    """The kernel line that binds the r rows of n entries of ``source`` to
    the locals <entry><k>_<c>."""
    rows = ", ".join("[" + ", ".join(f"{entry}{k}_{c}" for c in range(n)) + "]" for k in range(r))
    return f" [{rows}] = {source}\n"


def _laplace_body(r: int, n: int, entry: str = "a") -> tuple[str, dict[tuple[int, ...], str]]:
    """The lines of a kernel that expand the minors of r rows of n entries,
    and the local that holds each r-minor, by column set in combination
    order: row k's entries are the locals <entry><k>_<c>, which the caller
    binds, and each k-minor (k >= 2) is a local, the Laplace expansion
    along row k - 1.  The r-minor is ``1`` for r = 0, and there is none
    for r > n."""
    lines = []
    names = {(c,): f"{entry}0_{c}" for c in range(n)} if r else {(): "1"}
    for k in range(2, r + 1):
        grown = {}
        for i, cols in enumerate(itertools.combinations(range(n), k)):
            terms = " ".join(
                f"{'-' if (k - 1 - p) & 1 else '+'} {entry}{k - 1}_{c}*{names[cols[:p] + cols[p + 1 :]]}"
                for p, c in enumerate(cols)
            )
            grown[cols] = f"m{k}_{i}"
            lines.append(f"m{k}_{i} = {terms.lstrip('+ ')}")
        names = grown
    return "".join(f" {line}\n" for line in lines), names


@lru_cache(maxsize=None)
def _minor_kernel(r: int, n: int):
    """``minors(rows)`` for r rows of n integers, generated once per shape:
    the r-minors of ``_laplace_body`` in combination order, ``[1]`` for
    r = 0 and ``[]`` for r > n."""
    body, names = _laplace_body(r, n)
    return _compiled(
        f"def minors(rows):\n{_unpack('rows', r, n)}{body} return [{', '.join(names.values())}]\n", "minors"
    )


def _minors(rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """The minors of the r rows on every r-set of the n columns, in
    ``itertools.combinations`` order."""
    return _minor_kernel(len(rows), n)(rows)


def _epsilon_kernel(n: int):
    """``cross(rows)`` for the n - 1 arguments of the epsilon product in
    dimension n: component j is the determinant of the arguments stacked
    over the j-th unit row, i.e. the epsilon contraction with the result
    index last, returned as the signed cofactor (-1)^(n-1+j) times the
    maximal minor of the arguments without column j."""
    body, names = _laplace_body(n - 1, n)
    cofactors = ", ".join(
        f"{'-' if (n - 1 + j) & 1 else ''}{names[tuple(c for c in range(n) if c != j)]}"
        for j in range(n)
    )
    return _compiled(f"def cross(rows):\n{_unpack('rows', n - 1, n)}{body} return [{cofactors}]\n", "cross")


def _rotation_kernel(n: int):
    """``cross(vs)`` for the one argument of J in even dimension n: the
    block rotation (v0, v1, ...) -> (-v1, v0, ...), with J^2 = -I."""
    out = ", ".join(f"-a0_{k + 1}, a0_{k}" for k in range(0, n, 2))
    return _compiled(f"def cross(vs):\n{_unpack('vs', 1, n)} return [{out}]\n", "cross")


def _sum_of_products(left: str, right: str, n: int) -> str:
    """The expression sum of <left><c>*<right><c> over c < n."""
    return " + ".join(f"{left}{c}*{right}{c}" for c in range(n))


@lru_cache(maxsize=None)
def _gram_kernel(r: int, n: int):
    """``check(x, rows)`` for a product x of r rows of n entries, generated
    once per shape: whether x . a_k = 0 for every row a_k, and whether
    x . x is the Gram determinant of the rows, the ``_laplace_body``
    expansion over the Gram entries g<i>_<j> = a_i . a_j."""
    xs = ", ".join(f"x{c}" for c in range(n))
    gram = "".join(
        f" g{i}_{j} = {_sum_of_products(f'a{i}_', f'a{j}_', n) if i <= j else f'g{j}_{i}'}\n"
        for i in range(r)
        for j in range(r)
    )
    body, names = _laplace_body(r, r, "g")
    orth = " or ".join(f"({_sum_of_products('x', f'a{k}_', n)})" for k in range(r))
    norm = f"{_sum_of_products('x', 'x', n)} == {names[tuple(range(r))]}"
    return _compiled(
        f"def check(x, rows):\n [{xs}] = x\n{_unpack('rows', r, n)}{gram}{body}"
        f" return not ({orth}), {norm}\n",
        "check",
    )


def _gram_scan(check, products, tuples, orth=True, norm=True, witness=None):
    """Orthogonality, the norm identity and the first witness text among
    them, after the Gram check ``check`` of each product with its argument
    tuple, in order; the scan stops once both have failed."""
    for x, args in zip(products, tuples):
        orthogonal, normed = check(x, args)
        if orth and not orthogonal:
            orth, witness = False, f"orthogonality at {_shown(args)}"
        if norm and not normed:
            norm, witness = False, witness or f"norm at {_shown(args)}"
        if not orth and not norm:
            break
    return orth, norm, witness


@lru_cache(maxsize=None)
def _lin_kernel(n: int):
    """``lin(a, u, b, v)``, the vector a u + b v for scalars a, b and
    vectors u, v of n entries, generated once per n."""
    us, vs = (", ".join(f"{w}{c}" for c in range(n)) for w in "uv")
    out = ", ".join(f"a*u{c} + b*v{c}" for c in range(n))
    return _compiled(f"def lin(a, u, b, v):\n [{us}] = u\n [{vs}] = v\n return [{out}]\n", "lin")


def _halve(left: Sequence[int], right: Sequence[int]) -> list:
    """(left - right) / 2, keeping a ``Fraction`` for any odd component."""
    return [
        (l - r) // 2 if (l - r) % 2 == 0 else Fraction(l - r, 2)
        for l, r in zip(left, right)
    ]


@lru_cache(maxsize=None)
def _case_kernel(tag: str, n: int):
    """The integer kernel ``cross(vs)`` of the cross product (tag, n),
    resolved once per (tag, n): the generated signed epsilon kernel for
    three and epsilon, the generated rotation J for complex_structure, and
    closures over the Fano octonion product for seven and triple8.
    triple8 halves exactly and keeps a ``Fraction`` for any odd
    component.  The report's other kernels depend only on the shape, so
    this stays the one per-case seam of its products.  No kernel mutates
    ``vs``, so callers may share argument vectors between calls.  Kept
    here rather than on the case object, which stays picklable and holds
    only its basis verdict."""
    if tag in ("three", "epsilon"):
        return _epsilon_kernel(n)
    if tag == "complex_structure":
        return _rotation_kernel(n)
    mul = fano_octonion_algebra()._mul
    if tag == "seven":
        return lambda vs: mul([0, *vs[0]], [0, *vs[1]])[1:]
    if tag == "triple8":

        def triple8(vs):
            a, b, c = vs
            b_conj = [b[0]] + [-t for t in b[1:]]
            return _halve(mul(a, mul(b_conj, c)), mul(c, mul(b_conj, a)))

        return triple8
    raise UnknownCase(tag)


def cross_product(case: CrossProductCase, vectors: Sequence[Sequence]) -> Element:
    """Evaluate one generalized cross product exactly: the integer kernel
    ``_case_kernel`` of the case on the cleared arguments.

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
    cross = _case_kernel(case.tag, case.n)
    if case.tag == "complex_structure":  # no arithmetic: J runs on the inputs' values
        return tuple(cross([as_element(vs[0])]))
    cleared = [_clear(v) for v in vs]
    return _element(cross([m for m, _ in cleared]), prod(d for _, d in cleared))


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
    them) plus seeded random tuples.  The basis tuples' verdict is
    computed once per case object (``CrossProductCase._basis_verdict``),
    the first time a report needs it; a later report on the same object
    runs only the random tuples, drawn through ``_randints`` and
    ``_randbelow``.  The report resolves its kernels once before its
    loops: the case's product (``_case_kernel``), and the orthogonality
    and norm check (``_gram_kernel``) and linear combination
    (``_lin_kernel``) of its shape.

    ``trials`` random tuples are checked for orthogonality and the norm,
    but multilinearity and alternation each draw ``max(trials, 1)``, so
    ``trials=0`` still checks one random tuple of each, and the report
    echoes ``trials`` as given."""
    _check_count(trials, "trials")
    _check_seed(seed)
    rng = random.Random(seed)
    n, r = case.n, case.r
    cross, check, lin = _case_kernel(case.tag, n), _gram_kernel(r, n), _lin_kernel(n)

    def rand_vecs(count):
        drawn = _randints(rng, -4, 4, count * n)
        return [drawn[i : i + n] for i in range(0, count * n, n)]

    orth, norm, witness, tuples, repeat = case._basis_verdict
    samples = _randints(rng, -4, 4, trials * r * n)
    if orth or norm:
        rows = [samples[i : i + n] for i in range(0, len(samples), n)]
        drawn = [rows[i : i + r] for i in range(0, len(rows), r)]
        orth, norm, witness = _gram_scan(check, map(cross, drawn), drawn, orth, norm, witness)

    multi = True
    for _ in range(max(trials, 1)):
        slot = _randbelow(rng, r)
        *args, u, v = rand_vecs(r + 2)
        a, b = _randints(rng, -3, 3, 2)
        head, tail = args[:slot], args[slot + 1 :]
        lhs = cross([*head, lin(a, u, b, v), *tail])
        if lhs != lin(a, cross([*head, u, *tail]), b, cross([*head, v, *tail])):
            multi, witness = False, witness or f"multilinearity at slot {slot}"
            break

    alt = True
    if r >= 2:
        for _ in range(max(trials, 1)):
            args = rand_vecs(r)
            # rng.sample(range(r), 2): CPython's pool method for two of r
            i, j = _randbelow(rng, r), _randbelow(rng, r - 1)
            if j == i:
                j = r - 1
            swapped = list(args)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            if [-c for c in cross(args)] != cross(swapped):
                alt, witness = False, witness or f"alternation at swap {(i, j)}"
                break
        if repeat:
            alt = False

    return CrossAxiomsReport(case.tag, n, r, orth, norm, multi, alt, tuples, trials, seed, witness)


# ---------------------------------------------------------------------------
# chirotopes


@dataclass(frozen=True)
class Chirotope:
    """Signs of the maximal minors of a rank-r configuration of n points."""

    n: int
    r: int
    signs: tuple[int, ...]  # aligned with sorted r-subsets of 1..n

    def __post_init__(self):
        n, r, signs = self.n, self.r, self.signs
        if type(n) is not int or type(r) is not int or not 0 <= r <= n:
            raise BadDims(f"need ints 0 <= r <= n, got n={n!r} r={r!r}")
        if type(signs) is not tuple:
            raise BadDims(f"signs must be a tuple, got {signs!r}")
        # C(n, r) >= n for 0 < r < n, so a short vector fails before comb runs
        if (0 < r < n and len(signs) < n) or len(signs) != comb(n, r):
            raise BadDims(f"need one sign per {r}-subset of 1..{n}, got {len(signs)} signs")
        if {*map(type, signs)} != {int} or not {-1, 0, 1}.issuperset(signs):
            raise BadDims("every sign must be the int -1, 0 or 1")

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
        matroids._within(self.n, matroids.GROUND_BOUND)
        masks = itertools.compress(_column_masks(self.n, self.r), self.signs)
        return matroids._validated(matroids._from_masks(tuple(range(1, self.n + 1)), masks))


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
    ints, _ = _clear(c for p in points for c in p)
    minors = _minors([ints[i::r] for i in range(r)], n)
    signs = tuple((d > 0) - (d < 0) for d in minors)
    if not any(signs):
        raise RankDeficient("all maximal minors vanish")
    return Chirotope(n, r, signs)
