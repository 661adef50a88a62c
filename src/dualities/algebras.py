"""Hypercomplex algebras, generalized cross products, and chirotopes.

All scalars are exact rationals: every identity checked here (norm
composition, alternativity, orthogonality, Gram determinants) is an
exact theorem, so there is no floating-point mode and no tolerance.

Two octonion presentations are provided: the doubling construction
applied three times, and a table read off the seven cyclic triples of
the Fano plane.  They differ entry-wise (different sign conventions) but
share the same property profile, which is what the checks assert.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
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
    """Index outside 1..n."""


class BadDims(AlgebraError):
    """Inconsistent dimensions for a multivector operation."""


class RankDeficient(AlgebraError):
    """Every maximal minor of the configuration vanishes."""


class UnknownCase(AlgebraError):
    """Unrecognized cross-product case."""


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def as_element(coeffs: Iterable) -> Element:
    return tuple(_frac(c) for c in coeffs)


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
        for i in range(self.dim):
            s, k = self.table[0][i]
            assert (s, k) == (1, i), "e_0 must be a left identity"
            s, k = self.table[i][0]
            assert (s, k) == (1, i), "e_0 must be a right identity"
            for j in range(self.dim):
                s, k = self.table[i][j]
                assert s in (-1, 1) and 0 <= k < self.dim

    def __repr__(self):
        return f"HypercomplexAlgebra({self.name}, dim={self.dim})"

    def e(self, i: int) -> Element:
        """The i-th basis element."""
        return tuple(
            Fraction(1) if j == i else Fraction(0) for j in range(self.dim)
        )

    def element(self, coeffs: Iterable) -> Element:
        x = as_element(coeffs)
        if len(x) != self.dim:
            raise DimMismatch(f"need {self.dim} coefficients, got {len(x)}")
        return x

    def multiply(self, x: Element, y: Element) -> Element:
        """Bilinear extension of the basis table."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimMismatch("element length does not match algebra dimension")
        out = [Fraction(0)] * self.dim
        table = self.table
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = table[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                s, k = row[j]
                out[k] += xi * yj if s > 0 else -(xi * yj)
        return tuple(out)

    def conjugate(self, x: Element) -> Element:
        return (x[0],) + tuple(-c for c in x[1:])

    def norm_sq(self, x: Element) -> Fraction:
        return sum(c * c for c in x)


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


def _pair_family(alg: HypercomplexAlgebra):
    """All e_i + s*e_j with i < j and s = +-1, in deterministic order."""
    for i, j in itertools.combinations(range(alg.dim), 2):
        for s in (1, -1):
            x = [Fraction(0)] * alg.dim
            x[i] = Fraction(1)
            x[j] = Fraction(s)
            yield tuple(x)


def _random_element(alg: HypercomplexAlgebra, rng: random.Random) -> Element:
    return tuple(Fraction(rng.randint(-5, 5)) for _ in range(alg.dim))


def division_algebra_report(
    alg: HypercomplexAlgebra, sample_count: int = 200, seed: int = 0
) -> DivisionAlgebraReport:
    """Exact checks of norm composition and alternativity on all basis
    pairs plus seeded random integer pairs, and an exhaustive zero-divisor
    search over products of e_i +- e_j pairs."""
    rng = random.Random(seed)
    zero = tuple(Fraction(0) for _ in range(alg.dim))

    pairs = [(alg.e(i), alg.e(j)) for i in range(alg.dim) for j in range(alg.dim)]
    pairs += [
        (_random_element(alg, rng), _random_element(alg, rng))
        for _ in range(sample_count)
    ]

    norm_ok, norm_wit = True, None
    alt_ok, alt_wit = True, None
    for x, y in pairs:
        if norm_ok and alg.norm_sq(alg.multiply(x, y)) != alg.norm_sq(x) * alg.norm_sq(y):
            norm_ok, norm_wit = False, (x, y)
        if alt_ok:
            xx = alg.multiply(x, x)
            if alg.multiply(xx, y) != alg.multiply(x, alg.multiply(x, y)):
                alt_ok, alt_wit = False, (x, y)
            else:
                yx = alg.multiply(y, x)
                if alg.multiply(yx, x) != alg.multiply(y, alg.multiply(x, x)):
                    alt_ok, alt_wit = False, (x, y)
        if not norm_ok and not alt_ok:
            break

    # the combination family catches sedenion failures that pure basis
    # pairs can miss
    if alt_ok:
        for x in _pair_family(alg):
            for j in range(alg.dim):
                y = alg.e(j)
                xx = alg.multiply(x, x)
                if alg.multiply(xx, y) != alg.multiply(x, alg.multiply(x, y)):
                    alt_ok, alt_wit = False, (x, y)
                    break
            if not alt_ok:
                break

    zd = None
    fam = list(_pair_family(alg))
    for x in fam:
        for y in fam:
            if alg.multiply(x, y) == zero:
                zd = (x, y)
                break
        if zd:
            break

    return DivisionAlgebraReport(
        alg.name, alg.dim, norm_ok, alt_ok, zd, norm_wit, alt_wit, sample_count, seed
    )


# ---------------------------------------------------------------------------
# exact linear algebra helpers


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    n = len(rows)
    m = [[_frac(x) for x in row] for row in rows]
    if any(len(row) != n for row in m):
        raise BadDims("determinant needs a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
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


def dot(x: Sequence, y: Sequence) -> Fraction:
    return sum(_frac(a) * _frac(b) for a, b in zip(x, y))


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


def _epsilon_cross(vectors: Sequence[Element], n: int) -> Element:
    """Component j is the determinant of the arguments stacked over the
    j-th unit row, i.e. the epsilon contraction with the result index last."""
    out = []
    for j in range(n):
        unit = [Fraction(1) if c == j else Fraction(0) for c in range(n)]
        rows = [list(v) for v in vectors] + [unit]
        out.append(det_rational(rows))
    return tuple(out)


def cross_product(case: CrossProductCase, vectors: Sequence[Sequence]) -> Element:
    """Evaluate one generalized cross product exactly.

    three / epsilon: determinant-expansion product of n-1 vectors;
    seven: imaginary part of the octonion product of pure-imaginary
    embeddings; complex_structure: the block rotation J with J^2 = -I;
    triple8: the octonion triple product (a(b* c) - c(b* a)) / 2.
    """
    vs = [as_element(v) for v in vectors]
    if len(vs) != case.r:
        raise CaseArityMismatch(f"case needs {case.r} vectors, got {len(vs)}")
    for v in vs:
        if len(v) != case.n:
            raise DimMismatch(f"vectors must have dimension {case.n}")
    if case.tag in ("three", "epsilon"):
        return _epsilon_cross(vs, case.n)
    if case.tag == "seven":
        alg = fano_octonion_algebra()
        x = (Fraction(0),) + vs[0]
        y = (Fraction(0),) + vs[1]
        return alg.multiply(x, y)[1:]
    if case.tag == "complex_structure":
        (v,) = vs
        out = []
        for k in range(0, case.n, 2):
            out.append(-v[k + 1])
            out.append(v[k])
        return tuple(out)
    if case.tag == "triple8":
        alg = fano_octonion_algebra()
        a, b, c = vs
        left = alg.multiply(a, alg.multiply(alg.conjugate(b), c))
        right = alg.multiply(c, alg.multiply(alg.conjugate(b), a))
        return tuple((l - r) / 2 for l, r in zip(left, right))
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
    them) plus seeded random tuples."""
    rng = random.Random(seed)
    n, r = case.n, case.r

    def unit(i):
        return tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))

    def rand_vec():
        return tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))

    tuples = []
    if n**r <= 5000:
        tuples = [
            tuple(unit(i) for i in combo)
            for combo in itertools.product(range(n), repeat=r)
        ]
    basis_count = len(tuples)
    tuples += [tuple(rand_vec() for _ in range(r)) for _ in range(trials)]

    orth = norm = True
    witness = None
    for args in tuples:
        x = cross_product(case, args)
        if orth and any(dot(x, a) != 0 for a in args):
            orth, witness = False, f"orthogonality at {args}"
        if norm:
            gram = [[dot(a, b) for b in args] for a in args]
            if dot(x, x) != det_rational(gram):
                norm, witness = False, witness or f"norm at {args}"
        if not orth and not norm:
            break

    multi = True
    for _ in range(max(trials, 1)):
        slot = rng.randrange(r)
        args = [rand_vec() for _ in range(r)]
        u, v = rand_vec(), rand_vec()
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        combo = tuple(a * ui + b * vi for ui, vi in zip(u, v))
        args_combo = list(args)
        args_combo[slot] = combo
        args_u = list(args)
        args_u[slot] = u
        args_v = list(args)
        args_v[slot] = v
        lhs = cross_product(case, args_combo)
        xu = cross_product(case, args_u)
        xv = cross_product(case, args_v)
        rhs = tuple(a * p + b * q for p, q in zip(xu, xv))
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
            x = cross_product(case, args)
            y = cross_product(case, swapped)
            if tuple(-c for c in x) != y:
                alt, witness = False, witness or f"alternation at swap {(i, j)}"
                break
        if n**r <= 5000:
            for combo in itertools.product(range(n), repeat=r):
                if len(set(combo)) < r:
                    args = tuple(unit(i) for i in combo)
                    if any(c != 0 for c in cross_product(case, args)):
                        alt, witness = False, witness or f"repeat args {combo} gave nonzero"
                        break

    return CrossAxiomsReport(
        case.tag, n, r, orth, norm, multi, alt, basis_count, trials, seed, witness
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
        """Matroid whose bases are the subsets with nonzero sign, built
        through full axiom validation."""
        from . import matroids

        bases = [s for s, sg in zip(self._subsets, self.signs) if sg != 0]
        return matroids.make_matroid(range(1, self.n + 1), bases)


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
    cols = [as_element(p) for p in points]
    signs = []
    for combo in itertools.combinations(range(n), r):
        d = det_rational([[cols[c][row] for c in combo] for row in range(r)])
        signs.append(0 if d == 0 else (1 if d > 0 else -1))
    if all(s == 0 for s in signs):
        raise RankDeficient("all maximal minors vanish")
    return Chirotope(n, r, tuple(signs))
