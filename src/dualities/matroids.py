"""Matroids as explicit basis families.

A matroid is stored as a ground tuple plus the complete family of bases,
as a sorted tuple of bitmasks over ground positions (``Matroid._masks``).
A matroid has at most ``TABLE_BOUND`` (20) elements, and parsing caps
the ground at 12 by default, so the family always fits in memory.
Element sets become masks once, when a matroid is built from them;
every operation works on the masks, and every other
producer of a matroid (duals, minors, relabellings, direct sums, cycle
matroids, minor-search candidates) builds its masks directly.  The bases
as element sets (``Matroid.bases``) are derived on first read, for
output.  The minor search and the isomorphism test read the family by
element, as one bitset over the bases per element
(``Matroid._incidence``).
That choice makes duality literal set complementation, minors a direct
recomputation of the family, and every search in this module (minor
containment, isomorphism, excluded minors) exhaustive with deterministic
witnesses.  Binary is decided by circuit-cocircuit parity.  Graphic
realizations are built directly from the circuits of a binary side; they
decide graphic and cographic, and an excluded-minor search runs only to
witness a side that has none.  Transversality is decided from the
lattice of cyclic flats, which fixes the only candidate presentation.
Circuits, cyclic flats and the check of that presentation are computed
for every subset at once, on bitsets over all 2^n subsets (``TABLE_BOUND``),
the flats on the rank table that each matroid keeps (``Matroid._levels``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .formats import json_ints, read_records, split_ident

GROUND_BOUND = 12
# Largest ground of any ``Matroid``, so that a family fits a bitset over
# all 2^n subsets (2^20 bits are 128 KB), on which validation, circuits
# and transversality work.  Every producer raises ``GroundTooLarge``
# above it before it builds a basis mask (``_within``).
TABLE_BOUND = 20

# ---------------------------------------------------------------------------
# errors


class MatroidError(ValueError):
    """Base class for matroid construction and query failures."""


class EmptyBases(MatroidError):
    """The basis family is empty."""


class ContainmentViolation(MatroidError):
    """One listed basis is a proper subset of another."""

    def __init__(self, small, large):
        self.small = frozenset(small)
        self.large = frozenset(large)
        super().__init__(
            f"basis {sorted(self.small)} is properly contained in {sorted(self.large)}"
        )


class ExchangeFailure(MatroidError):
    """Basis exchange fails for an ordered pair of bases.

    Carries the pair (first, second) and the element of first \\ second
    admitting no replacement from second \\ first.
    """

    def __init__(self, first, second, element):
        self.first = frozenset(first)
        self.second = frozenset(second)
        self.element = element
        super().__init__(
            f"no exchange for element {element} of {sorted(self.first)} "
            f"against {sorted(self.second)}"
        )


class ElementNotInGround(MatroidError):
    """A referenced element is not a ground-set member."""


class OverlappingSets(MatroidError):
    """Deletion and contraction sets overlap."""


class DependentContraction(MatroidError):
    """The non-loop part of a contraction set is dependent."""


class GroundTooLarge(MatroidError):
    """Ground set exceeds the caller's bound or ``TABLE_BOUND``."""


class GroundNotDisjoint(MatroidError):
    """Direct-sum operands share ground elements."""


class UnknownName(MatroidError):
    """Unrecognized named-matroid identifier."""


class BadParams(MatroidError):
    """Named-matroid parameters out of range."""


class BadInput(MatroidError):
    """Unparsable matroid text or element token."""


# ---------------------------------------------------------------------------
# the matroid type


def _bits(mask: int):
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _within(n: int, bound: int = TABLE_BOUND) -> None:
    """Raise ``GroundTooLarge`` unless n elements fit ``bound`` and
    ``TABLE_BOUND``, the limit of every ``Matroid``."""
    limit = min(bound, TABLE_BOUND)
    if n > limit:
        raise GroundTooLarge(f"{n} elements exceed the bound {limit}")


def _squeeze(mask: int, gone: list[int]) -> int:
    """``mask`` with the bit positions ``gone`` (highest first) removed
    and the bits above each removed position shifted down into it."""
    for p in gone:
        low = (1 << p) - 1
        mask = mask & low | mask >> 1 & ~low
    return mask


@dataclass(frozen=True, init=False, repr=False)
class Matroid:
    """Ground tuple plus the basis family as sorted position masks.

    ``Matroid(ground, bases)`` takes the bases as element sets and turns
    them into masks once; a ground of more than ``TABLE_BOUND`` elements
    raises ``GroundTooLarge`` before any basis is read, repeated or
    non-integer labels ``MatroidError``, and an element outside the ground
    ``ElementNotInGround``; the ground keeps its order.  Instances are
    immutable, and equality and hashing compare the ground tuple and the
    masks.  ``bases``, the element sets in canonical order, is derived on
    first read.
    """

    ground: tuple[int, ...]
    _masks: tuple[int, ...]  # bit i of a mask stands for ground[i]

    def __init__(self, ground: Iterable[int], bases: Iterable[Iterable[int]]):
        object.__setattr__(self, "ground", _labels(ground))
        object.__setattr__(self, "_masks", tuple(sorted({self._mask(b) for b in bases})))

    def __repr__(self):
        return (
            f"Matroid(|E|={len(self.ground)}, rank={self.rank}, "
            f"bases={len(self._masks)})"
        )

    # -- derived structure, cached ------------------------------------

    @cached_property
    def bases(self) -> tuple[frozenset[int], ...]:
        """The bases as element sets, by size and then lexicographically."""
        return tuple(map(frozenset, self._sorted_bases))

    @cached_property
    def _sorted_bases(self) -> tuple[tuple[int, ...], ...]:
        """The bases as sorted element tuples, in the order of ``bases``;
        the output reads these rather than sorting each basis again."""
        g = self.ground
        keyed = sorted((b.bit_count(), sorted(g[i] for i in _bits(b))) for b in self._masks)
        return tuple(tuple(b) for _, b in keyed)

    @cached_property
    def rank(self) -> int:
        return self._masks[0].bit_count()

    @cached_property
    def _index(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.ground)}

    @cached_property
    def _mask_set(self) -> frozenset[int]:
        return frozenset(self._masks)

    @cached_property
    def _incidence(self) -> tuple[int, ...]:
        """Entry i is the bitset of the indices k of the bases
        ``_masks[k]`` that hold element i.

        The bases are written as binary rows, last basis first, each
        ``0b1`` and then n digits; column i, read every n + 3 characters,
        is then entry i in binary."""
        n = len(self.ground)
        width = n + 3
        rows = "".join([bin(b | 1 << n) for b in reversed(self._masks)])
        return tuple(int(rows[width - 1 - i :: width], 2) for i in range(n))

    @cached_property
    def full_mask(self) -> int:
        return (1 << len(self.ground)) - 1

    def _mask(self, elems: Iterable[int]) -> int:
        m = 0
        for e in elems:
            try:
                m |= 1 << self._index[e]
            except KeyError:
                raise ElementNotInGround(f"element {e} not in ground set") from None
        return m

    def _members(self, mask: int) -> frozenset[int]:
        g = self.ground
        return frozenset(g[i] for i in range(len(g)) if mask >> i & 1)

    # -- queries -------------------------------------------------------

    def rank_of(self, subset: Iterable[int]) -> int:
        """Rank of a subset: the largest intersection with any basis."""
        s = self._mask(subset)
        return max((b & s).bit_count() for b in self._masks)

    @cached_property
    def loops(self) -> frozenset[int]:
        union = 0
        for b in self._masks:
            union |= b
        return self._members(self.full_mask & ~union)

    @cached_property
    def coloops(self) -> frozenset[int]:
        inter = self.full_mask
        for b in self._masks:
            inter &= b
        return self._members(inter)

    @cached_property
    def _circuit_masks(self) -> tuple[int, ...]:
        return _circuits(self)

    @cached_property
    def _levels(self) -> tuple[int, ...]:
        """The rank table, built on first read: entry k - 1 is the family
        L_k of the subsets X with r(X) >= k, for k = 1..rank, as a bitset
        over the 2^n subsets: the k-element independent sets and every
        set above them, one shift per element."""
        n = len(self.ground)
        indep, by_size, lacks = _independent(self._masks, n), _by_size(n), _lacks(n)
        levels = []
        for k in range(1, self.rank + 1):
            level = indep & by_size[k]
            for i, lack in enumerate(lacks):
                level |= (level & lack) << (1 << i)
            levels.append(level)
        return tuple(levels)

    @cached_property
    def _transversal(self) -> "_Transversal":
        return _decide_transversal(self)

    # -- duality and minors ---------------------------------------------

    def dual(self) -> "Matroid":
        """Matroid whose bases are the ground-set complements of ours."""
        full = self.full_mask
        return _from_masks(self.ground, [full ^ b for b in self._masks])

    def minor(self, deletions: Iterable[int] = (), contractions: Iterable[int] = ()) -> "Matroid":
        """Delete and contract; any interleaving gives the same result.

        Contracting a loop is the same as deleting it.  The non-loop part
        of the contraction set C must be independent.  The bases of
        M / C \\ D are the largest traces B & keep over the bases B that
        contain C, where keep is the ground minus C and D; they are
        squeezed onto the kept positions as the minor's masks.
        """
        dmask = self._mask(deletions)
        cmask = self._mask(contractions)
        if dmask & cmask:
            raise OverlappingSets(
                f"deletions and contractions share {sorted(self._members(dmask & cmask))}"
            )
        loop_part = cmask & self._mask(self.loops)
        dmask |= loop_part
        cmask &= ~loop_part
        if cmask and not any(cmask & ~b == 0 for b in self._masks):
            raise DependentContraction(
                f"contraction set {sorted(self._members(cmask))} is dependent"
            )
        keep = self.full_mask & ~(dmask | cmask)
        traces = {b & keep for b in self._masks if not cmask & ~b}
        best = max(map(int.bit_count, traces))
        gone = sorted(_bits(dmask | cmask), reverse=True)
        return _from_masks(
            tuple(e for i, e in enumerate(self.ground) if keep >> i & 1),
            [_squeeze(t, gone) for t in traces if t.bit_count() == best],
        )

    def delete(self, *elements: int) -> "Matroid":
        return self.minor(deletions=elements)

    def contract(self, *elements: int) -> "Matroid":
        return self.minor(contractions=elements)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = ["ground: " + " ".join(str(e) for e in self.ground)]
        for b in self._sorted_bases:
            lines.append("basis: " + " ".join(map(str, b)))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "ground": list(self.ground),
            "bases": list(map(list, self._sorted_bases)),
        }


def _from_masks(ground: tuple[int, ...], masks: Iterable[int]) -> Matroid:
    """The matroid on ``ground`` whose bases are the position masks
    ``masks``: bit i of a mask stands for ``ground[i]``."""
    _within(len(ground))
    out = object.__new__(Matroid)
    object.__setattr__(out, "ground", ground)
    object.__setattr__(out, "_masks", tuple(sorted(set(masks))))
    return out


# ---------------------------------------------------------------------------
# construction with full axiom validation


def make_matroid(
    ground: Iterable[int],
    bases: Iterable[Iterable[int]],
    bound: int = GROUND_BOUND,
) -> Matroid:
    """Validate a basis family and return its matroid on the sorted
    ground.

    Checks, in order: the ground labels are distinct integers within the
    bound (``_ground``); every basis lies in the ground (the stray element
    named is the first met in canonical basis order, by size and then
    lexicographically); the family is nonempty; no basis properly
    contains another; exchange holds for every ordered pair of distinct
    bases.  The first violation is reported with a witness.  The bases
    become masks once, in ``Matroid``, and the mask-level step
    ``_validated`` makes every check after the second; a producer that
    already has the masks (``Chirotope.support_matroid``) calls that step
    directly.
    """
    g = _ground(ground, bound)
    fam = list(bases)
    try:
        m = Matroid(g, fam)
    except ElementNotInGround:
        # name the stray element met first in canonical basis order
        Matroid(g, sorted(map(frozenset, fam), key=lambda b: (len(b), sorted(b))))
        raise
    return _validated(m)


def _ground(ground: Iterable[int], bound: int = GROUND_BOUND) -> tuple[int, ...]:
    """The ground labels, sorted, once they pass ``_labels``."""
    return tuple(sorted(_labels(ground, bound)))


def _labels(ground: Iterable[int], bound: int = TABLE_BOUND) -> tuple[int, ...]:
    """The ground labels, in their order, once they are distinct integers
    and at most ``bound`` of them, and at most ``TABLE_BOUND`` whatever
    the bound."""
    g = tuple(ground)
    if len(set(g)) != len(g):
        raise MatroidError("ground labels must be distinct")
    if any(not isinstance(e, int) for e in g):
        raise MatroidError("ground labels must be integers")
    _within(len(g), bound)
    return g


def _validated(m: Matroid) -> Matroid:
    """``m`` once its masks are a nonempty basis family with no basis
    inside another and basis exchange for every ordered pair; else the
    first failure, with its witness.

    The last two checks run in ``_check_family``, at 0.3-0.8 us per step
    of B * r * (n - r) for B bases of rank r, or, for an equal-size family
    (every matroid has n <= TABLE_BOUND elements), in ``_rank_axioms_hold``
    when that is cheaper: 2-8 ns per unit of n * 2^n at n >= 12, hence the
    weight 100 (CPython 3.11, x86-64); the check then only names a
    rejection's witness.  An accepted matroid keeps that table for its
    cyclic flats.
    """
    masks, n = m._masks, len(m.ground)
    if not masks:
        raise EmptyBases("a matroid needs at least one basis")
    r = m.rank
    equal = all(b.bit_count() == r for b in masks)
    if equal and len(masks) * r * (n - r) * 100 >= n << n:
        if _rank_axioms_hold(m):
            return m
        _check_family(m)
        raise MatroidError("the rank table rejects a family the exchange check accepts")
    _check_family(m)
    return m


def _check_family(m: Matroid) -> None:
    """Raise the first containment or exchange failure that a scan of
    the ordered pairs of bases of ``m``, in mask order, would meet.

    With ``has[e]`` (``_incidence``) the bitset of the bases holding e
    and ``lacks[e]`` its complement, the bases after a that contain it
    are the AND of its ``has`` without a, and the bases failing exchange
    for element i of x lack i and every j outside x with x - i + j a
    basis; the lowest of those over the i of x is x's first failure.
    """
    g, masks, mask_set, has = m.ground, m._masks, m._mask_set, m._incidence
    every = (1 << len(masks)) - 1
    for k, a in enumerate(masks):
        above = every ^ 1 << k
        for e in _bits(a):
            above &= has[e]
        if above:
            raise ContainmentViolation(m._members(a), m._members(masks[next(_bits(above))]))
    lacks = [every ^ h for h in has]
    for x in masks:
        gain = [(1 << j, lacks[j]) for j in _bits(m.full_mask & ~x)]
        fails = []
        for i in _bits(x):
            base, fail = x ^ 1 << i, lacks[i]
            for bit, lack in gain:
                if base | bit in mask_set:
                    fail &= lack
            if fail:
                fails.append((fail & -fail, i))
        if fails:
            y, i = min(fails)
            raise ExchangeFailure(m._members(x), m._members(masks[y.bit_length() - 1]), g[i])


# Families of subsets of n elements as bitsets over the 2^n subsets: bit X
# stands for the subset whose position mask is X.


@lru_cache(maxsize=None)
def _lacks(n: int) -> tuple[int, ...]:
    """Entry i is the family of the subsets of n elements that lack element i."""
    size, full, out = max(1, (1 << n) >> 3), (1 << (1 << n)) - 1, []
    for i in range(n):
        if i < 3:
            unit = bytes([(0x55, 0x33, 0x0F)[i]])
        else:
            half = 1 << (i - 3)
            unit = b"\xff" * half + b"\x00" * half
        out.append(int.from_bytes(unit * (size // len(unit)), "little") & full)
    return tuple(out)


@lru_cache(maxsize=None)
def _by_size(n: int) -> tuple[int, ...]:
    """Entry k is the family of the k-element subsets of n elements."""
    by_size = [1]
    for i in range(n):
        by_size = [a | b << (1 << i) for a, b in zip(by_size + [0], [0] + by_size)]
    return tuple(by_size)


def _family(masks: Iterable[int], n: int) -> int:
    """The family of the subsets ``masks`` of n elements."""
    table = bytearray(max(1, (1 << n) >> 3))
    for b in masks:
        table[b >> 3] |= 1 << (b & 7)
    return int.from_bytes(table, "little")


def _independent(masks: Iterable[int], n: int) -> int:
    """The family of the subsets of n elements inside some of ``masks``."""
    indep = _family(masks, n)
    for i, lack in enumerate(_lacks(n)):
        indep |= indep >> (1 << i) & lack
    return indep


_BYTE_BITS = tuple(tuple(_bits(v)) for v in range(256))


def _members_of(family: int) -> list[int]:
    """The subsets in a family as masks, in increasing order, read off
    the nonzero bytes of the family."""
    data = family.to_bytes((family.bit_length() + 7) >> 3, "little")
    return [k << 3 | j for k in itertools.compress(range(len(data)), data) for j in _BYTE_BITS[data[k]]]


def _spans(m: Matroid) -> list[int]:
    """Entry i is the family of the subsets X lacking element i with
    r(X + i) = r(X).  Adding i raises the rank by at most one, so it
    does so exactly when the ranks of X and X + i differ in parity: one
    shift of the XOR of the levels, the subsets of odd rank."""
    n, odd = len(m.ground), 0
    for level in m._levels:
        odd ^= level
    return [lack ^ (odd >> (1 << i) ^ odd) & lack for i, lack in enumerate(_lacks(n))]


def _rank_axioms_hold(m: Matroid) -> bool:
    """Whether the equal-size masks of ``m`` are the basis family of a
    matroid, decided on its rank table (``Matroid._levels``).

    The independent sets are the downward closure of the family, and
    r(X) is the size of the largest one inside X, which is monotone with
    unit increase.  Such a function is a matroid rank exactly when it is
    locally submodular: r(X+a) = r(X+b) = r(X) forces r(X+a+b) = r(X)
    (Oxley, Matroid Theory, 1.3); the family is then the matroid's
    bases.  On the families of ``_spans``, each pair (a, b) is checked for
    every X at once.
    """
    spans = _spans(m)
    for a, b in itertools.combinations(range(len(m.ground)), 2):
        both = spans[a] & spans[b]
        if both & spans[b] >> (1 << a) != both:
            return False
    return True


def _moved(m: Matroid, place: dict[int, int]) -> list[int]:
    """The bases of ``m`` as masks in which each element e sits at
    position ``place[e]``."""
    bits = [1 << place[e] for e in m.ground]
    return [sum(bits[i] for i in _bits(b)) for b in m._masks]


def relabel(m: Matroid, mapping: dict[int, int]) -> Matroid:
    """Rename ground elements through an injective mapping."""
    if sorted(mapping) != list(m.ground):
        raise MatroidError("mapping must cover the ground set exactly")
    if len(set(mapping.values())) != len(mapping):
        raise MatroidError("mapping must be injective")
    ground = tuple(sorted(mapping.values()))
    where = {v: i for i, v in enumerate(ground)}
    return _from_masks(ground, _moved(m, {e: where[v] for e, v in mapping.items()}))


def direct_sum(m1: Matroid, m2: Matroid) -> Matroid:
    """Direct sum on disjoint ground sets; bases are pairwise unions.

    Shared elements raise ``GroundNotDisjoint``, and then a sum of more
    than ``TABLE_BOUND`` elements ``GroundTooLarge``, before any union is
    built."""
    if set(m1.ground) & set(m2.ground):
        raise GroundNotDisjoint(
            f"shared elements {sorted(set(m1.ground) & set(m2.ground))}"
        )
    _within(len(m1.ground) + len(m2.ground))
    ground = tuple(sorted(m1.ground + m2.ground))
    index = {e: i for i, e in enumerate(ground)}
    right = _moved(m2, index)
    return _from_masks(ground, [a | b for a in _moved(m1, index) for b in right])


# ---------------------------------------------------------------------------
# isomorphism


def _cooc_matrix(m: Matroid) -> list[list[int]]:
    """Entry [i][j]: the number of bases holding both i and j."""
    inc = m._incidence
    return [[(a & b).bit_count() for b in inc] for a in inc]


def _refine_colors(c1: list, c2: list, cooc1, cooc2) -> tuple[list[int], list[int]]:
    """Joint color refinement of the two element sets by co-occurrence.

    Each round's colors are the ranks of the sorted signatures, so they
    sort first by the previous color; once a round splits no color class
    they are the dense ranks of the stable partition, which every later
    round would return unchanged.
    """
    def signatures(c: list[int], cooc) -> list:
        at = range(len(c))
        return [(c[i], tuple(sorted((c[j], cooc[i][j]) for j in at if j != i))) for i in at]

    while True:
        sig1, sig2 = signatures(c1, cooc1), signatures(c2, cooc2)
        palette = {s: k for k, s in enumerate(sorted(set(sig1) | set(sig2)))}
        split = len(palette) > len(set(c1) | set(c2))
        c1, c2 = [palette[s] for s in sig1], [palette[s] for s in sig2]
        if not split:
            return c1, c2


def is_isomorphic(m1: Matroid, m2: Matroid) -> tuple[bool, Optional[dict[int, int]]]:
    """Search for a ground bijection carrying bases onto bases.

    Prunes by (size, rank, basis count), then by iterated co-occurrence
    colors, refined until the joint partition stops splitting.  The
    backtracking extends a partial map only where the basis count of
    every mapped pair equals its image's and, once a branch has failed,
    of every mapped 3-set too (popcounts of ANDed ``_incidence``
    bitsets); a search that meets no dead end skips that cost.  An
    isomorphism keeps both counts, so the witness is the first bijection
    in canonical enumeration order either way.
    """
    n = len(m1.ground)
    if (n, m1.rank, len(m1._masks)) != (len(m2.ground), m2.rank, len(m2._masks)):
        return False, None
    if n == 0:
        return True, {}
    cooc1, cooc2 = _cooc_matrix(m1), _cooc_matrix(m2)
    c1 = [cooc1[i][i] for i in range(n)]
    c2 = [cooc2[i][i] for i in range(n)]
    c1, c2 = _refine_colors(c1, c2, cooc1, cooc2)
    if sorted(c1) != sorted(c2):
        return False, None

    order = sorted(range(n), key=lambda i: (c1[i], i))
    target_masks = m2._mask_set
    inc1, inc2 = m1._incidence, m2._incidence
    assign: list[int] = []
    used = [False] * n
    # pairs2: the AND of the incidences of the images of each 2-set of
    # mapped depths (a < b), b-major; need[d]: the basis count of each
    # 3-set of order[d] with such a 2-set of order[:d], in the same order
    pairs2: list[int] = []
    need: dict[int, list[int]] = {}
    strict = False  # whether 3-sets are checked: once a branch has failed

    def ok_partial(i: int, j: int) -> bool:
        if c1[i] != c2[j]:
            return False
        for k, jk in enumerate(assign):
            ik = order[k]
            if cooc1[i][ik] != cooc2[j][jk]:
                return False
        return True

    def ok_triples(depth: int, j: int) -> bool:
        counts = need.get(depth)
        if counts is None:
            at = inc1[order[depth]]
            counts = need[depth] = [
                (at & inc1[order[a]] & inc1[order[b]]).bit_count() for b in range(depth) for a in range(b)
            ]
        at = inc2[j]
        return all((at & p).bit_count() == c for p, c in zip(pairs2, counts))

    def extend(depth: int) -> bool:
        nonlocal strict
        if depth == n:
            perm = dict(zip(order, assign))
            for b in m1._masks:
                img = 0
                for i in range(n):
                    if b >> i & 1:
                        img |= 1 << perm[i]
                if img not in target_masks:
                    strict = True
                    return False
            return True
        i = order[depth]
        held = len(pairs2)
        for j in range(n):
            if not used[j] and ok_partial(i, j) and (not strict or ok_triples(depth, j)):
                pairs2.extend(inc2[j] & inc2[ja] for ja in assign)
                assign.append(j)
                used[j] = True
                if extend(depth + 1):
                    return True
                used[j] = False
                assign.pop()
                del pairs2[held:]
        strict = True
        return False

    if extend(0):
        perm = dict(zip(order, assign))
        return True, {m1.ground[i]: m2.ground[perm[i]] for i in range(n)}
    return False, None


# ---------------------------------------------------------------------------
# minor containment


def has_minor(
    m: Matroid, target: Matroid
) -> tuple[bool, Optional[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """Exhaustively search delete/contract pairs for a copy of ``target``.

    Every minor arises from contracting an independent set of size
    rank(m) - rank(target) and deleting the remaining surplus, so the
    search runs over exactly those pairs, contractions in combination
    order and the deletions of each in combination order.

    A candidate M / C \\ D with |C| = r(M) - r(T), for the target T, has
    rank r(T) exactly when E - D spans M, and its bases are then the
    distinct sets B - C, one for each basis B with C inside it and D
    outside it (Oxley, Matroid Theory, 3.3).  If E - D does not span M,
    no basis avoids D, and the largest traces of ``Matroid.minor`` are
    smaller than r(T).  So the candidate has the target's rank and basis
    count exactly when the bases holding C and missing D number
    |bases(T)|: one popcount of the AND of the per-element incidence
    bitsets (``m._incidence``) of C with the complements of those of D,
    which is also zero for a dependent C.  Only a candidate that passes
    reads its bases, at the set bits, squeezed onto the kept positions:
    their sorted masks are its labelled form, compared first with the
    target's, and a ``Matroid`` is built, for ``is_isomorphic``, only for
    a labelled form not met before.  Returns the first witness
    (deletions, contractions) in enumeration order.
    """
    n = len(m.ground)
    nt = len(target.ground)
    if nt > n:
        return False, None
    csize = m.rank - target.rank
    dsize = n - nt - csize
    if csize < 0 or dsize < 0:
        return False, None
    g, masks = m.ground, m._masks
    every = (1 << len(masks)) - 1
    has = m._incidence
    lacks = [every ^ h for h in has]
    count = len(target._masks)
    seen: dict[tuple[int, ...], bool] = {}
    for contr in itertools.combinations(range(n), csize):
        over = every  # the bases holding C
        for c in contr:
            over &= has[c]
        if over.bit_count() < count:
            continue  # C is dependent, or deletions cannot leave enough bases
        cmask = sum(1 << i for i in contr)
        rest = [i for i in range(n) if not cmask >> i & 1]
        for dele in itertools.combinations(rest, dsize):
            left = over  # then the bases holding C and missing D
            for d in dele:
                left &= lacks[d]
            if left.bit_count() != count:
                continue
            drop = sorted(contr + dele, reverse=True)
            key = tuple(sorted(_squeeze(masks[k] ^ cmask, drop) for k in _bits(left)))
            hit = key == target._masks or seen.get(key)
            if hit is None:
                gone = cmask | sum(1 << i for i in dele)
                kept = tuple(e for i, e in enumerate(g) if not gone >> i & 1)
                hit = seen[key] = is_isomorphic(_from_masks(kept, key), target)[0]
            if hit:
                return True, (tuple(g[i] for i in dele), tuple(g[i] for i in contr))
    return False, None


# ---------------------------------------------------------------------------
# named matroids

FANO_LINES = (
    (1, 2, 4),
    (2, 3, 5),
    (3, 4, 6),
    (4, 5, 7),
    (5, 6, 1),
    (6, 7, 2),
    (7, 1, 3),
)


@lru_cache(maxsize=None)
def named_matroid(name: str, params: tuple[int, ...] = ()) -> Matroid:
    """Canonical instances addressable by identifier.

    Supported: ``uniform`` (rank, size), with size at most ``TABLE_BOUND``,
    ``fano``, ``fano_dual``, ``mk4``, ``mk5``, ``mk33`` (cycle matroids of
    K4, K5, K3,3).
    """
    name = name.lower()
    if name == "uniform":
        if len(params) != 2:
            raise BadParams("uniform needs (rank, size)")
        r, n = params
        if not (0 <= r <= n <= TABLE_BOUND):
            raise BadParams(f"need 0 <= rank <= size <= {TABLE_BOUND}")
        ground = tuple(range(1, n + 1))
        return make_matroid(ground, itertools.combinations(ground, r), bound=TABLE_BOUND)
    if params:
        raise BadParams(f"{name} takes no parameters")
    if name == "fano":
        ground = tuple(range(1, 8))
        lines = {frozenset(t) for t in FANO_LINES}
        bases = [
            t for t in itertools.combinations(ground, 3) if frozenset(t) not in lines
        ]
        return make_matroid(ground, bases)
    if name == "fano_dual":
        return named_matroid("fano").dual()
    if name in ("mk4", "mk5", "mk33"):
        from . import graphs

        g = graphs.named_graph({"mk4": "k4", "mk5": "k5", "mk33": "k33"}[name])
        return graphs.cycle_matroid(g)
    raise UnknownName(f"unknown matroid name {name!r}")


def parse_named(ident: str, bound: int = GROUND_BOUND) -> Matroid:
    """Parse identifiers like ``fano`` or ``uniform:2,4`` into a matroid of
    at most ``bound`` elements; a larger ``uniform`` size raises
    ``GroundTooLarge`` before any basis is built."""
    name, params = split_ident(ident, BadParams)
    if name == "uniform" and len(params) == 2:
        _within(params[1], bound)
    m = named_matroid(name, params)
    _within(len(m.ground), bound)
    return m


# ---------------------------------------------------------------------------
# duality axioms


@dataclass(frozen=True)
class DualityAxiomReport:
    """Outcome of checking the duality axioms on one matroid.

    ``delete_contract_ok`` maps each element to flags for the two
    exchange rules dual(M\\e) = dual(M)/e and dual(M/e) = dual(M)\\e.
    """

    involution_ok: bool
    ground_preserved_ok: bool
    delete_contract_ok: dict[int, tuple[bool, bool]]
    counterexample: Optional[dict]

    @property
    def all_ok(self) -> bool:
        return (
            self.involution_ok
            and self.ground_preserved_ok
            and all(a and b for a, b in self.delete_contract_ok.values())
        )


def check_duality_axioms(m: Matroid) -> DualityAxiomReport:
    """Verify that complementation duality is a ground-preserving
    involution exchanging deletion and contraction at every element.

    The first per-element failure, if any, is returned with both basis
    families so the mismatch is inspectable.
    """
    dm = m.dual()
    involution = dm.dual() == m
    ground_ok = dm.ground == m.ground
    per_element: dict[int, tuple[bool, bool]] = {}
    counterexample = None
    for e in m.ground:
        sides = (
            ("dual(M\\e) = dual(M)/e", m.delete(e).dual(), dm.contract(e)),
            ("dual(M/e) = dual(M)\\e", m.contract(e).dual(), dm.delete(e)),
        )
        flags = tuple(lhs == rhs for _, lhs, rhs in sides)
        per_element[e] = flags
        if counterexample is None and not all(flags):
            rule, lhs, rhs = sides[0 if not flags[0] else 1]
            counterexample = {
                "element": e,
                "rule": rule,
                "left_bases": list(map(list, lhs._sorted_bases)),
                "right_bases": list(map(list, rhs._sorted_bases)),
            }
    return DualityAxiomReport(involution, ground_ok, per_element, counterexample)


# ---------------------------------------------------------------------------
# transversal presentations


class _Transversal(NamedTuple):
    """The transversality verdict of one matroid and its witness text."""

    presentation: Optional[tuple[frozenset[int], ...]]
    flats: int  # cyclic flats examined
    witness: str


def _cyclic_flats(m: Matroid) -> dict[int, int]:
    """Every cyclic flat of ``m`` (a closed union of circuits) as a
    position mask, in increasing mask order, mapped to its rank.

    X is a flat when every e outside X raises its rank, and cyclic when
    every e inside X is spanned by X - e (Oxley, Matroid Theory, 1.4 and
    2.1); on the families of ``_spans`` both hold for every X at once.  A
    flat's rank is the number of levels that hold it, read off their bytes.
    """
    n = len(m.ground)
    found = (1 << (1 << n)) - 1
    for i, (lack, s) in enumerate(zip(_lacks(n), _spans(m))):
        found &= (lack ^ s) | s << (1 << i)
    levels = [level.to_bytes(max(1, (1 << n) >> 3), "little") for level in m._levels]
    return {f: sum(level[f >> 3] >> (f & 7) & 1 for level in levels) for f in _members_of(found)}


def _transversals(sets: list[int], n: int) -> int:
    """The family of the |sets|-subsets of n elements that have a system
    of distinct representatives in ``sets`` (position masks).

    A set T has one in A_1..A_k exactly when T - e has one in
    A_1..A_(k-1) for some e of T in A_k, the element representing A_k;
    so level k is {t + e : t in level k - 1, e in A_k - t}, one shift of
    the table per element of A_k.
    """
    lacks = _lacks(n)
    level = 1  # the empty set
    for s in sets:
        nxt = 0
        for e in _bits(s):
            nxt |= (level & lacks[e]) << (1 << e)
        level = nxt
    return level


def _combination_rank(picks: list[int], size: int) -> int:
    """The 1-based place of the increasing ``picks`` among the subsets of
    range(size) of that many elements, in ``itertools.combinations``
    order."""
    rank, prev, r = 1, -1, len(picks)
    for k, c in enumerate(picks):
        rank += sum(math.comb(size - 1 - j, r - 1 - k) for j in range(prev + 1, c))
        prev = c
    return rank


def _decide_transversal(m: Matroid) -> _Transversal:
    """Decide transversality from the lattice of cyclic flats (Bonin,
    "An introduction to transversal matroids", 2010; Bonin and de Mier,
    "The lattice of cyclic flats of a matroid", 2008).

    In any presentation of a transversal matroid a cyclic set F meets
    exactly r(F) of the r sets, and the complements of the sets of the
    maximal presentation are cyclic flats.  So if E - F occurs beta(F)
    times in it, the sum of beta(G) over the cyclic flats G containing F
    is r(M) - r(F), and Moebius inversion from the top fixes every
    beta(F).  A negative beta(F) rules a presentation out; otherwise the
    beta(F) copies of each E - F are the only candidate, and ``m`` is
    transversal exactly when the r-subsets with a system of distinct
    representatives in it are its bases.

    The flats are visited by decreasing size and then increasing mask, so
    a negative beta names the first such flat in that order.  Those
    r-subsets are built all at once, set by set, on the table of all 2^n
    subsets (``_transversals``; n <= TABLE_BOUND, as for every matroid)
    and compared with the bases.  A disagreement is named by the first
    r-subset of the non-loops, in combination order, on which they
    differ, and the witness counts the r-subsets up to it as matched;
    agreement counts them all.
    """
    n, r, g = len(m.ground), m.rank, m.ground

    def show(mask: int) -> str:
        return "{" + " ".join(str(g[i]) for i in _bits(mask)) + "}"

    def refuted(matched: int, reason: str) -> _Transversal:
        extent = f"{len(flats)} cyclic flats, {matched} r-subsets matched"
        return _Transversal(None, len(flats), f"no presentation (cyclic-flat search: {extent}): {reason}")

    flats = _cyclic_flats(m)
    beta: dict[int, int] = {}
    sets: list[int] = []
    for f in sorted(flats, key=int.bit_count, reverse=True):
        above = sum(b for h, b in beta.items() if h & f == f)
        beta[f] = r - flats[f] - above
        if beta[f] < 0:
            return refuted(0, (
                f"cyclic flat {show(f)} has r(M) - r(F) = {r - flats[f]} < {above} = "
                "the sum of beta(G) over the cyclic flats G above it"
            ))
        sets += [m.full_mask & ~f] * beta[f]
    sets.sort(key=lambda s: (s.bit_count(), [*_bits(s)]))
    listed = ", ".join(map(show, sets))
    nonloops = [i for i, e in enumerate(g) if e not in m.loops]
    hits = _transversals(sets, n)
    differ = _members_of(hits ^ _family(m._masks, n))
    if differ:
        mask = min(differ, key=lambda x: [*_bits(x)])
        place = {p: k for k, p in enumerate(nonloops)}
        matched = _combination_rank([place[p] for p in _bits(mask)], len(nonloops))
        claim = "is not a basis but has a" if hits >> mask & 1 else "is a basis but has no"
        return refuted(matched, (
            f"{show(mask)} {claim} system of distinct representatives "
            f"in the only candidate presentation {listed}"
        ))
    matched = math.comb(len(nonloops), r)
    pres = tuple(m._members(s) for s in sets)
    return _Transversal(pres, len(flats), (
        f"presentation {listed} (maximal; {len(flats)} cyclic flats, {matched} r-subsets matched)"
    ))


def transversal_presentation(
    m: Matroid,
) -> tuple[Optional[tuple[frozenset[int], ...]], int]:
    """The maximal presentation of ``m``: r subsets whose partial
    transversals are its independent sets, or None if it has none.

    Decided by ``_decide_transversal`` from the cyclic flats, read off
    the rank table that validation built or that is built on first need,
    by checking the only candidate presentation against the bases on a
    table of all 2^n subsets (n <= ``TABLE_BOUND``); returns (presentation
    or None, number of cyclic flats examined).  The full verdict, with
    its witness text, is kept as ``m._transversal``.
    """
    t = m._transversal
    return t.presentation, t.flats


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ClassificationReport:
    """Excluded-minor / realization classification of one matroid."""

    binary: bool
    regular: bool
    graphic: bool
    cographic: bool
    transversal: bool
    witnesses: dict[str, str]


def _excluded_minor_scan(m: Matroid, targets: Sequence[tuple[str, Matroid]]):
    for name, t in targets:
        found, wit = has_minor(m, t)
        if found:
            return name, wit
    return None, None


@lru_cache(maxsize=None)
def _graphic_targets() -> tuple[tuple[str, Matroid], ...]:
    """The excluded minors of graphic matroids, built once."""
    return (
        ("U(2,4)", named_matroid("uniform", (2, 4))),
        ("fano", named_matroid("fano")),
        ("fano_dual", named_matroid("fano_dual")),
        ("dual(M(K5))", named_matroid("mk5").dual()),
        ("dual(M(K3,3))", named_matroid("mk33").dual()),
    )


def _circuits(m: Matroid) -> tuple[int, ...]:
    """Every circuit as an element-index mask, by size and then mask;
    read them from ``m._circuit_masks``, which keeps them.

    The circuits are the minimal dependent sets.  On the table of all
    2^n subsets (n <= TABLE_BOUND, as for every matroid), the
    dependent sets are those outside the downward closure of the bases,
    and the non-minimal ones are X + i for a dependent X lacking i: one
    shift per element marks them all, and the rest are read off the
    table's bytes.
    """
    n = len(m.ground)
    dep = (1 << (1 << n)) - 1 & ~_independent(m._masks, n)
    above = 0  # the dependent sets with a dependent set one element smaller
    for i, lack in enumerate(_lacks(n)):
        above |= (dep & lack) << (1 << i)
    return tuple(sorted(_members_of(dep & ~above), key=int.bit_count))


def _ear_ends(ends: dict[int, tuple[int, int]], through: list[int]) -> Optional[tuple[int, int]]:
    """The built vertices (a, b) an ear must join, or None if none fit.

    ``through`` lists C - ear for every circuit C through the ear inside
    the built part plus the ear.  Each must be an a-b path of the built
    graph, which fixes (a, b), and the built graph may have no other a-b
    path.
    """
    pair = None
    for s in through:
        degree: dict[int, int] = {}
        for e in _bits(s):
            for v in ends[e]:
                degree[v] = degree.get(v, 0) + 1
        odd = tuple(sorted(v for v, d in degree.items() if d % 2))
        if len(odd) != 2 or max(degree.values()) > 2 or pair not in (None, odd):
            return None
        pair = odd
    a, b = pair
    adj: dict[int, list[int]] = {}
    for u, v in ends.values():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    count = 0

    def walk(v: int, seen: set[int]) -> None:
        nonlocal count
        for w in adj[v]:
            if count > len(through):
                return
            if w == b:
                count += 1
            elif w not in seen:
                walk(w, seen | {w})

    walk(a, {a})
    return pair if count == len(through) else None


def _realize_component(part: int, cs: list[int]) -> Optional[tuple[int, dict[int, tuple[int, int]]]]:
    """Vertex count and edge ends of a 2-connected graph realizing one
    connected component (a mask ``part``, circuits ``cs`` smallest first).

    The smallest circuit is laid out as a cycle; then the circuit with the
    fewest unbuilt elements is added, whose unbuilt part (the ear) is a
    single path between two built vertices.  Elements lying in the same
    circuits (a series class) may be permuted freely along a path, so
    only the order of whole classes is branched on, within an ear and
    around the first cycle.  The ear's endpoints are forced by the built
    graph; a dead end backtracks to an earlier order.
    """
    series: dict[int, list[int]] = {}
    for e in _bits(part):
        series.setdefault(sum(1 << j for j, c in enumerate(cs) if c >> e & 1), []).append(e)
    class_of = {e: k for k, cls in enumerate(series.values()) for e in cls}

    def runs(mask: int) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for e in _bits(mask):
            out.setdefault(class_of[e], []).append(e)
        return list(out.values())

    built = cs[0]
    plan = []
    while built != part:
        ear = min((c & ~built for c in cs if c & built and c & ~built), key=int.bit_count)
        built |= ear
        inside = [c for c in cs if c & ear and not c & ~built]
        plan.append((runs(ear), [c & ~ear for c in inside]))

    ends: dict[int, tuple[int, int]] = {}

    def attach(k: int, nv: int) -> Optional[int]:
        if k == len(plan):
            return nv
        ear_runs, through = plan[k]
        pair = _ear_ends(ends, through)
        if pair is None:
            return None
        for order in itertools.permutations(ear_runs):
            seq = [e for run in order for e in run]
            path = [pair[0], *range(nv, nv + len(seq) - 1), pair[1]]
            for i, e in enumerate(seq):
                ends[e] = (path[i], path[i + 1])
            done = attach(k + 1, nv + len(seq) - 1)
            if done is not None:
                return done
        for e in seq:
            del ends[e]
        return None

    head, *rest = runs(cs[0])
    size = cs[0].bit_count()
    for order in itertools.permutations(rest):
        for i, e in enumerate(head + [e for run in order for e in run]):
            ends[e] = (i, (i + 1) % size)
        nv = attach(0, size)
        if nv is not None:
            return nv, ends
    return None


def _realization_witness(m: Matroid) -> Optional[list[tuple[int, int]]]:
    """The edge list of a graph whose cycle matroid is ``m`` itself, or
    None if ``m`` is not graphic.

    Edge i of the graph is ground element ``m.ground[i]``.  A loop is a
    loop at vertex 0, a coloop a pendant edge, and each larger connected
    component is built from its circuits by ``_realize_component``; the
    components share vertex 0, which leaves the cycle matroid unchanged.
    The graph is returned only after its cycle matroid has been checked
    equal to ``m`` under that labelling.
    """
    from . import graphs

    circuits = m._circuit_masks
    parts: list[int] = []
    for c in circuits:
        for p in [p for p in parts if p & c]:
            parts.remove(p)
            c |= p
        parts.append(c)
    edges = [(0, 0)] * len(m.ground)
    nv = 1
    for part in parts:
        if part.bit_count() == 1:
            continue  # a loop
        placed = _realize_component(part, [c for c in circuits if c & part])
        if placed is None:
            return None
        size, ends = placed
        for e, (u, v) in ends.items():  # keep vertex 0, shift the rest
            edges[e] = (u and u + nv - 1, v and v + nv - 1)
        nv += size - 1
    for e in _bits(m.full_mask - sum(parts)):  # coloops
        edges[e] = (0, nv)
        nv += 1
    g = graphs.Multigraph(nv, tuple(edges))
    if graphs.cycle_matroid(g, bound=len(edges))._masks != m._masks:
        return None
    return edges


def classify(m: Matroid) -> ClassificationReport:
    """Classify by circuit-cocircuit parity, graphic realization, excluded
    minors and the lattice of cyclic flats.

    ``m`` is binary iff every circuit meets every cocircuit evenly (Oxley,
    Matroid Theory, 9.1).  Only a binary side can be graphic, so only then
    are ``m`` and its dual realized (``_realization_witness``), each side
    witnessed by a labelled graph, ``cycle matroid of graph with edges
    [...]``, whose edge i is ground element i in sorted order; a graphic
    side makes ``m`` regular, and the binary and regular witnesses name
    it.  A side without a realization is scanned for its first excluded
    minor, the negative witness: U(2,4) if not binary, else Fano, dual
    Fano, dual M(K5), dual M(K3,3), of which a regular ``m`` skips the
    first two.  Transversality is decided by ``transversal_presentation``:
    the maximal presentation, or the cyclic flat or r-subset ruling every
    presentation out, with the cyclic flats and r-subsets examined.
    """
    sides = {"graphic": m, "cographic": m.dual()}
    circuits, cocircuits = (mm._circuit_masks for mm in sides.values())
    binary = not any((c & d).bit_count() % 2 for c in circuits for d in cocircuits)
    edges = {key: _realization_witness(mm) if binary else None for key, mm in sides.items()}
    realized = [key for key in sides if edges[key] is not None]
    targets = _graphic_targets()[3 if realized else 1 if binary else 0 :]
    texts, minors = {}, {}
    for key, mm in sides.items():
        if edges[key] is not None:
            texts[key] = f"cycle matroid of graph with edges {edges[key]}"
        else:
            minors[key], wit = _excluded_minor_scan(mm, targets)
            texts[key] = f"{minors[key]} minor at deletions={wit[0]} contractions={wit[1]}"
    if realized:
        key = realized[0]
        text = texts[key] if key == "graphic" else "dual is the " + texts[key]
        regular = True
        witnesses = {"binary": f"{key}, so binary: {text}", "regular": f"{key}, so regular: {text}"}
    else:
        regular = binary and minors["graphic"] not in ("fano", "fano_dual")
        counts = f"{len(circuits)} circuits x {len(cocircuits)} cocircuits"
        witnesses = {
            "binary": f"no U(2,4) minor: every circuit meets every cocircuit evenly (exhaustive: {counts})"
            if binary else texts["graphic"],
            "regular": "binary, and no fano/fano_dual minor (exhaustive search)" if regular else texts["graphic"],
        }
    witnesses.update(texts)

    pres, _ = transversal_presentation(m)
    transversal = pres is not None
    witnesses["transversal"] = m._transversal.witness  # cached by that call

    graphic, cographic = (key in realized for key in sides)
    return ClassificationReport(binary, regular, graphic, cographic, transversal, witnesses)


# ---------------------------------------------------------------------------
# text / JSON formats


def parse_matroid(text: str, bound: int = GROUND_BOUND) -> Matroid:
    """Parse the line format (``ground:`` then ``basis:`` lines) or JSON."""
    data = read_records(text, {"ground": 0, "basis": 0}, BadInput)
    if isinstance(data, dict):
        return make_matroid(
            json_ints(data, "ground", 1, BadInput), json_ints(data, "bases", 2, BadInput), bound=bound
        )
    grounds = [vals for key, vals in data if key == "ground"]
    if not grounds:
        raise BadInput("missing 'ground:' line")
    return make_matroid(grounds[-1], [vals for key, vals in data if key == "basis"], bound=bound)
