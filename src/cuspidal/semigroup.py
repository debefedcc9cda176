"""Numerical semigroup of a cusp and the unicuspidal counting criterion.

The local intersection multiplicities of a cusp with other curve germs form
a numerical semigroup.  Its minimal generators come from the Newton pairs by
the recursion ``w_1 = P_1``, ``w_2 = Q_1``, ``w_j = p_{j-2} w_{j-1} +
Q_{j-1}``.  Membership up to a bound is materialized as a bitset inside one
Python integer (bit x set iff x is in the semigroup), which keeps the
closure computation and the counting function at C speed even for bounds in
the tens of millions.

The Borodzik-Livingston counting criterion, specialized to a single cusp of
a degree-d rational cuspidal curve, demands

    R(j*d + 1) = (j+1)(j+2)/2   for every j in {0, ..., d-2},

where R(k) counts semigroup elements in [0, k).  It is a necessary
condition for a candidate cusp to be realized by a plane curve and is the
main pruning filter of the enumerator.  The check walks the table once in
ascending order, counting each stretch between consecutive points, and
stops at the first failing j: most candidates fail at j = 1 or 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .invariants import Pairs, newton_to_puiseux, validate_newton_pairs


def generators_from_newton(pairs: Pairs) -> tuple[int, ...]:
    """Minimal semigroup generators (w_1, ..., w_{k+1}) of the cusp.

    The empty sequence (a smooth branch) yields (1,): a smooth point meets
    other curves with every intersection order.
    """
    if not pairs:
        return (1,)
    validate_newton_pairs(pairs)
    return _generators(pairs, newton_to_puiseux(pairs))


def _generators(pairs: Pairs, puiseux: Pairs) -> tuple[int, ...]:
    # unvalidated core of generators_from_newton
    w = [puiseux[0][0], puiseux[0][1]]
    for j in range(1, len(pairs)):
        w.append(pairs[j - 1][0] * w[-1] + puiseux[j][1])
    return tuple(w)


@dataclass(frozen=True)
class NumericalSemigroup:
    """Immutable membership table of a numerical semigroup over [0, bound]."""

    generators: tuple[int, ...]
    bound: int
    bits: int

    def __contains__(self, x: int) -> bool:
        if not 0 <= x <= self.bound:
            raise ValueError(f"membership table covers [0, {self.bound}], got {x}")
        return bool((self.bits >> x) & 1)

    def members(self) -> tuple[int, ...]:
        return tuple(x for x in range(self.bound + 1) if (self.bits >> x) & 1)

    def count_below(self, k: int) -> int:
        """R(k) = number of semigroup elements in [0, k)."""
        if k <= 0:
            return 0
        if k > self.bound + 1:
            raise ValueError(f"R({k}) exceeds table bound {self.bound}")
        return (self.bits & ((1 << k) - 1)).bit_count()


def _count_bit_range(data: bytes, lo: int, hi: int) -> int:
    chunk = int.from_bytes(data[lo // 8 : hi // 8 + 1], "little")
    chunk >>= lo - 8 * (lo // 8)
    chunk &= (1 << (hi - lo)) - 1
    return chunk.bit_count()


def build_membership(generators: tuple[int, ...], bound: int) -> NumericalSemigroup:
    """Materialize membership over [0, bound] by closing {0} under addition
    of each generator (shift-or with doubling strides)."""
    if not generators:
        raise ValueError("need at least one generator")
    if any(g < 1 for g in generators):
        raise ValueError("generators must be positive")
    if bound < 0:
        raise ValueError(f"bound must be >= 0, got {bound}")
    mask = (1 << (bound + 1)) - 1
    bits = 1
    for g in sorted(set(generators)):
        shift = g
        while shift <= bound:
            bits |= (bits << shift) & mask
            shift <<= 1
    return NumericalSemigroup(tuple(sorted(set(generators))), bound, bits)


@dataclass(frozen=True)
class BLCheckResult:
    """Outcome of the unicuspidal counting criterion at one degree."""

    degree: int
    passed: bool
    first_failing_j: int | None = None
    failing_count: int | None = None
    failing_expected: int | None = None

    def __bool__(self) -> bool:
        return self.passed


def bl_check_unicuspidal(degree: int, generators: tuple[int, ...]) -> BLCheckResult:
    """Check R(j*d + 1) = (j+1)(j+2)/2 for j = 0, 1, ..., d-2 in turn.

    One ascending pass over a membership table of [0, (d-2)*d + 1], the
    largest argument probed: R(j*d + 1) is R((j-1)*d + 1) plus the members
    in between, and the pass returns at the first failing j, which it
    reports for diagnostics.
    """
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree}")
    if reduce(gcd, generators) != 1:
        raise ValueError(f"generators {generators} do not generate a numerical semigroup")
    bound = (degree - 2) * degree + 1
    data = build_membership(generators, bound).bits.to_bytes(bound // 8 + 1, "little")
    count = 0
    prev = 0
    for j in range(degree - 1):
        point = j * degree + 1
        count += _count_bit_range(data, prev, point)
        prev = point
        expected = (j + 1) * (j + 2) // 2
        if count != expected:
            return BLCheckResult(degree, False, j, count, expected)
    return BLCheckResult(degree, True)
