"""Exact combinatorial invariants of a plane-curve cusp.

A cusp (a locally irreducible curve singularity) admits a local
parametrization ``(x, y) = (t^a, c_1 t^{b_1} + c_2 t^{b_2} + ...)`` and is
classified topologically by any one of four equivalent data sets, all of
which are handled here:

* Newton pairs ``(p_1, q_1), ..., (p_k, q_k)`` -- coprime pairs, the
  canonical input representation everywhere in this package;
* Puiseux pairs ``(P_j, Q_j)`` with ``P_j = p_j p_{j+1} ... p_k`` and
  ``Q_j = q_j p_{j+1} ... p_k``;
* the characteristic sequence ``(a; b_1 < ... < b_k)`` of exponents of the
  characteristic terms, with ``a = P_1`` and ``b_j = Q_1 + ... + Q_j``;
* the multiplicity sequence of the iterated blow-ups resolving the cusp,
  stored run-length encoded with trailing 1s omitted.

All arithmetic is exact: integers are arbitrary precision and the log
canonical threshold is a ``fractions.Fraction``.  Values are plain tuples,
so everything here is immutable and safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Pair = tuple[int, int]
Pairs = tuple[Pair, ...]
MultRuns = tuple[tuple[int, int], ...]


class InvalidCuspData(ValueError):
    """Raised when a pair/multiplicity sequence violates a cusp invariant."""


# ---------------------------------------------------------------------------
# validation

def validate_newton_pairs(pairs: Pairs) -> None:
    """Check the Newton-pair invariants, raising :class:`InvalidCuspData`.

    Required: at least one pair; every p_j >= 2; gcd(p_j, q_j) = 1;
    q_1 > p_1; q_j >= 1 for j >= 2 (a value of 1 is legal there).
    """
    if not pairs:
        raise InvalidCuspData("Newton pair sequence must contain at least one pair")
    for j, (p, q) in enumerate(pairs, start=1):
        if p < 2:
            raise InvalidCuspData(f"pair {j}: p must be >= 2, got {p}")
        if q < 1:
            raise InvalidCuspData(f"pair {j}: q must be >= 1, got {q}")
        if gcd(p, q) != 1:
            raise InvalidCuspData(f"pair {j}: gcd({p}, {q}) != 1")
    p1, q1 = pairs[0]
    if q1 <= p1:
        raise InvalidCuspData(f"first pair: q must exceed p, got ({p1}, {q1})")


def validate_puiseux_pairs(pairs: Pairs) -> None:
    """Check the Puiseux-pair invariants, raising :class:`InvalidCuspData`.

    Required: P_1 > P_2 > ... > P_k >= 2 with P_{j+1} dividing both P_j and
    Q_j (P_{k+1} := 1); gcd(P_j/P_{j+1}, Q_j/P_{j+1}) = 1; Q_1 > P_1 and
    Q_j >= P_{j+1} for j >= 2.
    """
    if not pairs:
        raise InvalidCuspData("Puiseux pair sequence must contain at least one pair")
    k = len(pairs)
    for j in range(k):
        P, Q = pairs[j]
        Pn = pairs[j + 1][0] if j + 1 < k else 1
        if P < 2:
            raise InvalidCuspData(f"pair {j + 1}: P must be >= 2, got {P}")
        if Pn >= P:
            raise InvalidCuspData(f"pair {j + 1}: P values must strictly decrease")
        if P % Pn or Q % Pn:
            raise InvalidCuspData(
                f"pair {j + 1}: P_{j + 2}={Pn} must divide P_{j + 1}={P} and Q_{j + 1}={Q}"
            )
        if gcd(P // Pn, Q // Pn) != 1:
            raise InvalidCuspData(f"pair {j + 1}: gcd(P/P', Q/P') != 1")
        if j == 0:
            if Q <= P:
                raise InvalidCuspData(f"first pair: Q must exceed P, got ({P}, {Q})")
        elif Q < Pn:
            raise InvalidCuspData(f"pair {j + 1}: Q must be >= next P")


def characteristic_chain(
    a: int, b: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Validate (a; b_1, ..., b_k) as a characteristic sequence and return
    its gcd chain as the Newton p_1..p_k and the Puiseux Q_1..Q_k.

    Required: 1 < a < b_1, strictly increasing b, gcd(a, b_1, ..., b_k) = 1,
    and the gcd chain e_0 = a, e_j = gcd(e_(j-1), b_j) strictly decreases at
    every listed exponent (each b_j is characteristic; so a does not divide
    b_1).  Then p_j = e_(j-1) / e_j and Q_j = b_j - b_(j-1) with b_0 = 0.
    """
    if a < 2:
        raise InvalidCuspData(f"multiplicity a must be >= 2, got {a}")
    if not b:
        raise InvalidCuspData("characteristic sequence needs at least one exponent")
    if b[0] <= a:
        raise InvalidCuspData(f"b_1 must exceed a, got a={a}, b_1={b[0]}")
    ps, Qs = [], []
    g = a
    prev = 0
    for i, bi in enumerate(b, start=1):
        if bi <= prev:
            raise InvalidCuspData("characteristic exponents must strictly increase")
        gn = gcd(g, bi)
        if gn == g:
            raise InvalidCuspData(f"b_{i}={bi} is not characteristic (gcd does not drop)")
        ps.append(g // gn)
        Qs.append(bi - prev)
        g, prev = gn, bi
    if g != 1:
        raise InvalidCuspData(f"gcd(a, b_1, ..., b_k) = {g} != 1")
    return tuple(ps), tuple(Qs)


def validate_multiplicity(runs: MultRuns) -> None:
    """Check run-length-encoded multiplicity data: values strictly decreasing,
    smallest value >= 2, counts positive.  The empty sequence (a smooth
    point) is legal."""
    prev = None
    for value, count in runs:
        if value < 2:
            raise InvalidCuspData(f"multiplicity values must be >= 2, got {value}")
        if count < 1:
            raise InvalidCuspData(f"run counts must be >= 1, got {count}")
        if prev is not None and value >= prev:
            raise InvalidCuspData("run values must strictly decrease")
        prev = value


# ---------------------------------------------------------------------------
# conversions

def newton_to_puiseux(pairs: Pairs) -> Pairs:
    """Convert Newton pairs to Puiseux pairs.

    P_j = p_j p_{j+1} ... p_k and Q_j = q_j p_{j+1} ... p_k.
    """
    validate_newton_pairs(pairs)
    result = _puiseux_from_newton(pairs)
    validate_puiseux_pairs(result)
    return result


def _puiseux_from_newton(pairs: Pairs) -> Pairs:
    # unvalidated core of newton_to_puiseux
    out = []
    tail = 1  # product of p_{j+1} ... p_k
    for p, q in reversed(pairs):
        out.append((p * tail, q * tail))
        tail *= p
    return tuple(reversed(out))


def puiseux_to_newton(pairs: Pairs) -> Pairs:
    """Convert Puiseux pairs back to Newton pairs (exact inverse of
    :func:`newton_to_puiseux`): (p_j, q_j) = (P_j/P_{j+1}, Q_j/P_{j+1})."""
    validate_puiseux_pairs(pairs)
    k = len(pairs)
    out = []
    for j in range(k):
        P, Q = pairs[j]
        Pn = pairs[j + 1][0] if j + 1 < k else 1
        out.append((P // Pn, Q // Pn))
    result = tuple(out)
    validate_newton_pairs(result)
    return result


def characteristic_seq(pairs: Pairs) -> tuple[int, tuple[int, ...]]:
    """Characteristic sequence (a; b_1, ..., b_k) of the cusp:
    a = P_1 and b_j is the partial sum Q_1 + ... + Q_j."""
    puiseux = newton_to_puiseux(pairs)
    a = puiseux[0][0]
    b = []
    total = 0
    for _, Q in puiseux:
        total += Q
        b.append(total)
    return a, tuple(b)


def newton_from_characteristic(a: int, b: tuple[int, ...]) -> Pairs:
    """Recover the Newton pairs from a characteristic sequence, off its gcd
    chain (:func:`characteristic_chain`): (p_j, q_j) = (p_j, Q_j / e_j),
    where e_j = e_(j-1) / p_j divides b_j and b_(j-1)."""
    ps, Qs = characteristic_chain(a, b)
    pairs = []
    e = a
    for p, Q in zip(ps, Qs):
        e //= p
        pairs.append((p, Q // e))
    result = tuple(pairs)
    validate_newton_pairs(result)
    return result


def multiplicity_sequence(pairs: Pairs) -> MultRuns:
    """Multiplicity sequence of the cusp, run-length encoded.

    Staged Euclidean division: start with e = P_1; at stage j feed in
    c = Q_j and repeatedly append e exactly floor(c/e) times, replacing
    (c, e) by (e, c mod e) until the remainder vanishes.  After the last
    stage e = 1; trailing 1s are dropped.
    """
    puiseux = newton_to_puiseux(pairs)
    return _staged_euclid(puiseux)


def _staged_euclid(puiseux: Pairs) -> MultRuns:
    # Also used on unvalidated pair data (it terminates regardless); the
    # public path always validates first.  Each quotient is one run, so the
    # cost does not grow with the entries.
    runs: list[tuple[int, int]] = []
    e = puiseux[0][0]
    for _, Q in puiseux:
        c = Q
        while True:
            q, r = divmod(c, e)
            runs.append((e, q))
            if r == 0:
                break
            c, e = e, r
    return normalize_runs(tuple(runs))


def normalize_runs(runs: MultRuns) -> MultRuns:
    """Merge adjacent equal runs and drop value-1 runs (smooth tail), as
    well as runs of no entries.  Works on the runs, never on the entries."""
    out: list[tuple[int, int]] = []
    for value, count in runs:
        if value > 1 and count > 0:
            if out and out[-1][0] == value:
                count += out.pop()[1]
            out.append((value, count))
    return tuple(out)


# ---------------------------------------------------------------------------
# scalar invariants

def delta_from_puiseux(pairs: Pairs) -> int:
    """delta invariant from Puiseux pairs:
    ((P_1 - 1)(Q_1 - 1) + sum_{j>=2} (P_j - 1) Q_j) / 2."""
    validate_puiseux_pairs(pairs)
    (P1, Q1) = pairs[0]
    bracket = (P1 - 1) * (Q1 - 1) + sum((P - 1) * Q for P, Q in pairs[1:])
    if bracket % 2:
        raise InvalidCuspData("delta bracket is odd; pair data is not a cusp")
    return bracket // 2


def delta_from_multiplicities(runs: MultRuns) -> int:
    """delta invariant from the multiplicity sequence: sum of m(m-1)/2
    over all entries."""
    validate_multiplicity(runs)
    return sum(count * value * (value - 1) // 2 for value, count in runs)


def lct(puiseux: Pairs) -> Fraction:
    """Log canonical threshold of the cusp: 1/P_1 + 1/Q_1, reduced."""
    validate_puiseux_pairs(puiseux)
    P1, Q1 = puiseux[0]
    return Fraction(1, P1) + Fraction(1, Q1)


def self_intersection(degree: int, puiseux: Pairs) -> int:
    """Self-intersection of the strict transform in the minimal log
    resolution: 3d - 1 - P_1 - sum of all Q_i."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    validate_puiseux_pairs(puiseux)
    return 3 * degree - 1 - puiseux[0][0] - sum(Q for _, Q in puiseux)


def genus_target(degree: int) -> int:
    """Arithmetic genus (d-1)(d-2)/2 of a degree-d plane curve; the delta
    invariant a rational unicuspidal curve must concentrate in its cusp."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    return (degree - 1) * (degree - 2) // 2


_FIB = [1, 0, 1]  # phi_{-1}, phi_0, phi_1

# Every family member that needs phi_j has degree d >= phi_(j-2), so past
# this index its genus (d-1)(d-2)/2, which every record prints, has more
# than 4300 digits, the interpreter's default limit on int-to-str
# conversion: genus(phi_10290) < 10^4300 <= genus(phi_10291).
FIBONACCI_INDEX_BOUND = 10_292


def fibonacci(j: int) -> int:
    """Fibonacci number phi_j with phi_0 = 0, phi_1 = 1 and the backward
    extension phi_{-1} = 1.  Exact; an index past FIBONACCI_INDEX_BOUND
    raises ValueError before any number is built."""
    if j < -1:
        raise ValueError(f"Fibonacci index must be >= -1, got {j}")
    if j > FIBONACCI_INDEX_BOUND:
        raise ValueError(
            f"Fibonacci index {j} is past the bound {FIBONACCI_INDEX_BOUND}: "
            "a curve that needs it has a genus of more than 4300 digits"
        )
    while len(_FIB) <= j + 1:
        _FIB.append(_FIB[-1] + _FIB[-2])
    return _FIB[j + 1]


# ---------------------------------------------------------------------------
# textual formats

def format_newton(pairs: Pairs) -> str:
    return ",".join(f"({p},{q})" for p, q in pairs)


def parse_newton(text: str) -> Pairs:
    """Parse ``(p,q),(p,q),...`` (whitespace tolerated)."""
    s = text.replace(" ", "")
    if not s:
        raise InvalidCuspData("empty Newton pair string")
    if not (s.startswith("(") and s.endswith(")")):
        raise InvalidCuspData(f"Newton pairs must look like (p,q),(p,q): {text!r}")
    pairs = []
    for chunk in s[1:-1].split("),("):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise InvalidCuspData(f"malformed Newton pair {chunk!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise InvalidCuspData(f"malformed Newton pair {chunk!r}") from exc
    return tuple(pairs)


def format_multiplicity(runs: MultRuns) -> str:
    """Canonical text form, e.g. ``16,8_4,4_3,2_3``; ``smooth`` when empty."""
    if not runs:
        return "smooth"
    return ",".join(f"{v}_{c}" if c > 1 else f"{v}" for v, c in runs)


def parse_multiplicity(text: str) -> MultRuns:
    """Parse ``16,8_4,4_3,2_3`` (``8x4`` also accepted for a run).

    Value-1 runs and the word ``smooth`` normalize to the empty sequence.
    """
    s = text.replace(" ", "")
    if s in ("", "smooth"):
        return ()
    runs = []
    for chunk in s.split(","):
        body = chunk.replace("x", "_")
        parts = body.split("_")
        try:
            if len(parts) == 1:
                runs.append((int(parts[0]), 1))
            elif len(parts) == 2:
                runs.append((int(parts[0]), int(parts[1])))
            else:
                raise ValueError
        except ValueError as exc:
            raise InvalidCuspData(f"malformed multiplicity run {chunk!r}") from exc
    normalized = normalize_runs(tuple(runs))
    validate_multiplicity(normalized)
    return normalized
