"""Closed-form families of rational unicuspidal plane curves.

Four constructions produce every known rational unicuspidal plane curve,
organized by the logarithmic Kodaira dimension of the curve complement:

* **AMS curves** (complement of Kodaira dimension -infinity, tangent line at
  the cusp meeting the curve only there): one curve per ordered
  factorization of the degree into factors >= 2;
* **Kashiwara curves** (the remaining -infinity curves): six types whose
  degrees and pairs are Fibonacci expressions in parameters (l; lambda_i);
* **Tono curves** (Kodaira dimension 1): four types parameterized by
  (a), (a, s), (n), (n, s);
* **Orevkov curves** (Kodaira dimension 2): two Fibonacci families, plain
  and starred.

Each family kind maps to its data in one place: :func:`_family_data` turns
a :class:`FamilySpec` into (degree, Newton pairs), and :func:`kodaira_of_kind`
gives the Kodaira dimension of the kind.  :func:`family_curve` builds every
family record from those two; the per-family constructors only name the
spec.  The data functions validate every divisibility and coprimality
condition at runtime and reject parameter combinations that do not produce
genuine cusp data (several published parameterizations contain such
combinations; see :func:`family_curve`).  Attribution runs the other way
without a search: :func:`attribute_family` reads each kind's parameters off
the Newton pairs and keeps a spec only if :func:`_family_data` gives back
the same degree and pairs, so the degree formulas live in the data
functions alone.  A Kashiwara or Orevkov kind's data name its level by one
Fibonacci number (the first p of kashiwara-ii-ge is phi_(2l+3)^2, the
degree of an Orevkov curve phi_(4k+2), and so on; see
:func:`_specs_of_pairs`), and these numbers strictly increase with the
level, so each kind proposes at most one spec.  :func:`member_rows` walks
the same data upward to list the one- and two-pair classifications.
Stored invariants always come from recomputation via
:mod:`cuspidal.invariants`, never from the closed forms, so
:func:`invariant_closed_forms` stays an independent cross-check; it builds
no record.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, isqrt, prod

from . import invariants as inv
from .existence import CANDIDATE, PROVED_FAMILY
from .records import (
    FLAG_INCONSISTENT,
    CurveRecord,
    FamilySpec,
    KODAIRA_NEG_INF,
    curve_record,
    cusp_data,
)

AMS = "ams"
KASHIWARA_II_GE = "kashiwara-ii-ge"
KASHIWARA_II_SP = "kashiwara-ii-sp"
KASHIWARA_IIPLUS_GE = "kashiwara-iiplus-ge"
KASHIWARA_IIPLUS_SP = "kashiwara-iiplus-sp"
KASHIWARA_IIMINUS_GE = "kashiwara-iiminus-ge"
KASHIWARA_IIMINUS_SP = "kashiwara-iiminus-sp"
TONO_IA = "tono-ia"
TONO_IB = "tono-ib"
TONO_IIA = "tono-iia"
TONO_IIB = "tono-iib"
OREVKOV = "orevkov"
OREVKOV_STAR = "orevkov-star"

KASHIWARA_KINDS = (
    KASHIWARA_II_GE,
    KASHIWARA_II_SP,
    KASHIWARA_IIPLUS_GE,
    KASHIWARA_IIPLUS_SP,
    KASHIWARA_IIMINUS_GE,
    KASHIWARA_IIMINUS_SP,
)
TONO_KINDS = (TONO_IA, TONO_IB, TONO_IIA, TONO_IIB)
ALL_KINDS = (AMS,) + KASHIWARA_KINDS + TONO_KINDS + (OREVKOV, OREVKOV_STAR)


class FamilyParameterError(ValueError):
    """Parameter combination outside a family's domain, or one that fails a
    divisibility/coprimality condition of the construction."""


def _exact_div(num: int, den: int, what: str) -> int:
    if num % den:
        raise FamilyParameterError(f"{what} = {num}/{den} is not an integer")
    return num // den


# ---------------------------------------------------------------------------
# AMS curves

def ams_newton_pairs(factors: tuple[int, ...]) -> inv.Pairs:
    """Newton pairs of the AMS curve of the ordered factorization.

    First factor f_1 >= 3: pairs (f_1 - 1, f_1), (f_2, f_1 f_2 - 1), ...,
    (f_r, f_{r-1} f_r - 1).  First factor 2: the leading pair degenerates
    and the curve has r - 1 pairs (f_2, 4 f_2 - 1), (f_3, f_2 f_3 - 1), ...
    The single factorization (2,) leaves no pairs at all: its "curve" is
    the smooth conic, kept so that every ordered factorization of every
    degree >= 2 has a record.
    """
    if not factors:
        raise FamilyParameterError("ordered factorization must be nonempty")
    if any(f < 2 for f in factors):
        raise FamilyParameterError(f"factors must all be >= 2, got {factors}")
    tail = [(f, e * f - 1) for e, f in zip(factors, factors[1:])]
    if factors[0] != 2:
        return ((factors[0] - 1, factors[0]), *tail)
    return ((factors[1], 4 * factors[1] - 1), *tail[1:]) if tail else ()


def ams_curve(factors: tuple[int, ...]) -> CurveRecord:
    """AMS curve of one ordered factorization (degree = product)."""
    return family_curve(FamilySpec(AMS, tuple(factors)))


@lru_cache(maxsize=None)
def ordered_factorizations(n: int) -> tuple[tuple[int, ...], ...]:
    """All ordered factorizations of n into factors >= 2, lexicographic."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return ((),)
    out = []
    for f in range(2, n + 1):
        if n % f == 0:
            out.extend((f,) + rest for rest in ordered_factorizations(n // f))
    return tuple(out)


# trial division stops here; a larger cofactor must be proved prime
TRIAL_DIVISION_BOUND = 1 << 20
# the primes 2..41 as Miller-Rabin bases decide primality below this
# (Sorenson and Webster 2015)
MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def ordered_factorization_count(n: int) -> int:
    """Kalmar count a(n): a(1) = 1, a(n) = sum of a(d) over proper divisors.

    a(n) depends only on the prime exponents e_i of n, and a closed form in
    them gives it.  The ordered factorizations of n into i factors >= 1
    number F(i) = prod C(e_i + i - 1, i - 1), since each prime spreads its
    exponent over the i factors; inclusion-exclusion over the factors equal
    to 1 leaves sum_(i<=j) (-1)^(j-i) C(j, i) F(i) with exactly j factors
    >= 2, for j = 1..N, N = sum e_i.  Collected by F(i), the signs sum to
    S(i) = sum_(j=i..N) (-1)^(j-i) C(j, i), and Pascal's rule gives
    2 S(i) = S(i-1) + (-1)^(N-i) C(N+1, i) from S(0) = [N even].

    The cost is the factoring (see :func:`_prime_exponents`), at most
    TRIAL_DIVISION_BOUND / 2 trial divisions and one Miller-Rabin test;
    an n it cannot factor raises ValueError.  Then N <= log2(n) products
    of binomials follow.
    """
    exponents = _prime_exponents(n)
    N = sum(exponents)
    total, S = 1 if N == 0 else 0, 1 - N % 2
    for i in range(1, N + 1):
        S = (S + (-1) ** (N - i) * comb(N + 1, i)) // 2
        total += S * prod(comb(e + i - 1, i - 1) for e in exponents)
    return total


def _prime_exponents(n: int) -> list[int]:
    """The exponents of the prime factors of n, by trial division up to
    TRIAL_DIVISION_BOUND.  A cofactor left above it has no factor up to
    the bound; it counts as one prime only when the deterministic
    Miller-Rabin test proves it prime, and otherwise (a composite, or a
    cofactor of MILLER_RABIN_EXACT_BELOW or more) ValueError is raised."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    exponents = []
    f = 2
    while f * f <= n:
        if f > TRIAL_DIVISION_BOUND:
            if n >= MILLER_RABIN_EXACT_BELOW or not _miller_rabin(n):
                raise ValueError(
                    f"cannot factor n: the cofactor {n} has no prime factor "
                    f"up to {TRIAL_DIVISION_BOUND} and is not provably prime"
                )
            break
        if n % f == 0:
            exponents.append(0)
            while n % f == 0:
                n //= f
                exponents[-1] += 1
        f += 1 if f == 2 else 2
    if n > 1:
        exponents.append(1)
    return exponents


def _miller_rabin(n: int) -> bool:
    """Whether odd n > 41 is a strong probable prime to every base in
    _MILLER_RABIN_BASES; exact for n < MILLER_RABIN_EXACT_BELOW."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ams_all(degree: int) -> list[CurveRecord]:
    """One AMS record per ordered factorization of the degree."""
    if degree < 2:
        raise FamilyParameterError(f"degree must be >= 2, got {degree}")
    return [ams_curve(f) for f in ordered_factorizations(degree)]


# ---------------------------------------------------------------------------
# Kashiwara curves

def _kashiwara_data(kind: str, l: int, lambdas: tuple[int, ...]) -> tuple[int, inv.Pairs]:
    if l < 0:
        raise FamilyParameterError(f"l must be >= 0, got {l}")
    F = inv.fibonacci(2 * l + 3)
    if kind in (KASHIWARA_II_GE, KASHIWARA_II_SP) and lambdas:
        raise FamilyParameterError(f"{kind} takes no lambda parameters")
    if kind == KASHIWARA_II_GE:
        return F * inv.fibonacci(2 * l + 5), ((F * F, inv.fibonacci(2 * l + 5) ** 2),)
    if kind == KASHIWARA_II_SP:
        if l < 1:
            raise FamilyParameterError(
                "the special one-pair type needs l >= 1 (l = 0 gives the pair (1, 5), a smooth conic)"
            )
        return F, ((inv.fibonacci(2 * l + 1), inv.fibonacci(2 * l + 5)),)

    if not lambdas:
        raise FamilyParameterError(f"{kind} needs at least one lambda parameter")
    if any(x < 0 for x in lambdas):
        raise FamilyParameterError("lambda parameters must be >= 0")
    if l == 0 and any(x < 1 for x in lambdas):
        raise FamilyParameterError("lambda parameters must be >= 1 when l = 0")

    plus = kind in (KASHIWARA_IIPLUS_GE, KASHIWARA_IIPLUS_SP)
    ge = kind in (KASHIWARA_IIPLUS_GE, KASHIWARA_IIMINUS_GE)
    prev = inv.fibonacci(2 * l - 1)
    c_small = F * prev - 1
    c_big = F * (F - prev) - 1
    n = []
    for i, lam in enumerate(lambdas, start=1):
        odd = i % 2 == 1
        c = (c_small if odd else c_big) if plus else (c_big if odd else c_small)
        n.append(lam * F * F + c)
    lead = inv.fibonacci(2 * l + 5) if plus else inv.fibonacci(2 * l + 1)
    degree = (F if ge else 1) * lead * prod(n)
    pairs = [(n[0], _exact_div(lead * lead * n[0] - 1, F * F, "q_1"))]
    for i in range(1, len(n)):
        pairs.append((n[i], _exact_div(n[i - 1] * n[i] - 1, F * F, f"q_{i + 1}")))
    if ge:
        pairs.append((F * F, n[-1]))
    else:
        pairs.append((F, _exact_div(n[-1] + 1, F, "final q")))
    return degree, tuple(pairs)


def kashiwara_curve(kind: str, l: int, lambdas: tuple[int, ...] = ()) -> CurveRecord:
    """Kashiwara curve of the given type.

    The two one-pair types take only l; the four N-pair types take l and
    (lambda_1, ..., lambda_N).  Every divisibility condition in the pair
    formulas is checked at runtime; combinations producing non-integral
    entries or data violating the cusp invariants are rejected with a
    diagnostic.
    """
    if kind not in KASHIWARA_KINDS:
        raise FamilyParameterError(f"unknown Kashiwara type {kind!r}")
    return family_curve(FamilySpec(kind, (l, *lambdas)))


# ---------------------------------------------------------------------------
# Tono curves

def tono_curve(kind: str, params: tuple[int, ...]) -> CurveRecord:
    """Tono curve of the given type: ia (a,), ib (a, s), iia (n,), iib (n, s).

    iib records are flagged and left with existence "candidate"; see
    :func:`family_curve`.
    """
    if kind not in TONO_KINDS:
        raise FamilyParameterError(f"unknown Tono type {kind!r}")
    return family_curve(FamilySpec(kind, tuple(params)))


def _tono_data(kind: str, params: tuple[int, ...]) -> tuple[int, inv.Pairs]:
    if kind == TONO_IA:
        (a,) = params
        if a < 3:
            raise FamilyParameterError(f"type ia needs a >= 3, got {a}")
        return a * a + 1, ((a - 1, a), (a, (a + 1) ** 2))
    if kind == TONO_IB:
        a, s = params
        if a < 3 or s < 2:
            raise FamilyParameterError(f"type ib needs a >= 3 and s >= 2, got a={a}, s={s}")
        return a * a * s + 1, ((a - 1, a), (s, a * s + 1), (a, a * s + 1))
    if kind == TONO_IIA:
        (n,) = params
        if n < 2:
            raise FamilyParameterError(f"type iia needs n >= 2, got {n}")
        return 8 * n * n + 4 * n + 1, ((n, 4 * n + 1), (4 * n + 1, (2 * n + 1) ** 2))
    n, s = params  # TONO_IIB
    if n < 2 or s < 2:
        raise FamilyParameterError(f"type iib needs n >= 2 and s >= 2, got n={n}, s={s}")
    v = 4 * n + 1
    pairs = (
        (n * (4 * s - 1), (s - 1) * v),
        (4 * s - 1, v * s - n),
        (v, v * s - n),
    )
    return 2 * v * v * s - 4 * n * (2 * n + 1), pairs


# ---------------------------------------------------------------------------
# Orevkov curves

def orevkov_curve(k: int, starred: bool = False) -> CurveRecord:
    """Orevkov curve: plain family at degree 8 (k = 1) and phi_{4k+2}
    (k > 1); starred family at twice those degrees."""
    return family_curve(FamilySpec(OREVKOV_STAR if starred else OREVKOV, (k,)))


def _orevkov_data(k: int, starred: bool) -> tuple[int, inv.Pairs]:
    if k < 1:
        raise FamilyParameterError(f"k must be >= 1, got {k}")
    if k == 1:
        return (16, ((6, 43),)) if starred else (8, ((3, 22),))
    f4k, f4k4 = inv.fibonacci(4 * k), inv.fibonacci(4 * k + 4)
    assert f4k % 3 == 0 and f4k4 % 3 == 0  # fib(4) = 3 divides fib(4k)
    head = (f4k // 3, f4k4 // 3)
    if starred:
        return 2 * inv.fibonacci(4 * k + 2), (head, (6, 1))
    return inv.fibonacci(4 * k + 2), (head, (3, 1))


# ---------------------------------------------------------------------------
# the family table: kind -> data and Kodaira dimension; one record builder

# the names of each family kind's params, in order: AMS takes any number
# of factors, a Kashiwara kind takes l and then any number of lambdas, and
# every other kind exactly the names listed
PARAM_NAMES = {
    AMS: ("factors",),
    **dict.fromkeys(KASHIWARA_KINDS, ("l",)),
    TONO_IA: ("a",),
    TONO_IB: ("a", "s"),
    TONO_IIA: ("n",),
    TONO_IIB: ("n", "s"),
    OREVKOV: ("k",),
    OREVKOV_STAR: ("k",),
}


def _check_param_count(spec: FamilySpec) -> None:
    given = len(spec.params)
    if spec.kind in KASHIWARA_KINDS:
        if given < 1:
            raise FamilyParameterError(f"{spec.kind} needs the parameter l")
    elif spec.kind != AMS and spec.kind in PARAM_NAMES:
        expected = len(PARAM_NAMES[spec.kind])
        if given != expected:
            raise FamilyParameterError(f"{spec.kind} takes {expected} parameter(s), got {given}")


def _family_data(spec: FamilySpec) -> tuple[int, inv.Pairs]:
    """(degree, Newton pairs) of a family spec, after the parameter checks
    of its kind; no record is built."""
    _check_param_count(spec)
    kind, params = spec.kind, spec.params
    if kind == AMS:
        return prod(params), ams_newton_pairs(params)
    if kind in KASHIWARA_KINDS:
        return _kashiwara_data(kind, params[0], params[1:])
    if kind in TONO_KINDS:
        return _tono_data(kind, params)
    if kind in (OREVKOV, OREVKOV_STAR):
        return _orevkov_data(params[0], kind == OREVKOV_STAR)
    raise FamilyParameterError(f"unknown family kind {kind!r}")


def kodaira_of_kind(kind: str) -> float | int:
    """Logarithmic Kodaira dimension of the complement of a family's curves."""
    if kind in TONO_KINDS:
        return 1
    if kind in (OREVKOV, OREVKOV_STAR):
        return 2
    return KODAIRA_NEG_INF  # ams and kashiwara


def family_curve(spec: FamilySpec) -> CurveRecord:
    """Generate the curve of a family spec; every family record is built here.

    Data that violates the cusp invariants raises
    :class:`FamilyParameterError`.  Both Kashiwara "minus" types always
    do: they fail the q_1 > p_1 invariant, since q_1/p_1 is roughly
    (phi_{2l+1}/phi_{2l+3})^2 < 1, so no parameter choice yields genuine
    cusp data.

    The published tono-iib pair data is internally inconsistent: the pairs
    fail coprimality and first-pair ordering for small s, and their delta
    invariant does not match the genus of the stated degree.  iib records
    are therefore built on the lenient path, flagged, and left with
    existence "candidate"; see also :func:`invariant_closed_forms`.
    """
    degree, pairs = _family_data(spec)
    inconsistent = spec.kind == TONO_IIB
    try:
        record = curve_record(degree, pairs, strict=not inconsistent)
    except inv.InvalidCuspData as exc:
        raise _family_error(spec, exc) from exc
    return replace(
        record,
        family=spec,
        kodaira=kodaira_of_kind(spec.kind),
        existence=CANDIDATE if inconsistent else PROVED_FAMILY,
        flags=(FLAG_INCONSISTENT,) if inconsistent else (),
    )


def _family_error(spec: FamilySpec, exc: inv.InvalidCuspData) -> FamilyParameterError:
    if spec.kind in KASHIWARA_KINDS:
        label = f"{spec.kind}(l={spec.params[0]}, lambdas={spec.params[1:]})"
    else:
        label = spec.describe()
    return FamilyParameterError(f"{label}: {exc}")


def invariant_closed_forms(spec: FamilySpec) -> tuple[Fraction, int]:
    """Closed-form (lct, self-intersection) of a family member.

    These are evaluated directly from the family parameters, independently
    of the pair pipeline, and are compared against recomputed invariants in
    the table-reproduction checks.  Notes on two branches:

    * first-factor-2 AMS curves: the leading Puiseux exponent is
      (4 f_2 - 1) f_3 ... f_r rather than the degree, so the second lct
      term uses that value (the formula 1/((f_1-1) f_2...f_r) + 1/d holds
      only for first factor >= 3; the factorization (2,) is the smooth
      conic with lct 1 and self-intersection 4);
    * tono-iib: the published threshold expression is singular at s = 1
      and disagrees with the threshold computed from the published pairs
      for every s; it is returned verbatim here so the discrepancy stays
      visible, and records of that type carry an inconsistency flag.

    No record is built.  Exactly the specs that :func:`family_curve`
    rejects raise :class:`FamilyParameterError`, with its message: the
    spec's data come from :func:`_family_data`, whose domain checks pass
    through, and for every kind but tono-iib its pairs then go through
    :func:`~cuspidal.records.cusp_data`, the strict check of the record
    that :func:`family_curve` would build (the Newton-pair invariants and
    delta = genus); every Kashiwara "minus" spec fails it.  tono-iib is
    built on the lenient path, which raises nothing on the positive pairs
    of its domain.  The tono-iib s = 1 check comes first.  The Kashiwara
    N-pair kinds read their n_i off the pairs.
    """
    if spec.kind == TONO_IIB and spec.params[1:] == (1,):
        raise FamilyParameterError("tono-iib threshold expression is singular at s = 1")
    degree, pairs = _family_data(spec)
    if spec.kind != TONO_IIB:
        try:
            cusp_data(degree, pairs)
        except inv.InvalidCuspData as exc:
            raise _family_error(spec, exc) from exc
    return _closed_forms(spec, pairs)


def _closed_forms(spec: FamilySpec, pairs: inv.Pairs) -> tuple[Fraction, int]:
    """:func:`invariant_closed_forms` of a spec that :func:`family_curve`
    accepts, given its Newton pairs."""
    kind, params = spec.kind, spec.params
    if kind == AMS:
        factors = params
        d = prod(factors)
        if factors == (2,):
            return Fraction(1), 4
        if factors[0] == 2:
            lct = Fraction(2, d) + Fraction(1, (4 * factors[1] - 1) * prod(factors[2:]))
        else:
            lct = Fraction(1, (factors[0] - 1) * prod(factors[1:])) + Fraction(1, d)
        return lct, factors[-1]
    if kind in KASHIWARA_KINDS:
        l = params[0]
        F = inv.fibonacci(2 * l + 3)
        if kind == KASHIWARA_II_GE:
            return Fraction(1, F * F) + Fraction(1, inv.fibonacci(2 * l + 5) ** 2), 0
        if kind == KASHIWARA_II_SP:
            return (
                Fraction(1, inv.fibonacci(2 * l + 1)) + Fraction(1, inv.fibonacci(2 * l + 5)),
                -1,
            )
        n = [p for p, _ in pairs[:-1]]
        lead = inv.fibonacci(2 * l + 5) if kind in (KASHIWARA_IIPLUS_GE, KASHIWARA_IIPLUS_SP) else inv.fibonacci(2 * l + 1)
        rest = prod(n[1:]) if len(n) > 1 else 1
        if kind in (KASHIWARA_IIPLUS_GE, KASHIWARA_IIMINUS_GE):
            return Fraction(1, prod(n) * F * F) + Fraction(1, (lead * lead * n[0] - 1) * rest), 0
        return Fraction(1, prod(n) * F) + Fraction(F, (lead * lead * n[0] - 1) * rest), -1
    if kind == TONO_IA:
        (a,) = params
        return Fraction(1, a * (a - 1)) + Fraction(1, a * a), 1 - a
    if kind == TONO_IB:
        a, s = params
        return Fraction(1, a * s * (a - 1)) + Fraction(1, a * a * s), 1 - a
    if kind == TONO_IIA:
        (n,) = params
        return Fraction(1, n * (4 * n + 1)) + Fraction(1, (4 * n + 1) ** 2), -n
    if kind == TONO_IIB:
        n, s = params
        return (
            Fraction(1, n * (4 * n + 1) * (4 * s - 1))
            + Fraction(1, (4 * n + 1) ** 2 * (s - 1)),
            -n,
        )
    (k,) = params  # OREVKOV, OREVKOV_STAR; _family_data rejects any other kind
    if k == 1:
        return (
            (Fraction(1, 6) + Fraction(1, 43), -2)
            if kind == OREVKOV_STAR
            else (Fraction(1, 3) + Fraction(1, 22), -2)
        )
    half = 2 if kind == OREVKOV_STAR else 1
    return (
        Fraction(1, half * inv.fibonacci(4 * k))
        + Fraction(1, half * inv.fibonacci(4 * k + 4)),
        -2,
    )


def _specs_of_pairs(degree: int, newton: inv.Pairs):
    """Candidate specs of (degree, newton) in kind order, at most one per
    kind, each read off the data; :func:`_family_data` must still confirm
    it.

    Each kind's data name its own level.  With F = phi_(2l+3), a one-pair
    kashiwara-ii-ge curve has first p = F^2, ii-sp has degree F, iiplus-ge
    has last p = F^2 and iiplus-sp has last p = F; an Orevkov curve of
    level k has degree phi_(4k+2), or 2 phi_(4k+2) when starred.  These
    Fibonacci numbers strictly increase with the level, so at most one
    level per kind can give back (degree, newton), and
    :func:`~cuspidal.invariants.fibonacci_index` looks that level up from
    the number's bit length in a few exact comparisons, with no scan over
    the levels.  Kashiwara plus: n_i = lambda_i F^2 + c_i with
    0 <= c_i < F^2.  A Kashiwara level l needs phi_(2l+5) and an Orevkov k
    phi_(4k+4), so no index j with j + 2 past
    ``inv.FIBONACCI_INDEX_BOUND`` is looked up: such a member's genus has
    more than 4300 digits.  The Kashiwara minus kinds
    (never valid cusp data) and tono-iib (always flagged) are not tried."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not newton:
        yield FamilySpec(AMS, (2,))
        return
    ps = tuple(p for p, _ in newton)
    p1, q1 = newton[0]
    yield FamilySpec(AMS, (q1, *ps[1:]) if q1 == p1 + 1 else (2, *ps))
    # the phi_j that each kind's data name, j = 2l + 3 at Kashiwara level l
    # and j = 4k + 2 at Orevkov level k; a value that is no phi_j names no
    # level, and one read off data of another shape (the root of a
    # non-square, half an odd degree) names a spec whose data differ
    kashiwara = (
        (KASHIWARA_II_GE, isqrt(p1)),
        (KASHIWARA_II_SP, degree),
        (KASHIWARA_IIPLUS_GE, isqrt(ps[-1])),
        (KASHIWARA_IIPLUS_SP, ps[-1]),
    )
    orevkov = ((OREVKOV, degree), (OREVKOV_STAR, degree // 2))
    top = inv.FIBONACCI_INDEX_BOUND - 2
    for kind, F in kashiwara:
        j = inv.fibonacci_index(F, top)
        if j % 2:
            plus = kind in (KASHIWARA_IIPLUS_GE, KASHIWARA_IIPLUS_SP)
            lambdas = tuple(n // (F * F) for n in ps[:-1]) if plus else ()
            yield FamilySpec(kind, ((j - 3) // 2, *lambdas))
    yield FamilySpec(TONO_IA, (q1,))
    if len(ps) > 1:
        yield FamilySpec(TONO_IB, (q1, ps[1]))
    yield FamilySpec(TONO_IIA, (p1,))
    for kind, F in orevkov:
        j = inv.fibonacci_index(F, top)
        if j % 4 == 2:
            yield FamilySpec(kind, ((j - 2) // 4,))


def attribute_family(degree: int, newton: inv.Pairs) -> FamilySpec | None:
    """Find the family spec whose generated curve has exactly these Newton
    pairs at this degree; None when no family matches.  The candidates are
    read off the data (:func:`_specs_of_pairs`): each kind's data name its
    level, a Fibonacci number that strictly increases with the level, so
    each kind's level is one lookup of that number's index, not a scan,
    and at most 10 specs are tried, in kind order.  The first whose
    :func:`_family_data` gives back (degree, newton) is returned; no record
    is built.  Equal data are enough: :func:`family_curve` builds its
    record from these same pairs, and no kind tried is flagged or has data
    that fail a strict record.  Those are
    tono-iib, the one flagged kind, and the Kashiwara "minus" kinds, whose
    data never validate; the tests check that every accepted spec of a
    tried kind in the wide family grids builds a strict, unflagged record.
    Raises ValueError for degree < 1."""
    for spec in _specs_of_pairs(degree, newton):
        try:
            if _family_data(spec) == (degree, newton):
                return spec
        except FamilyParameterError:
            continue
    return None


# ---------------------------------------------------------------------------
# the one- and two-pair classifications, as family members

# (pair count, kind, fixed params, least walked params): the members that
# make up the one-pair list (Fernandez de Bobadilla, Luengo,
# Melle-Hernandez and Nemethi) and the two-pair list (Bodnar)
_PAIR_MEMBERS = (
    (1, AMS, (), (3,)),
    (1, AMS, (2,), (2,)),
    (1, KASHIWARA_II_GE, (), (0,)),
    (1, KASHIWARA_II_SP, (), (1,)),
    (1, OREVKOV, (1,), ()),
    (1, OREVKOV_STAR, (1,), ()),
    (2, AMS, (), (3, 2)),
    (2, AMS, (2,), (2, 2)),
    (2, KASHIWARA_IIPLUS_GE, (), (0, 0)),
    (2, KASHIWARA_IIPLUS_SP, (), (0, 0)),
    (2, TONO_IA, (), (3,)),
    (2, TONO_IIA, (), (2,)),
    (2, OREVKOV, (), (2,)),
    (2, OREVKOV_STAR, (), (2,)),
)


def member_rows(pair_count: int, max_degree: int) -> tuple[tuple[int, inv.Pairs], ...]:
    """The complete one- or two-pair classification up to max_degree:
    (degree, Newton pairs) of each family member that ``_PAIR_MEMBERS``
    lists for pair_count, sorted.  Each kind's parameters are walked
    upward through :func:`_family_data` until its members lie past
    max_degree (see :func:`_walk_members` for why none is lost); members
    whose data need a Fibonacci index past ``inv.FIBONACCI_INDEX_BOUND``
    are left out."""
    rows = set()
    for count, kind, fixed, least in _PAIR_MEMBERS:
        if count == pair_count:
            rows.update(_walk_members(kind, fixed, least, max_degree) or ())
    return tuple(sorted(rows))


def _walk_members(kind: str, fixed: tuple, least: tuple, max_degree: int):
    """The (degree, pairs) of kind's members (*fixed, *walked) with walked
    >= least entrywise and degree <= max_degree, each walked parameter
    taken upward from its least value; None when the member (*fixed,
    *least) lies past max_degree or past the Fibonacci index bound.

    Each listed kind's degree grows with every parameter, so a member past
    max_degree has only members past it above it: a parameter stops at the
    first value whose members all lie past max_degree, and none is lost.
    A spec outside the domain (:class:`FamilyParameterError`, such as
    Kashiwara l = 0 with lambda = 0) is skipped; any other ValueError, the
    Fibonacci index bound, ends that parameter as a member past
    max_degree would."""
    if not least:
        try:
            degree, pairs = _family_data(FamilySpec(kind, fixed))
        except FamilyParameterError:
            return []
        except ValueError:
            return None
        return [(degree, pairs)] if degree <= max_degree else None
    rows, x = [], least[0]
    while (more := _walk_members(kind, (*fixed, x), least[1:], max_degree)) is not None:
        rows += more
        x += 1
    return rows if x > least[0] else None


# ---------------------------------------------------------------------------
# prime-degree utilities

# prime_degree_scan sieves [0, limit] in one byte per number; a larger
# limit is refused (10**7 takes about a second)
PRIME_SCAN_LIMIT = 10**7


def _prime_sieve(limit: int) -> bytearray:
    """Sieve of Eratosthenes: entry n is 1 iff n is prime, for n <= limit."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 1)
    for f in range(2, isqrt(limit) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, limit + 1, f)))
    return sieve


def prime_degree_scan(limit: int) -> list[tuple[int, tuple[tuple, ...]]]:
    """Primes p <= limit carrying a nontrivial unicuspidal rational curve.

    Every prime degree has the one-pair curve (p-1, p); the nontrivial
    sources are: a Fibonacci prime phi_j at odd prime index j >= 5, a prime
    of the form a^2 s + 1 with a >= 3, or a prime of the form
    8 n^2 + 4 n + 1 with n >= 2.  Returns (prime, witnesses) sorted by
    prime, where each witness names its source: ("fibonacci", j),
    ("square-family", a, s) or ("tono-iia", n).  Fibonacci indices stop at
    ``inv.FIBONACCI_INDEX_BOUND``.  Every candidate, the index j <= phi_j
    included, is looked up in one sieve of [0, limit], so a limit above
    PRIME_SCAN_LIMIT raises ValueError.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if limit > PRIME_SCAN_LIMIT:
        raise ValueError(f"limit {limit} is past the prime-scan bound {PRIME_SCAN_LIMIT}")
    is_prime = _prime_sieve(limit)
    hits: dict[int, list[tuple]] = {}

    def add(p: int, witness: tuple) -> None:
        hits.setdefault(p, []).append(witness)

    j = 5
    while j <= inv.FIBONACCI_INDEX_BOUND and inv.fibonacci(j) <= limit:
        if j % 2 and is_prime[j] and is_prime[inv.fibonacci(j)]:
            add(inv.fibonacci(j), ("fibonacci", j))
        j += 1
    for a in range(3, isqrt(limit - 1) + 1):
        for p in range(a * a + 1, limit + 1, a * a):
            if is_prime[p]:
                add(p, ("square-family", a, p // (a * a)))
    n = 2
    while 8 * n * n + 4 * n + 1 <= limit:
        p = 8 * n * n + 4 * n + 1
        if is_prime[p]:
            add(p, ("tono-iia", n))
        n += 1
    return [(p, tuple(w)) for p, w in sorted(hits.items())]


def bunyakovsky_condition_check(family: str, s: int | None = None):
    """Finite gcd evidence for the no-common-factor condition.

    family "sn2+1" (requires s >= 1): returns ((f(1), f(2), f(3)), g) for
    f(n) = s n^2 + 1, where g is the gcd of the three values and must be 1.
    family "8n2+4n+1": returns ((13, 41), 1), the coprime witness pair
    (f(1), f(2)).
    """
    if family == "sn2+1":
        if s is None or s < 1:
            raise ValueError("family sn2+1 needs s >= 1")
        values = (s + 1, 4 * s + 1, 9 * s + 1)
        return values, gcd(gcd(values[0], values[1]), values[2])
    if family == "8n2+4n+1":
        values = (13, 41)
        return values, gcd(*values)
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# parameter grids for the cross-check suites

def ams_grid(max_degree: int):
    for d in range(2, max_degree + 1):
        for factors in ordered_factorizations(d):
            yield FamilySpec(AMS, factors)


def kashiwara_grid(l_max: int, n_max: int, lambda_max: int):
    """All Kashiwara specs with l <= l_max, N <= n_max, lambda_i <= lambda_max
    (including combinations the generator will reject)."""
    for l in range(l_max + 1):
        yield FamilySpec(KASHIWARA_II_GE, (l,))
        yield FamilySpec(KASHIWARA_II_SP, (l,))
    for kind in KASHIWARA_KINDS[2:]:
        for l in range(l_max + 1):
            for N in range(1, n_max + 1):
                yield from (
                    FamilySpec(kind, (l, *lams))
                    for lams in product(range(lambda_max + 1), repeat=N)
                )


def tono_grid(a_max: int, s_max: int, n_max: int):
    for a in range(3, a_max + 1):
        yield FamilySpec(TONO_IA, (a,))
        for s in range(2, s_max + 1):
            yield FamilySpec(TONO_IB, (a, s))
    for n in range(2, n_max + 1):
        yield FamilySpec(TONO_IIA, (n,))
        for s in range(2, s_max + 1):
            yield FamilySpec(TONO_IIB, (n, s))


def orevkov_grid(k_max: int):
    for k in range(1, k_max + 1):
        yield FamilySpec(OREVKOV, (k,))
        yield FamilySpec(OREVKOV_STAR, (k,))
