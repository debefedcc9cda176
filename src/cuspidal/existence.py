"""Constructive existence of candidate curves via degree reductions.

A candidate cusp that survives the counting criterion still has to be
realized by an actual plane curve.  Two birational rewrites settle this for
every candidate of degree at most 30:

* the *block reduction*: a degree-(k+1)n curve whose multiplicity sequence
  starts (kn, n repeated 2k, ...) is equivalent to a degree-n curve with
  the remainder of the sequence.  Iterating strips the sequence down to a
  small base case;
* the *grafting construction*: for any a >= 3, s >= 1 there is a curve of
  degree a^2 s + 1 with multiplicity sequence ((a-1)as, as_{2a-1}, a_{2s}),
  built from the curve z x^{a-1} = y^a.

The base registry of explicitly known low-degree curves ships as a data
file so its provenance can be audited.  Both rewrites are deterministic:
the sequence itself fixes all parameters, so resolution needs no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .invariants import (
    MultRuns,
    format_multiplicity,
    normalize_runs,
    parse_multiplicity,
)

# the paper's degree bound: existence is settled for every candidate of
# degree <= MAX_DEGREE, and every classification table stops there
MAX_DEGREE = 30

PROVED_BASE = "proved-base"
PROVED_REDUCTION = "proved-reduction"
PROVED_LEMMA212 = "proved-lemma212"
PROVED_FAMILY = "proved-family"
CANDIDATE = "candidate"


@dataclass(frozen=True)
class ReductionStep:
    """One rewrite in an existence chain."""

    rule: str  # "block(k,n)", "graft(a,s)" or "base"
    from_degree: int
    from_mult: MultRuns
    to_degree: int | None = None
    to_mult: MultRuns | None = None

    def describe(self) -> str:
        src = f"d={self.from_degree} ({format_multiplicity(self.from_mult)})"
        if self.to_degree is None:
            return f"{src} [{self.rule}]"
        dst = f"d={self.to_degree} ({format_multiplicity(self.to_mult)})"
        return f"{src} -> {dst} [{self.rule}]"


def _load_registry() -> tuple[tuple[int, MultRuns], ...]:
    text = resources.files("cuspidal.data").joinpath("base_registry.txt").read_text()
    entries = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        degree, mult = line.split("\t")
        entries.append((int(degree), parse_multiplicity(mult)))
    return tuple(entries)


BASE_REGISTRY: frozenset[tuple[int, MultRuns]] = frozenset(_load_registry())


def detect_reduction(degree: int, runs: MultRuns) -> tuple[int, int, MultRuns] | None:
    """Match the block pattern (kn, n_{2k}, remainder) at degree (k+1)n.

    n is forced to be the second entry of the expanded sequence and
    k = m_1 / n; returns (k, n, remainder) or None if the pattern or the
    degree equation fails.  The runs are merge-normalized first, and the
    remainder comes back normalized.
    """
    return _detect_reduction(degree, normalize_runs(runs))


def _detect_reduction(degree: int, runs: MultRuns) -> tuple[int, int, MultRuns] | None:
    # unvalidated core of detect_reduction, on normalized runs: adjacent
    # values differ, so the remainder is normalized once an emptied run is
    # dropped
    if not runs:
        return None
    (m1, count), *rest = runs
    if count > 1:
        rest = [(m1, count - 1), *rest]  # the entries after the first
    if not rest:
        return None
    n, run = rest[0]
    if m1 % n:
        return None
    k = m1 // n
    if degree != (k + 1) * n:
        return None
    if run < 2 * k:  # normalized, so the entries equal to n after m1 are one run
        return None
    if run == 2 * k:
        return k, n, tuple(rest[1:])
    return k, n, ((n, run - 2 * k), *rest[1:])


def detect_lemma212(degree: int, runs: MultRuns) -> tuple[int, int] | None:
    """Match ((a-1)as, as_{2a-1}, a_{2s}) with degree a^2 s + 1 for some
    a >= 3, s >= 1.  Adjacent runs are merge-normalized before comparing,
    so degenerate instances (s = 1 merges the last two runs) still match.
    Nothing is searched: the first two entries fix a = m_1 / m_2 + 1, and
    then the degree fixes s."""
    target = normalize_runs(runs)
    if len(target) < 2 or target[0][0] % target[1][0]:
        return None
    a = target[0][0] // target[1][0] + 1
    if a < 3 or (degree - 1) % (a * a):
        return None
    s = (degree - 1) // (a * a)
    return (a, s) if s >= 1 and type1_construct(a, s)[1] == target else None


def type1_construct(a: int, s: int) -> tuple[int, MultRuns]:
    """Degree and multiplicity sequence ((a-1)as, as_{2a-1}, a_{2s}) of the
    grafting construction, run-merge normalized."""
    if a < 3 or s < 1:
        raise ValueError(f"construction needs a >= 3, s >= 1, got a={a}, s={s}")
    runs = (((a - 1) * a * s, 1), (a * s, 2 * a - 1), (a, 2 * s))
    return a * a * s + 1, normalize_runs(runs)


def resolve_existence(degree: int, runs: MultRuns) -> tuple[str, tuple[ReductionStep, ...]]:
    """Resolve (degree, multiplicity sequence) to an existence status.

    Applies block reductions repeatedly, stopping as soon as the registry
    is hit; a stuck sequence falls back to the grafting pattern.  Returns
    one of the proved-* statuses with the full chain, or ("candidate", chain
    of attempted steps).  The runs are merge-normalized once, on entry:
    each block reduction's remainder is normalized again, so the steps go
    through the core of :func:`detect_reduction`, which does not normalize.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    chain: list[ReductionStep] = []
    d, m = degree, normalize_runs(runs)
    while True:
        if (d, m) in BASE_REGISTRY:
            chain.append(ReductionStep("base", d, m))
            status = PROVED_BASE if len(chain) == 1 else PROVED_REDUCTION
            return status, tuple(chain)
        hit = _detect_reduction(d, m)
        if hit is not None:
            k, n, remainder = hit
            chain.append(ReductionStep(f"block(k={k},n={n})", d, m, n, remainder))
            d, m = n, remainder
            continue
        graft = detect_lemma212(d, m)
        if graft is not None:
            a, s = graft
            chain.append(ReductionStep(f"graft(a={a},s={s})", d, m))
            return PROVED_LEMMA212, tuple(chain)
        return CANDIDATE, tuple(chain)
