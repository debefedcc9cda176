"""Exact-arithmetic classification of rational unicuspidal plane curves.

The package enumerates candidate cusps by degree and Newton-pair count,
filters them through the rationality equation and the unicuspidal counting
criterion, proves existence by constructive degree reductions, attributes
curves to the known closed-form families, and reproduces the complete
classification tables for degree up to 30.  All arithmetic is exact.
"""

from .invariants import (
    InvalidCuspData,
    characteristic_seq,
    delta_from_multiplicities,
    delta_from_puiseux,
    fibonacci,
    format_multiplicity,
    format_newton,
    genus_target,
    lct,
    multiplicity_sequence,
    newton_from_characteristic,
    newton_to_puiseux,
    parse_multiplicity,
    parse_newton,
    puiseux_to_newton,
    self_intersection,
)
from .semigroup import (
    BLCheckResult,
    bl_check_unicuspidal,
    generators_from_newton,
)
from .records import CurveRecord, FamilySpec, KODAIRA_NEG_INF, OutputDocument, curve_record
from .existence import (
    BASE_REGISTRY,
    ReductionStep,
    detect_lemma212,
    detect_reduction,
    resolve_existence,
    type1_construct,
)
from .families import (
    FamilyParameterError,
    ams_all,
    ams_curve,
    attribute_family,
    bunyakovsky_condition_check,
    family_curve,
    invariant_closed_forms,
    kashiwara_curve,
    ordered_factorization_count,
    ordered_factorizations,
    orevkov_curve,
    prime_degree_scan,
    tono_curve,
)
from .enumerate import (
    SearchConfig,
    classify_range,
    classify_record,
    enumerate_candidates,
    max_pairs_bound,
)
from .tables import TABLE_IDS, expected_table, reproduce

__version__ = "1.0.0"
