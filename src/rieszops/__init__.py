"""Operator-lattice calculus on coordinate Riesz spaces.

Finite-dimensional vector lattices (R^n with entrywise order), regular
operators between them (matrices), and two-sided multiplication
superoperators T |-> A T B.  The package computes moduli, joins, and
meets of such operators both by closed forms and by refinement oracles,
evaluates l^p norms with duality witnesses, and mechanically
verifies the lattice identities and norm identities that the
superoperator family satisfies — including an exact finite lab in which
a partition-infimum computation stays strictly positive while its
sequence-space analogue vanishes.
"""

from .counterexample import (
    CoordinateFunctional,
    build_B,
    counterexample_report,
    identity_meet_B,
    meet_superoperator,
    meet_via_components,
    single_support_check,
)
from .corpus import Corpus, claim_cases, generate_corpus, parse_corpus_spec
from .lattice import (
    DimensionMismatchError,
    LatticeVector,
    Partition,
    atomic_partition,
    default_partitions,
    dyadic_partition,
    halves_partition,
    random_convex_partition,
    refinement_chain,
    trivial_partition,
)
from .norms import (
    LatticeNorm,
    NormAssignment,
    NormResult,
    batched_operator_norm,
    dual_norm,
    gap_report,
    hadamard_tensor_power,
    norming_functional,
    operator_norm,
    regular_norm,
    superop_regular_norm_1chain,
    vector_norm,
    verify_cor23,
)
from .operators import (
    OracleResult,
    RegularOperator,
    meet_oracle,
    modulus_oracle,
    rank_one,
    refinement_sums,
)
from .reports import (
    VerificationReport,
    canonical_json,
    digest_inputs,
    emit_report,
    make_report,
    render_console,
)
from .scalars import DEFAULT_TOLERANCE, ScalarModeError, parse_scalar, scalar_to_json
from .superop import (
    Superoperator,
    kron,
    unvec,
    vec,
    verify_cor22,
    verify_prop21,
    verify_synnatzschke_a,
)

__version__ = "0.1.0"

__all__ = [
    "CoordinateFunctional",
    "Corpus",
    "DEFAULT_TOLERANCE",
    "DimensionMismatchError",
    "LatticeNorm",
    "LatticeVector",
    "NormAssignment",
    "NormResult",
    "OracleResult",
    "Partition",
    "RegularOperator",
    "ScalarModeError",
    "Superoperator",
    "VerificationReport",
    "atomic_partition",
    "default_partitions",
    "batched_operator_norm",
    "build_B",
    "canonical_json",
    "claim_cases",
    "counterexample_report",
    "digest_inputs",
    "dual_norm",
    "dyadic_partition",
    "emit_report",
    "gap_report",
    "generate_corpus",
    "hadamard_tensor_power",
    "halves_partition",
    "identity_meet_B",
    "kron",
    "make_report",
    "meet_oracle",
    "meet_superoperator",
    "meet_via_components",
    "modulus_oracle",
    "norming_functional",
    "operator_norm",
    "parse_corpus_spec",
    "parse_scalar",
    "random_convex_partition",
    "rank_one",
    "refinement_chain",
    "refinement_sums",
    "regular_norm",
    "render_console",
    "scalar_to_json",
    "single_support_check",
    "superop_regular_norm_1chain",
    "trivial_partition",
    "unvec",
    "vec",
    "vector_norm",
    "verify_cor22",
    "verify_cor23",
    "verify_prop21",
    "verify_synnatzschke_a",
]
