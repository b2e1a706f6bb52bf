"""Closed-form integral identities on tube domains over arrowhead light
cones, the weighted kernel operators built from them, and the numeric
oracles that audit every claim."""

from .boundedness import (ClassificationResult, SchurWitness, classify,
                          random_sufficient_params, schur_numeric_check,
                          schur_witness, theorem1_necessary,
                          theorem2_sufficient)
from .errors import (AccuracyError, BranchCutError, ConeDomainError,
                     ConetubeError, ConfigError, ConvergenceDomainError,
                     ConventionError, InfeasibleError, InvalidInputError,
                     OracleRejectedError, WitnessConstructionError)
from .geometry import (ConePoint, TubePoint, assemble_arrowhead,
                       complex_power_P, delta_power, is_in_cone, minors)
from .identities import IDENTITY_IDS, closed_form
from .indices import Convention, MultiIndex, shift_index, unshift_index
from .operators import (ParameterSet, TestFunctionFR, f_R_norm_exponents,
                        make_test_function, necessary_exponent_condition,
                        scaling_experiment, Tf_R_norm_exponents)
from .oracle import (AuditRecord, IntegralEstimate, calibrated_constant,
                     mc_integrate_cone, mc_integrate_slice, mc_integrate_tube,
                     quad_iterated, verify_identity)
from .sampling import BorderLaw, CauchyLaw, RadialLaw, SamplerSpec

__version__ = "0.1.0"
