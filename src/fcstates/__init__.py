"""Spectral and algebraic classification of finitely correlated states.

Given d complex n x n operators V_1, ..., V_d with sum_i V_i V_i* = 1, this
package materializes the completely positive transfer map
sigma(X) = sum_i V_i X V_i* and computes the invariants that classify the
states the system induces: ergodicity and purity, the finite circle
subgroup formed by the peripheral spectrum, purity/factoriality and
clustering of the translation-invariant state on the two-sided chain,
truncated dilations with their moment tables, and the modular dual system
with full duality verification.
"""

from .chain import ClusteringReport, LocalObservable, clustering_defect, expectation, two_point
from .classify import ClassificationReport, classify_chain, classify_od
from .cpmap import (
    DensityState,
    OperatorSubspace,
    PeripheralEigenvalue,
    RealTransfer,
    coinvariance_check,
    commutant,
    fixed_points,
    gauge_group_order,
    invariant_state,
    mixed_fixed_points,
    peripheral_eigenunitary,
    peripheral_spectrum,
    real_transfer,
    sigma_matrix,
    unvec,
    vec,
)
from .dilation import (
    CuntzResiduals,
    MomentTable,
    TruncatedDilation,
    build,
    cuntz_residuals,
    dilation_moments,
    moment_checks,
    moment_psd_with_D,
    moments,
)
from .errors import NumericalHealthError, ValidationError
from .modular import DualComparison, DualityReport, DualSystem, ModularData, compare_duals, dual_system, gns, verify_duality
from .numerics import EigenDecomposition, eig, kernel, spectral_sets_match
from .popescu import PopescuSystem, Word, compress, random_system, v_word, validate, words_up_to

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "PopescuSystem",
    "Word",
    "validate",
    "v_word",
    "words_up_to",
    "random_system",
    "compress",
    "RealTransfer",
    "OperatorSubspace",
    "DensityState",
    "PeripheralEigenvalue",
    "sigma_matrix",
    "real_transfer",
    "fixed_points",
    "commutant",
    "invariant_state",
    "coinvariance_check",
    "peripheral_spectrum",
    "peripheral_eigenunitary",
    "gauge_group_order",
    "mixed_fixed_points",
    "vec",
    "unvec",
    "ClassificationReport",
    "classify_od",
    "classify_chain",
    "LocalObservable",
    "ClusteringReport",
    "expectation",
    "two_point",
    "clustering_defect",
    "TruncatedDilation",
    "CuntzResiduals",
    "MomentTable",
    "build",
    "cuntz_residuals",
    "moments",
    "moment_checks",
    "moment_psd_with_D",
    "dilation_moments",
    "ModularData",
    "DualSystem",
    "DualityReport",
    "DualComparison",
    "gns",
    "dual_system",
    "verify_duality",
    "compare_duals",
    "EigenDecomposition",
    "eig",
    "kernel",
    "spectral_sets_match",
    "ValidationError",
    "NumericalHealthError",
]
