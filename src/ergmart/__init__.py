"""Finite-space toolkit for conditioned ergodic averaging processes.

Builds finite measure spaces, partitions and filtrations, vector observables,
measure-preserving maps and conditional expectations; evaluates the two
double-index averaging processes (average-then-condition and
condition-then-average) with optional bounded cosine weights and
multiparameter variants; computes exact limits via orbit decomposition; and
verifies the dominant and maximal inequality catalog on truncated index
boxes.
"""

__version__ = "0.1.0"

from .measure import (
    DECREASING,
    INCREASING,
    Filtration,
    MeasureSpace,
    Partition,
    partition_join,
    partition_meet,
    refines,
    uniform_space,
)
from .observables import (
    NormSpec,
    VectorObservable,
    integral,
    linf_norm,
    llog_norm,
    lp_norm,
    mean,
    point_norm_field,
)
from .operators import (
    Endomorphism,
    cond_expect,
    cycle_map,
    identity_map,
    koopman,
    power,
)
from .averages import (
    BesicovitchWeights,
    composite_cond_expect,
)
from .processes import (
    ERGODIC_MARTINGALE,
    MARTINGALE_ERGODIC,
    ConvergenceTrace,
    ProcessSpec,
    convergence_trace,
    default_n1_grid,
    evaluate,
    mean_identity_check,
    tail_variation,
)
from .inequalities import (
    InequalityReport,
    SupBox,
    default_box,
    dominant_check,
    dominant_constant,
    epsilon_sweep,
    maximal_constant,
    orlicz_class_report,
    shrink_box,
    sup_field,
)
