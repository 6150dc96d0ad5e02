"""Sampling-rate planning and perfect recovery for bandlimited
continuous-time graph signals."""

from .bandwidth import (
    BandwidthProfile,
    TightnessReport,
    UniformityCertificate,
    check_uniform,
    finitize,
    is_tight,
    profile_union,
    tighten,
)
from .dependence import (
    UniquenessSet,
    enumerate_uniqueness_sets,
    extension_matrix,
    greedy_minimal_vertex_set,
    is_dependent,
    is_uniqueness_set,
    minimal_rate_bruteforce,
    x_vector,
)
from .errors import (
    CtgsError,
    InfeasibleProblemError,
    ProblemFormatError,
    ReconstructionError,
    ScaleLimitError,
)
from .numerics import INF
from .planner import (
    AdmissibleSequence,
    Filtration,
    SamplingPlan,
    build_filtration,
    find_admissible_sequence,
    make_plan,
    plan_problem,
    redistribute_plan,
    select_lambda_star,
    split_rate_transform,
    verify_admissible_sequence,
)
from .problems import Problem, load_problem, parse_problem
from .sampling import (
    Observation,
    RecoveryResult,
    SampleSet,
    build_sample_set,
    eccentricity,
    prop_bound_eccentricity,
    recover,
    recovery_error,
    redistribute,
    sample_rate,
    sample_signal,
    sampling_operator,
)
from .signals import (
    GraphSignal,
    membership_violations,
    space_dimension,
    synthesize_signal,
)
from .spectral import (
    GraphModel,
    ShiftOperator,
    Spectrum,
    build_shift_operator,
    eigendecompose,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
