"""Decentralized oscillation-damping certification for inverter-dominated
power networks.

Per-device gain certificates over a prohibited pole region, parameter
feasible-region sweeps, and a centralized pole / step-response oracle for
validation.
"""

__version__ = "0.1.0"

from .analysis import (
    PoleReport,
    StepResponse,
    closed_loop_matrix,
    closed_loop_poles,
    damping_ratio,
    dominant_pole,
    screen_poles,
    settling_metrics,
    step_response,
)
from .certify import (
    FeasibilityMask,
    MarginReport,
    ParameterGrid,
    SweepTask,
    boundary_certificate,
    certify_all,
    feasible_region,
    sweep_all,
)
from .config import GridEntryFactory, StudyConfig, load_config, parse_config
from .devices import (
    CustomRational,
    DeviceEntry,
    GflParams,
    GfmParams,
    check_entry_analytic,
    device_matrix,
    gfl_entry,
    gfm_entry,
    make_entry,
)
from .domain import (
    BoundarySamples,
    ProhibitedDomain,
    boundary_segments,
    discretize_boundary,
)
from .errors import (
    CertificateInapplicableError,
    ConfigurationError,
    DampcertError,
    DegenerateInputError,
    LineResonanceError,
    PoleAtEvaluationPointError,
    ReductionSingularityError,
)
from .netmodel import (
    DynamicNetwork,
    GridTopology,
    Line,
    LineParams,
    StaticNetwork,
    assemble_Y,
    kron_reduce,
    line_admittance,
    network_row,
    reduced_network,
    static_network,
)
from .ratcalc import (
    Polynomial,
    RationalFunction,
    hurwitz_classification,
    is_strictly_hurwitz,
)
