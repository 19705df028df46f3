"""Equivalent-circuit modeling, analysis, and inverse design of dual-band
frequency-selective surfaces.

The toolchain runs geometry -> lumped elements -> cascaded two-port network
-> S-parameters -> band metrics, and the reverse chain for synthesis.
All in-memory quantities are strict SI.
"""

__version__ = "0.1.0"

from . import errors
from .analysis import (
    BandReport,
    ResponseTable,
    SweepPoint,
    band_report,
    parametric_sweep,
    smooth_response,
    sweep,
    sweep_at,
)
from .constants import C0, EPS0, ETA0, MU0
from .extraction import (
    ExtractedCircuit,
    FirstOrderGeometry,
    ResonancePrediction,
    effective_permittivity,
    exact_poles,
    extract_circuit,
    predict_resonances,
    surface_impedance,
)
from .fileio import (
    load_response,
    read_response_csv,
    read_touchstone,
    write_response_csv,
    write_touchstone,
)
from .lumped import (
    OPEN,
    HybridCircuit,
    Inductor,
    Parallel,
    SeriesLC,
    Tank,
    branch_impedance,
    foster_transform,
    hybrid_impedance,
)
from .synthesis import (
    DesignTargets,
    FitResult,
    circuit_from_targets,
    fit_circuit,
    geometry_from_circuit,
)
from .topology import (
    FssStack,
    Incidence,
    Substrate,
    build_first_order,
    build_second_order,
    incidence_media,
    port_impedance,
    stack_response,
    stack_response_full,
)
