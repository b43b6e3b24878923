"""Statistical distinguishability of unitary gates.

How well can two unitary operations be told apart by any measurement on any
input state?  This package computes the relevant figures of merit (gate
fidelity, statistical angle), the number of parallel uses after which the
two gates become perfectly distinguishable, the probe states that achieve
the optimum, and a sequential elimination protocol that identifies an
unknown gate from a finite candidate set with certainty.  Brute-force
numerical oracles back the closed forms.
"""
from .classical import (
    as_prob_dist,
    classical_distance,
    classical_fidelity,
    relative_entropy,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    IdenticalGatesError,
    SizeLimitError,
    ValidationError,
)
from .gates import (
    ArcResult,
    Gate,
    GateSU2Params,
    ProbeState,
    convex_min_overlap,
    gate_distance,
    gate_fidelity_su2,
    gate_fidelity_sud,
    min_copies,
    minimal_covering_arc,
    optimal_probe_ncopies,
    optimal_probe_separable,
    optimal_probe_single,
    oracle_min_overlap,
    probe_overlap,
    su2_from_params,
    su3_example_gate,
)
from .geometry import (
    MonteCarloEstimate,
    SphereCoords,
    SU2ParamSample,
    TangentIncrement,
    avg_fidelity_mc,
    avg_fidelity_su2_closed,
    haar_sample_su2,
    metric_form_coords,
    metric_form_matrix,
    overlap_samples,
    sphere_embed,
    su2_tangent,
)
from .numkit import tensor_power
from .protocol import (
    EliminationTest,
    HypothesisSet,
    SimResult,
    TestPlan,
    TestRecord,
    plan_elimination,
    simulate_elimination,
)
from .states import (
    as_density,
    as_state_vector,
    mixed_fidelity,
    pure_fidelity,
)

__version__ = "0.1.0"

__all__ = [
    "ArcResult",
    "ConvergenceError",
    "DimensionError",
    "EliminationTest",
    "Gate",
    "GateSU2Params",
    "HypothesisSet",
    "IdenticalGatesError",
    "MonteCarloEstimate",
    "ProbeState",
    "SimResult",
    "SizeLimitError",
    "SphereCoords",
    "SU2ParamSample",
    "TangentIncrement",
    "TestPlan",
    "TestRecord",
    "ValidationError",
    "as_density",
    "as_prob_dist",
    "as_state_vector",
    "avg_fidelity_mc",
    "avg_fidelity_su2_closed",
    "classical_distance",
    "classical_fidelity",
    "convex_min_overlap",
    "gate_distance",
    "gate_fidelity_su2",
    "gate_fidelity_sud",
    "haar_sample_su2",
    "metric_form_coords",
    "metric_form_matrix",
    "min_copies",
    "minimal_covering_arc",
    "mixed_fidelity",
    "optimal_probe_ncopies",
    "optimal_probe_separable",
    "optimal_probe_single",
    "oracle_min_overlap",
    "overlap_samples",
    "plan_elimination",
    "probe_overlap",
    "pure_fidelity",
    "relative_entropy",
    "simulate_elimination",
    "sphere_embed",
    "su2_from_params",
    "su2_tangent",
    "su3_example_gate",
    "tensor_power",
]
