"""Simulator and analysis toolkit for two-source path-identity interferometers.

Evolves multi-particle path states through alignment, attenuation, and
beam-splitter stages, and checks the resulting interference patterns and
entangled states against their closed-form predictions.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    concurrence,
    fidelity,
    pure_state_from_density,
    sweep_pattern,
    three_tangle,
    visibility,
)
from .closed_form import (
    EntangledClass,
    EntangledClassId,
    bell_phi_minus,
    bell_psi_plus,
    dicke_state,
    entangled_class_state,
    ghz_class_three,
    predicted_output_state,
    predicted_probability,
    xi_for_class,
)
from .errors import (
    ConfigError,
    EmptyStateError,
    NormalizationError,
    PathIdentityError,
    ScenarioParseError,
    StageOrderError,
    StructureError,
    ValidationError,
    VisibilityUndefinedError,
)
from .interferometer import (
    MAX_PARTICLES,
    BranchTable,
    DetectedState,
    DetectionOutcome,
    SchemeConfig,
    apply_beam_splitter,
    apply_path_identity,
    build_two_source_state,
    conditional_detected_state,
    detected_particles,
    detected_state,
    detection_table,
    joint_probability,
    outcome_probabilities,
    run_scheme,
)
from .states import (
    AMPLITUDE_EPSILON,
    DensityMatrix,
    LabelKind,
    Outcome,
    PathLabel,
    PureState,
    aligned_beam,
    detector,
    detector_outcome,
    inner_product,
    loss,
    partial_trace,
    primed_detector,
    primed_source_beam,
    pure_state_from_terms,
    source_beam,
    state_fidelity,
    to_density,
)

__version__ = "0.1.0"

#: Every name imported above; the imports also bind the submodules, which are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
