"""Local-realistic simulation of fermionic mode systems.

Dense desk-scale toolkit for parity-superselected states and unitaries on a
finite set of fermionic modes, their Heisenberg-picture descriptors, the
projection/join structure of the descriptor representation, and executable
checks of its structural properties.
"""

from .errors import FermionicError, ScenarioParseError, ValidationError
from .fock import (
    FockOperator,
    FockVector,
    ModeSet,
    annihilator,
    anticommutator,
    basis_index,
    build_ladder,
    commutator,
    creator,
    fock_basis_state,
    identity,
    mode_cap,
    occupation_of,
    parity_operator,
    vacuum_state,
)
from .algebra import (
    embed_local_operator,
    is_local_to,
    parity_grade,
    qubit_ladder,
    wedge,
)
from .states import (
    PhenomenalState,
    expectation,
    partial_trace,
    partial_trace_jw,
    product_state,
)
from .transformations import (
    PSUnitary,
    exp_hamiltonian,
    is_local_unitary,
    local_random_ps_unitary,
    named_gate,
    phase_distance,
    random_ps_unitary,
    validate_ps_unitary,
)
from .descriptors import (
    CompatibilityResult,
    DescriptorSet,
    canonical_descriptors,
    compatible,
    equivalent_at,
    evolve_descriptors,
    join,
    ontic_apply,
    ontic_project,
    phenomenal_of,
    reconstruct_unitary,
)
from .verification import (
    CheckResult,
    check_diagram,
    check_locality_invariance,
    check_no_signalling,
    check_ontic_property_list,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "CompatibilityResult",
    "DescriptorSet",
    "FermionicError",
    "FockOperator",
    "FockVector",
    "ModeSet",
    "PSUnitary",
    "PhenomenalState",
    "ScenarioParseError",
    "ValidationError",
    "annihilator",
    "anticommutator",
    "basis_index",
    "build_ladder",
    "canonical_descriptors",
    "check_diagram",
    "check_locality_invariance",
    "check_no_signalling",
    "check_ontic_property_list",
    "commutator",
    "compatible",
    "creator",
    "embed_local_operator",
    "equivalent_at",
    "evolve_descriptors",
    "exp_hamiltonian",
    "expectation",
    "fock_basis_state",
    "identity",
    "is_local_to",
    "is_local_unitary",
    "join",
    "local_random_ps_unitary",
    "mode_cap",
    "named_gate",
    "occupation_of",
    "ontic_apply",
    "ontic_project",
    "parity_grade",
    "parity_operator",
    "partial_trace",
    "partial_trace_jw",
    "phase_distance",
    "phenomenal_of",
    "product_state",
    "qubit_ladder",
    "random_ps_unitary",
    "reconstruct_unitary",
    "run_sweep",
    "validate_ps_unitary",
    "vacuum_state",
    "wedge",
]
