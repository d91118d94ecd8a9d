"""The README's library sketch runs, and its API list is the package's ``__all__``."""

import pathlib
import re

import fermidesc
from fermidesc import transformations as tf

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()

PUBLIC = [
    "CheckResult", "CompatibilityResult", "DescriptorSet", "FermionicError", "FockOperator",
    "FockVector", "ModeSet", "PSUnitary", "PhenomenalState", "ScenarioParseError",
    "ValidationError", "annihilator", "anticommutator", "basis_index", "build_ladder",
    "canonical_descriptors", "check_diagram", "check_locality_invariance", "check_no_signalling",
    "check_ontic_property_list", "commutator", "compatible", "creator", "embed_local_operator",
    "equivalent_at", "evolve_descriptors", "exp_hamiltonian", "expectation", "fock_basis_state",
    "identity", "is_local_to", "is_local_unitary", "join", "local_random_ps_unitary", "mode_cap",
    "named_gate", "occupation_of", "ontic_apply", "ontic_project", "parity_grade",
    "parity_operator", "partial_trace", "partial_trace_jw", "phase_distance", "phenomenal_of",
    "product_state", "qubit_ladder", "random_ps_unitary", "reconstruct_unitary", "run_sweep",
    "vacuum_state", "validate_ps_unitary", "wedge",
]

# names that left the public API, or never belonged in it
GONE = ["hs_inner", "validate_phenomenal", "parity_diagonal", "MonomialBasis", "monomial_basis"]


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else len(README)]


def test_library_sketch_runs():
    code = re.search(r"```python\n(.*?)```", section("Library sketch"), re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # the sketch's last comment: the recovered unitary equals u up to a global phase
    assert tf.phase_distance(namespace["recovered"].matrix, namespace["u"].matrix) < 1e-8


def test_public_api_is_pinned_and_listed_in_the_readme():
    assert sorted(fermidesc.__all__) == PUBLIC
    api = section("API")
    listed = re.findall(r"^- `(\w+)` — ", api, re.M)
    assert sorted(listed) == PUBLIC
    for name in GONE:
        assert not re.search(rf"\b{name}\b", api), name
        assert not hasattr(fermidesc, name), name
