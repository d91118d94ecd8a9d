"""Descriptor sets, unitaries and states are validated once, at the boundary.

``DescriptorSet(...)`` grades every descriptor and the Heisenberg state, so
the library calls it only where bare matrices enter; sets derived from
validated ones go through ``descriptors._assembled``.  Both run the
canonical-relation gate of every set, proper or full, the one place a set's
witness is built (``_intertwiner``) when it has none to hand over, and a
set with no witness is refused; reconstruction builds its own.  Apart from
the ``ssr_gatekeeping`` check's forbidden set, nothing else calls the
constructor.  The exact O(m^2) residual ``descriptor_algebra_residual`` runs
only in that gate, when the witness bound cannot certify a set, and in the
``canonical_algebra`` check, so it cannot spread back into the library's
hot paths.  ``PSUnitary(...)`` grades its matrix and
keeps its two sector blocks, so it is called only where a matrix enters (a
scenario's total, JSON, ``validate_ps_unitary``, the witness-uniqueness
check's phase); products, adjoints, samples and lifts go through
``PSUnitary._trusted`` with their blocks.  Blocks are gathered from a dense
array only where one becomes a unitary (the constructor, a lift, a folded
frame), a unitary's dense form is assembled in one place, its ``matrix``
property, and only a lift carries its local factor.
``PhenomenalState(...)`` runs ``eigvalsh`` and the grade, so it is called
only for JSON and the ``ssr_gatekeeping`` check's forbidden state;
reductions, products, conjugations and the descriptor substitution go
through ``PhenomenalState._trusted``.
``parity_grade`` and ``require_even`` run only in those boundary checks; a
Heisenberg state's grade is taken once per ``FockVector`` (``FockVector._grade``).
Every family's joint vacuum comes from one routine, ``_joint_vacuum``, and
the vacuum factors run only there and in ``phenomenal_of``; no dense
projector is diagonalised, so ``eigh`` runs only in ``exp_hamiltonian``.
These tests read the source with ``ast`` and pin each caller list, so a
refactor cannot quietly route values back through a check.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "fermidesc"


class _Calls(ast.NodeVisitor):
    """Each call of ``name``, as ``module:function`` of its innermost enclosing function."""

    def __init__(self, module: str, name: str, picks):
        self.module, self.name, self.picks = module, name, picks
        self.scope = ["<module>"]
        self.found = []

    def _enter(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _enter

    def visit_Call(self, node):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if called == self.name and self.picks(node):
            self.found.append(f"{self.module}:{self.scope[-1]}")
        self.generic_visit(node)


def callers(name: str, picks=lambda call: True) -> list[str]:
    """Callers of ``name``, keeping only the calls ``picks`` accepts."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        visitor = _Calls(path.stem, name, picks)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found += visitor.found
    return found


@pytest.mark.parametrize(
    "name, allowed",
    [
        (
            "DescriptorSet",
            [
                "descriptors:canonical_descriptors",
                "serialize:json_to_descriptor_set",
                "verification:check_ssr_gatekeeping",
            ],
        ),
        (
            "_intertwiner",
            ["descriptors:_require_canonical_relations", "descriptors:reconstruct_with_residual"],
        ),
        (
            "PSUnitary",
            [
                "cli:run_scenario",
                "serialize:json_to_unitary",
                "transformations:validate_ps_unitary",
                "verification:check_ontic_property_list",
            ],
        ),
        (
            "parity_grade",
            [
                "algebra:require_even",
                "algebra:wedge",
                "algebra:wedge",
                "descriptors:__post_init__",
                "fock:_grade",
            ],
        ),
        (
            "require_even",
            [
                "states:__post_init__",
                "states:expectation",
                "transformations:__post_init__",
                "transformations:exp_hamiltonian",
            ],
        ),
        ("PhenomenalState", ["serialize:json_to_state", "verification:check_ssr_gatekeeping"]),
        (
            "descriptor_algebra_residual",
            [
                "descriptors:_require_canonical_relations",
                "verification:check_canonical_algebra",
                "verification:check_canonical_algebra",
            ],
        ),
        ("_joint_vacuum", ["descriptors:_intertwiner", "descriptors:phenomenal_of"]),
        ("_vacuum_factors", ["descriptors:_joint_vacuum", "descriptors:phenomenal_of"]),
        ("eigh", ["transformations:exp_hamiltonian"]),
    ],
)
def test_validating_calls_stay_at_the_boundary(name, allowed):
    assert sorted(callers(name)) == allowed


def test_sector_blocks_are_assembled_by_one_routine_and_gathered_only_at_the_constructor():
    # blocks come from a dense array only where that array becomes a unitary
    assert sorted(callers("_sector_blocks_of")) == [
        "descriptors:_folded_frame",
        "transformations:__post_init__",
        "transformations:_lifted",
    ]
    # the sector pairs scatter a unitary's blocks only in the matrix property,
    # and an image's in _sector_image; _sector_blocks_of gathers through them
    assert sorted(callers("_sector_pairs")) == [
        "transformations:_sector_blocks_of",
        "transformations:_sector_image",
        "transformations:matrix",
    ]


def test_only_a_lift_is_trusted_with_a_local_factor():
    # PSUnitary._trusted(n_modes, blocks, defect, local): local by keyword or fourth
    with_factor = lambda call: len(call.args) >= 4 or any(k.arg == "local" for k in call.keywords)
    assert callers("_trusted", with_factor) == ["transformations:_lifted"]
