"""Exception types shared across the package.

Every rejection carries a stable machine-readable ``code`` so callers (and
the CLI) can distinguish, e.g., a superselection violation from a plain
shape mismatch without parsing messages.
"""

from __future__ import annotations

from contextlib import contextmanager


class FermionicError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(FermionicError):
    """A value failed one of its declared invariants.

    Attributes
    ----------
    code : str
        Stable identifier of the violated invariant (e.g. ``"ssr_violation"``,
        ``"not_unitary"``, ``"dimension_mismatch"``).
    field : str or None
        Optional path of the offending input field (used by the CLI).
    """

    def __init__(self, code: str, message: str, field: str | None = None):
        super().__init__(message)
        self.code = code
        self.field = field

    def __str__(self) -> str:
        base = super().__str__()
        if self.field is not None:
            return f"[{self.code}] at {self.field}: {base}"
        return f"[{self.code}] {base}"


class ScenarioParseError(FermionicError):
    """Scenario text is not well-formed JSON."""


@contextmanager
def at_field(field: str):
    """Attach ``field`` to a ``ValidationError`` that names no field."""
    try:
        yield
    except ValidationError as exc:
        if exc.field is None:
            raise ValidationError(exc.code, exc.args[0], field=field) from exc
        raise
