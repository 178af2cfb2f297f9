"""Size guards for the exhaustive-search operations.

Every operation whose cost is exponential in its input carries a documented
default cap.  Callers (including the CLI via ``--max-n``) may raise a cap
explicitly; the guard then still fires, but only above the override.
"""
from __future__ import annotations


class SizeGuardError(ValueError):
    """Raised when an input exceeds an operation's documented size cap."""

    def __init__(self, what: str, actual: int, limit: int):
        self.what = what
        self.actual = actual
        self.limit = limit
        super().__init__(
            f"{what}: size {actual} exceeds the guard limit {limit}; "
            f"raise the cap explicitly to override"
        )


def check_size(what: str, actual: int, default_limit: int, override: int | None = None) -> None:
    """Raise :class:`SizeGuardError` when ``actual`` exceeds the effective cap.

    ``override`` replaces the default cap when given (CLI ``--max-n``).
    A negative size is refused with a plain :class:`ValueError`.
    """
    if actual < 0:
        raise ValueError(f"{what}: size {actual} is negative")
    limit = default_limit if override is None else override
    if actual > limit:
        raise SizeGuardError(what, actual, limit)
