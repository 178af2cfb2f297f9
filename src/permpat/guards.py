"""Size guards for the exhaustive-search operations.

Every operation whose cost is exponential in its input carries a documented
default cap.  Callers (including the CLI via ``--max-n``) may raise most caps
explicitly; the guard then still fires, but only above the raised cap.  An
override below the default cap leaves the default in place.  A few caps are
fixed, and their refusals say so.
"""
from __future__ import annotations

#: The ``override`` of a guard whose caller takes no ``max_n``.
_FIXED = object()


class SizeGuardError(ValueError):
    """Raised when an input exceeds an operation's documented size cap."""

    def __init__(self, what: str, actual: int, limit: int, fixed: bool = False):
        self.what = what
        self.actual = actual
        self.limit = limit
        hint = "the cap is fixed" if fixed else "raise the cap explicitly to override"
        super().__init__(f"{what}: size {actual} exceeds the guard limit {limit}; {hint}")


def check_size(what: str, actual: int, default_limit: int, override=_FIXED) -> None:
    """Raise :class:`SizeGuardError` when ``actual`` exceeds the effective cap.

    An int ``override`` (CLI ``--max-n``) only ever raises the cap: the cap
    is the larger of the two.  None keeps the default cap.  A call that
    passes no ``override`` has a fixed cap, and its refusal says that the cap
    is fixed.  A negative size is refused with a plain :class:`ValueError`.
    """
    if actual < 0:
        raise ValueError(f"{what}: size {actual} is negative")
    fixed = override is _FIXED
    limit = default_limit if fixed or override is None else max(default_limit, override)
    if actual > limit:
        raise SizeGuardError(what, actual, limit, fixed)
