"""Size caps for exhaustive work, overridable per call or via environment."""

import os

DEFAULT_POINT_CAP = 1 << 20
DEFAULT_SCAN_CAP = 10**7


def _cap(override: int | None, name: str, default: int) -> int:
    """The override, else the integer in environment variable name, else
    default."""
    if override is not None:
        return int(override)
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def point_cap(override: int | None = None) -> int:
    """Maximum number of evaluation points q^n for exhaustive operations."""
    return _cap(override, "FFPERM_POINT_CAP", DEFAULT_POINT_CAP)


def scan_cap(override: int | None = None) -> int:
    """Maximum number of value tables a scan may enumerate."""
    return _cap(override, "FFPERM_SCAN_CAP", DEFAULT_SCAN_CAP)
