"""Size caps for exhaustive work, set only by environment variable."""

import os

DEFAULT_POINT_CAP = 1 << 20
DEFAULT_SCAN_CAP = 10**7


def _cap(name: str, default: int) -> int:
    """The integer in environment variable name, else default."""
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


def point_cap() -> int:
    """Maximum number of evaluation points q^n for exhaustive operations
    (FFPERM_POINT_CAP)."""
    return _cap("FFPERM_POINT_CAP", DEFAULT_POINT_CAP)


def scan_cap() -> int:
    """Maximum number of value tables a scan may enumerate
    (FFPERM_SCAN_CAP)."""
    return _cap("FFPERM_SCAN_CAP", DEFAULT_SCAN_CAP)
