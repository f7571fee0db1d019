"""Exception types shared across the package."""


class InputError(ValueError):
    """A caller violated a documented precondition (bad vertex, edge id, ...)."""


class CapabilityError(RuntimeError):
    """An exhaustive search would exceed the configured enumeration limits.

    Raised instead of silently truncating; the limits are raised only
    through the SCC_PRESERVE_* environment variables.
    """


def require_int(name: str, value, least: int) -> None:
    """Raise InputError unless ``value`` is an int, not a bool, and >= ``least``."""
    if type(value) is not int or value < least:
        raise InputError(f"{name} must be an int >= {least}, got {value!r}")
