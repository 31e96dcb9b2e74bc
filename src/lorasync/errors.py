"""Exception types shared across the package."""

from __future__ import annotations


class LorasyncError(Exception):
    """Base class for package-specific errors."""


class ParamError(LorasyncError, ValueError):
    """A parameter lies outside its permitted domain."""


class UsageError(LorasyncError, ValueError):
    """An API was called against its contract (e.g. time running backwards)."""


class EncodeError(LorasyncError, ValueError):
    """A frame field cannot be represented in the wire format."""


class DecodeError(LorasyncError, ValueError):
    """Malformed wire bytes. `offset` points at the offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class ConfigError(LorasyncError, ValueError):
    """Bad scenario configuration.

    `line` is set for file-derived errors, `device` (an index into the
    scenario's devices) for an error in one device's own settings.
    """

    def __init__(self, message: str, line: int | None = None, device: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
        self.device = device
