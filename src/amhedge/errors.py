"""Shared exception types, aligned with the CLI exit codes."""
from __future__ import annotations


class ModelFormatError(ValueError):
    """Malformed model file or inconsistent model data (CLI exit 4)."""


class CapExceededError(RuntimeError):
    """An enumeration exceeded its configured cap (CLI exit 3)."""

    def __init__(self, what: str, count: int, cap: int):
        super().__init__(f"{what} needs {count} items, cap is {cap}")
        self.what = what
        self.count = count
        self.cap = cap

    def __reduce__(self):
        # rebuilt from its fields, so it crosses a process boundary whole
        return type(self), (self.what, self.count, self.cap)


class SnaFailure(RuntimeError):
    """Pricing rejected because no-arbitrage fails (CLI exit 2).

    The message is the whole refusal; the check that raised it has
    already proven the failure, and ``ftap`` reports the witness.
    """


class PropertyViolation(AssertionError):
    """An internal invariant failed on concrete data (CLI exit 5)."""
