"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters for anything a command can hit.
"""

from __future__ import annotations


class MotionPrimError(Exception):
    """Base class for all package errors."""


class ConfigError(MotionPrimError):
    """Invalid or inconsistent configuration (unknown keys, bad values)."""


class DataError(MotionPrimError):
    """Invalid input data: missing files, malformed CSV, non-finite samples."""


class CheckpointError(MotionPrimError):
    """Unreadable or incompatible checkpoint file."""


class NumericError(MotionPrimError):
    """Numeric failure during training or inference (non-finite values)."""


class MetadataProviderError(DataError):
    """Metadata embedding provider failure; carries provider context."""
