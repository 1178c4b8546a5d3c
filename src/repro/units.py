"""Unit helpers and constants.

All sizes are bytes, all rates are bytes/second, all times are seconds,
everywhere in the codebase.  These helpers exist so model parameters can
be written in the units the paper uses (GiB of GPU memory, Gbps links,
minutes of checkpoint interval) without sprinkling magic multipliers.
"""

from __future__ import annotations

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB
TIB = 1024 * GIB

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 24 * HOUR
WEEK = 7 * DAY


def mib(n: float) -> float:
    """Mebibytes to bytes."""
    return n * MIB


def mbps(n: float) -> float:
    """Megabits/second to bytes/second."""
    return n * 1e6 / 8


def gbps(n: float) -> float:
    """Gigabits/second to bytes/second."""
    return n * 1e9 / 8


def as_gib(nbytes: float) -> float:
    """Bytes to GiB (for display)."""
    return nbytes / GIB


def minutes(n: float) -> float:
    """Minutes to seconds."""
    return n * MINUTE


def hours(n: float) -> float:
    """Hours to seconds."""
    return n * HOUR


def days(n: float) -> float:
    """Days to seconds."""
    return n * DAY


def percent(fraction: float) -> float:
    """Fraction (0..1) to percentage points (for display)."""
    return fraction * 100.0
