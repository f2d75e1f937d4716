"""Exception types and number rules shared across the toolkit.

Each class carries the exit code the command-line front end returns when
it escapes a command: 2 for unparseable input, 3 for every other failure.
"""

import sys


class SawkitError(Exception):
    """Base class for all toolkit-specific errors."""

    exit_code = 3


# Touchstone parsing


class MalformedOptionLine(SawkitError):
    """Option line is missing, duplicated, or contains unknown tokens."""

    exit_code = 2


class NonMonotonicFrequency(SawkitError):
    """Frequencies must be positive and strictly increasing."""

    exit_code = 2


class WrongColumnCount(SawkitError):
    """A data row is not three whitespace-separated numbers with finite S11."""

    exit_code = 2


class EmptyData(SawkitError):
    """File contains fewer than two data rows."""

    exit_code = 2


# One-port network math


class SingularReflection(SawkitError):
    """S11 too close to -1 for the admittance transform."""


class TooFewPoints(SawkitError):
    """Not enough samples inside the requested band."""


class DegenerateLocus(SawkitError):
    """Points are coincident or collinear; no finite circle fits them."""


# Metric extraction


class ResonanceNotBracketed(SawkitError):
    """Trace does not bracket a series/parallel resonance pair."""


class DomainError(SawkitError):
    """Arguments lie outside the operation's domain."""


class EmptyBand(SawkitError):
    """No usable samples inside the requested band."""


# mBVD fitting


class NegativeStaticCapacitance(SawkitError):
    """Static-capacitance estimate came out non-positive."""


class NonFiniteResidual(SawkitError):
    """Fit residual is not finite."""


# Frequency scaling


class OutOfTableRange(SawkitError):
    """Requested thickness ratio lies outside the dispersion-table hull."""


class TargetOutOfRange(SawkitError):
    """Target frequency is not achievable within the table hull."""


# Number rules

# (in range, requirement), written with & to check a float or an array; the
# bound is the largest float, as an int too large for one is below inf
POSITIVE_FINITE = (lambda x: (0.0 < x) & (x <= sys.float_info.max), "must be positive and finite")
FINITE_NONNEGATIVE = (lambda x: (0.0 <= x) & (x <= sys.float_info.max), "must be finite and >= 0")


def require(name: str, value, rule=POSITIVE_FINITE) -> None:
    """Raise ValueError("<name> <requirement>") unless value is in rule's range."""
    in_range, requirement = rule
    if not in_range(value):
        raise ValueError(f"{name} {requirement}")


def is_json_number(value) -> bool:
    """Whether a json.loads value is a number: an int or a float, not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)
