"""The three error types, one per outcome a caller handles by name.

A library function raises ValueError (or TypeError) when its caller breaks a
stated precondition, FastSlowError when the numerics fail on valid input,
and PairInvariantError when a standard pair breaks its class bounds. The CLI
maps FastSlowError to exit 3 (numerical-error) and ConfigError to exit 2;
any other exception that reaches it is a bug.
"""


class FastSlowError(Exception):
    """The numerics failed on valid input."""


class PairInvariantError(FastSlowError):
    """A standard pair or family violates its defining bounds."""


class ConfigError(Exception):
    """Configuration file / schema problem (maps to CLI exit code 2)."""
