"""Exception types shared across the package."""


class PaygsimError(Exception):
    """Base class for all package errors."""


class ConfigError(PaygsimError):
    """Scenario configuration is invalid.

    Carries a list of messages, each prefixed with the offending field path,
    so callers can report every problem in one pass.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class CoverageError(PaygsimError):
    """A series or table does not cover a year, age, or cell it was asked for."""


class StateError(PaygsimError):
    """Projection state is inconsistent: an amount that int64 cents or a float cannot hold."""
