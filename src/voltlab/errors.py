"""Exception types shared across the voltlab package."""


class VoltlabError(Exception):
    """Base class for all voltlab errors."""


class RangeError(VoltlabError, ValueError):
    """A numeric field is outside its encodable range."""


class FormatError(VoltlabError, ValueError):
    """A raw MSR word does not decode to a known command layout."""


class SchemaError(VoltlabError, ValueError):
    """A processor profile file is malformed or missing required fields."""


class InvariantError(VoltlabError, ValueError):
    """Profile data violates a model invariant (bands, distributions, ...)."""


class UnknownCoreOrPState(VoltlabError, KeyError):
    """Lookup of a core index or pstate the profile does not define."""

    __str__ = Exception.__str__  # KeyError's would quote the message


class UnknownStressor(VoltlabError, KeyError):
    """Stressor name not in the registry."""

    __str__ = Exception.__str__


class ParseError(VoltlabError, ValueError):
    """Mini-ISA source text could not be parsed."""


class InterpreterError(VoltlabError, RuntimeError):
    """Runtime fault inside the mini-ISA interpreter (bad access, budget)."""


class NoWindowFound(VoltlabError, RuntimeError):
    """Voltage search hit the offset floor without finding a fault window."""


class AbortedByCrash(VoltlabError, RuntimeError):
    """A campaign died to a platform crash; carries the partial result."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
