"""Exception types shared across the package."""

from __future__ import annotations


class ContextStreamError(Exception):
    """Base class for all domain errors raised by this package."""


class TimestampOrderError(ContextStreamError):
    """A record's timestamp is not strictly after the previous one."""

    def __init__(self, last, new):
        super().__init__(f"timestamp {new.isoformat()} is not after {last.isoformat()}")
        self.last = last
        self.new = new


class SuperChainError(ContextStreamError):
    """A record's declared super location/event is not on the parent chain."""


class UnknownIdError(ContextStreamError):
    """An identifier could not be resolved."""


class CycleError(ContextStreamError):
    """A cycle was found in a graph that must be acyclic."""

    def __init__(self, path: list[str]):
        super().__init__("cycle detected: " + " -> ".join(path))
        self.path = list(path)


class CompositeWindowError(ContextStreamError):
    """A window mixes several locations and several event groups; the
    four-pattern taxonomy has no case for it."""

    def __init__(self, n_locations: int, n_events: int):
        super().__init__(
            f"unclassified composite window: {n_locations} locations x {n_events} events"
        )
        self.n_locations = n_locations
        self.n_events = n_events


class InconsistentLabelError(ContextStreamError):
    """A label vector violates the child-implies-parent constraint."""


class FormatError(ContextStreamError):
    """A document failed to parse or carries an unsupported version."""

    def __init__(self, path, message: str, line: int | None = None, col: int | None = None):
        loc = f"{path}"
        if line is not None:
            loc += f":{line}"
            if col is not None:
                loc += f":{col}"
        # not super(): in StreamOrderError and StreamChainError, another
        # ContextStreamError comes next
        ContextStreamError.__init__(self, f"{loc}: {message}")
        self.path = path
        self.line = line
        self.col = col


class StreamOrderError(FormatError, TimestampOrderError):
    """A TimestampOrderError in a stream file, at the line of the record
    that is not after the one before it."""

    def __init__(self, path, line: int, last, new):
        FormatError.__init__(self, path, str(TimestampOrderError(last, new)), line=line)
        self.last = last
        self.new = new


class StreamChainError(FormatError, SuperChainError):
    """A SuperChainError in a stream file, at the line of the record whose
    declared super location or event is off its chain."""

    def __init__(self, path, line: int, exc: SuperChainError):
        FormatError.__init__(self, path, str(exc), line=line)
