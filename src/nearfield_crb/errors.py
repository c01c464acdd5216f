"""Exception types shared across the engine.

Every error the engine raises deliberately derives from CrbEngineError so
callers (sweep drivers in particular) can catch one base class, tag the
offending grid point, and keep going.  ``outcome`` keeps a point's error.
"""


class CrbEngineError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CrbEngineError):
    """An input lies outside the mathematical domain of an operation."""


class DegenerateGeometry(DomainError):
    """The scene collapses (e.g. the target coincides with the receiver)."""


class SpanSingularity(DomainError):
    """The lateral-offset to span-angle map is undefined at this point."""


class SingularityNearPi2(DomainError):
    """Closed-form sums were requested too close to theta = +/- pi/2."""


class ElementCoincidence(DomainError):
    """Two array elements coincide, or the target sits exactly on an element."""


class InvalidLayout(CrbEngineError, ValueError):
    """Array layout parameters are structurally invalid."""


class SingularFisher(CrbEngineError):
    """The 2x2 (theta, r) Fisher block is singular at working precision."""


class IllConditioned(CrbEngineError):
    """A matrix inversion failed its residual check."""


def error_code(exc: BaseException) -> str:
    """Snake-case tag used in CSV output for a caught engine error."""
    name = type(exc).__name__
    out = [name[0].lower()]
    for prev, ch in zip(name, name[1:]):
        if ch.isupper() and not prev.isupper():
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def outcome(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the engine error it raises, kept bare.

    A kept error holds no traceback and no chained exception: their frames
    would keep the caller's vectors alive until the collector runs.
    """
    try:
        return fn(*args, **kwargs)
    except CrbEngineError as exc:
        exc.__cause__ = exc.__context__ = None
        return exc.with_traceback(None)
