"""The one rule for every number and integer the package checks.

A number is a finite ``int`` or ``float``, never a ``bool``, between
optional bounds, each open or closed.  An integer is an ``int``, never a
``bool``, with ``lo <= v < hi``.  A failure raises ``ValueError`` naming
the field or argument.  Records such as ``VehicleState`` are built on every
tick, so the checks are plain comparisons and a message is formatted only
when one fails.
"""

import math

_INF = math.inf
_MAX = math.nextafter(_INF, 0.0)  # the largest float


def _span(lo, hi, lo_open, hi_open) -> str:
    if hi == _INF:
        return "" if lo == -_INF else f" {'>' if lo_open else '>='} {lo}"
    if lo == -_INF:
        return f" {'<' if hi_open else '<='} {hi}"
    return f" in {'(' if lo_open else '['}{lo}, {hi}{')' if hi_open else ']'}"


def number(name: str, v, lo=-_INF, hi=_INF, lo_open=False, hi_open=False) -> None:
    """Raise unless ``v`` is a number between ``lo`` and ``hi``."""
    # bool is an int subclass; NaN fails every comparison, and -_MAX..._MAX
    # turns away the infinities and ints too large for a float
    if not (
        (isinstance(v, float) or isinstance(v, int) and v.__class__ is not bool)
        and (lo < v if lo_open else lo <= v)
        and (v < hi if hi_open else v <= hi)
        and -_MAX <= v <= _MAX
    ):
        span = _span(lo, hi, lo_open, hi_open)
        raise ValueError(f"{name} must be a finite number{span}, got {v!r}")


def numbers(record, names, lo=-_INF, hi=_INF, lo_open=False, hi_open=False) -> None:
    """Raise unless each named field of ``record`` is a number between ``lo`` and ``hi``."""
    for name in names:
        number(name, getattr(record, name), lo, hi, lo_open, hi_open)


def vector(name: str, seq, n: int, lo=-_INF, hi=_INF) -> tuple[float, ...]:
    """``seq`` as a tuple of floats; raise unless it holds ``n`` numbers in [lo, hi]."""
    try:
        values = tuple(seq)
    except TypeError:
        values = (seq,)
    if len(values) != n:
        raise ValueError(f"{name} must hold {n} numbers, got {seq!r}")
    for v in values:
        number(name, v, lo, hi)
    return tuple(map(float, values))


def integer(name: str, v, lo=-_INF, hi=_INF) -> None:
    """Raise unless ``v`` is an integer with ``lo <= v < hi``."""
    if v.__class__ is bool or not isinstance(v, int) or not lo <= v < hi:
        raise ValueError(f"{name} must be an integer{_span(lo, hi, False, True)}, got {v!r}")
