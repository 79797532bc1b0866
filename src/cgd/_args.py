"""The package's one argument rule: a number is a ``numbers.Real``, an integer a
``numbers.Integral`` (a bool is neither) and a choice one of a tuple of strings.
A refused value raises ``error``, ValueError unless given, starting with its name."""

import math
import numbers

_KINDS = {float: (numbers.Real, "a number"), int: (numbers.Integral, "an integer")}


def scalar(name, value, kind=float, *, low=None, above=None, high=None, error=ValueError):
    """``value`` as a ``kind``: a finite float >= ``low`` or > ``above``, or an
    int >= ``low`` and <= ``high``, each bound where given. An integer past
    the float range reads as infinite."""
    abstract, noun = _KINDS[kind]
    if type(value) is not kind and (isinstance(value, bool) or not isinstance(value, abstract)):
        raise error(f"{name}: must be {noun}, got {value!r}")
    try:
        number = kind(value)
    except OverflowError:
        number = math.inf
    if ((kind is int or math.isfinite(number)) and (low is None or number >= low)
            and (above is None or number > above) and (high is None or number <= high)):
        return number
    if kind is int:
        rule = f"an integer >= {low}" if high is None else f"in [{low}, {high}]"
    else:
        bounds = ((">=", low), (">", above))
        rule = " and ".join(["finite"] + [f"{op} {b}" for op, b in bounds if b is not None])
    raise error(f"{name}: must be {rule}, got {value}")


def choice(name, value, choices, *, noun="", error=ValueError):
    """``value`` if it is one of the strings ``choices``. With a ``noun`` the
    refusal reads "<name>: unknown <noun> <value>; expected one of ..."."""
    if isinstance(value, str) and value in choices:
        return value
    if noun:
        raise error(f"{name}: unknown {noun} {value!r}; expected one of {choices}")
    raise error(f"{name}: expected one of {choices}, got {value!r}")
