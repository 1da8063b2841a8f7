"""The declared input contract: one validator for every configuration.

A configuration dataclass declares each field once: the annotation is its
exact type, and the entry under its name in the class's ``RANGES`` table
(if any) is its range.  :func:`check` enforces both; ``__post_init__``
adds only the rules that relate fields.  Workload constructor parameters
follow the same contract under one rule, with no tables
(:func:`check_params`).  Types are exact and nothing is coerced: ``int``
refuses ``bool``, ``float`` and ``str``, and ``float`` takes an ``int`` or
a finite ``float`` but never a ``bool``, because ``4`` and ``4.0``
canonicalise to different RunSpec digests.  Every declared number range
ends below :data:`LIMIT`, so no size, latency or count can overflow the
simulator's arithmetic.  Errors read ``<field> must be <range>, got
<value>``.  Each class's declarations become one list of checks the first
time the class is checked, so a construction pays a set lookup and a
range test per field.
"""

from __future__ import annotations

import functools
import inspect
import math
import typing
from dataclasses import fields
from typing import Callable, List, Mapping, NamedTuple, Optional, Tuple

#: The exclusive ceiling of every declared number range.
LIMIT = 2 ** 31


class Range(NamedTuple):
    """A range: ``test`` holds for a value of the field's type inside it,
    and ``text`` describes it, with ``{type}`` standing for the type."""

    test: Callable[[object], bool]
    text: str
    #: A :class:`repro.registry.Registry` naming the valid values; its own
    #: error, listing them, reports a miss.
    registry: object = None


#: For an ``int`` field, "positive" means at least 1.
POSITIVE = Range(lambda v: 0 < v < LIMIT,
                 "positive ({type} > 0, below 2**31)")
NON_NEGATIVE = Range(lambda v: 0 <= v < LIMIT,
                     "non-negative ({type} >= 0, below 2**31)")
UNIT = Range(lambda v: 0 <= v <= 1, "{type} in [0, 1]")


def one_of(*choices) -> Range:
    return Range(frozenset(choices).__contains__,
                 " or ".join(map(repr, choices)))


def registered(registry) -> Range:
    return Range(registry.__contains__,
                 f"a registered {registry.kind} name", registry)


#: The exact types each plain annotation admits (``None``: any), the
#: test a value of those types must still pass, and their description.
_TYPES = {
    int: ({int}, None, "an int"),
    float: ({int, float}, lambda v: type(v) is int or math.isfinite(v),
            "a finite number"),
    bool: ({bool}, None, "a bool"),
    str: ({str}, None, "a str"),
    Tuple[int, ...]: ({tuple, list},
                      lambda v: all(type(x) is int for x in v),
                      "a list of ints"),
    Mapping: (None, lambda v: isinstance(v, Mapping), "a mapping"),
    object: (None, None, "anything"),
}

#: One field's check: its name, the exact types it admits (``None``:
#: any), the test a value of those types must pass (``None``: none), the
#: description of both, and the range's registry.
Check = Tuple[str, Optional[frozenset], Optional[Callable], str, object]


def _or_none(test: Callable) -> Callable:
    return lambda v: v is None or test(v)


def _both(first: Optional[Callable], second: Optional[Callable]):
    if first is None or second is None:
        return first or second
    return lambda v: first(v) and second(v)


def _checks(hints: Mapping, ranges: Mapping) -> List[Check]:
    """The checks of the fields ``hints`` annotates, in order."""
    checks = []
    for name, hint in hints.items():
        optional = typing.get_origin(hint) is typing.Union
        if optional:                      # Optional[X]: None, or an X
            hint = typing.get_args(hint)[0]
        if hint in _TYPES:
            types, test, text = _TYPES[hint]
        else:                             # a nested configuration class
            types, test, text = {hint}, None, f"a {hint.__name__}"
        declared = ranges.get(name, Range(None, "{type}"))
        test = _both(test, declared.test)
        text = declared.text.format(type=text)
        if optional:
            types = types and types | {type(None)}
            test = test and _or_none(test)
            text = f"None or {text}"
        checks.append((name, types and frozenset(types), test, text,
                       declared.registry))
    return checks


def _run(checks: List[Check], values: Mapping, error) -> None:
    for name, types, test, text, registry in checks:
        value = values[name]
        if types is not None and type(value) not in types \
                or test is not None and not test(value):
            if registry is not None and type(value) is str:
                registry.get(value)       # raises, listing valid names
            raise error(f"{name} must be {text}, got {value!r}")


@functools.cache
def _class_checks(cls) -> List[Check]:
    hints = typing.get_type_hints(cls)
    return _checks({f.name: hints[f.name] for f in fields(cls)},
                   getattr(cls, "RANGES", {}))


def check(obj, error=ValueError) -> None:
    """Enforce the declared type and range of every field of dataclass
    instance ``obj``; raise ``error`` naming the first field that breaks
    its declaration."""
    _run(_class_checks(type(obj)), obj.__dict__, error)


@functools.cache
def _param_checks(factory):
    """The defaults of workload class ``factory`` and the checks of its
    parameters under the one rule: an ``int`` size is positive and
    ``seed`` non-negative, a ``float`` is positive, a ``bool`` exact (an
    unannotated parameter takes anything)."""
    hints = typing.get_type_hints(factory.__init__)
    defaults = {name: parameter.default for name, parameter
                in inspect.signature(factory).parameters.items()}
    hints = {name: hints.get(name, object) for name in defaults}
    ranges = {name: NON_NEGATIVE if name == "seed" else POSITIVE
              for name, hint in hints.items() if hint in (int, float)}
    return defaults, _checks(hints, ranges)


def check_params(factory, params: Mapping) -> None:
    """Check the constructor arguments ``params`` of workload class
    ``factory``: known names only, each under the parameter rule."""
    defaults, checks = _param_checks(factory)
    check_keys(params, defaults, "parameter")
    _run(checks, {**defaults, **params}, ValueError)


def check_keys(doc: Mapping, allowed, what: str, error=ValueError) -> None:
    """Refuse keys of document ``doc`` outside ``allowed``, listing both."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise error(f"unknown {what} key(s) {', '.join(map(repr, unknown))}; "
                    f"valid keys: {', '.join(allowed)}")


def check_sectors(config, line: int) -> None:
    """The rule relating ``config``'s partial-accessing sector sizes to
    its ``line``-byte line: each must be positive and divide it (checked
    up front, though only a partial knob builds sectored caches)."""
    for name in ("l1_sector_size", "l2_sector_size"):
        sector = getattr(config, name)
        if sector < 1 or line % sector:
            raise ValueError(f"{name} must be positive and divide the "
                             f"{line}-byte line, got {sector}")


__all__ = ["LIMIT", "NON_NEGATIVE", "POSITIVE", "Range", "UNIT", "check",
           "check_keys", "check_params", "check_sectors", "one_of",
           "registered"]
