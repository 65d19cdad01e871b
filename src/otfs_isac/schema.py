"""Typed, bounded dataclass fields: one table that reads, checks and writes
a JSON object.

A field's name, type and default are its dataclass declaration; ``param``
adds its unit and the bound of its values. ``from_json`` reads a JSON value
as a declared type, ``to_json`` writes it back, and ``check`` is the one rule
for every number and string: an integer is a JSON integer, a number is a JSON
integer or float, neither is ever a bool, and a number must be finite unless
its bound says otherwise.
"""

from __future__ import annotations

import functools
import numbers
import types
import typing
from dataclasses import MISSING, field, fields, is_dataclass

FINITE = "(-inf, inf)"
POSITIVE = "(0, inf)"
NON_NEGATIVE = "[0, inf)"
COUNT = "[1, inf)"

_hints = functools.cache(typing.get_type_hints)


def param(default=MISSING, unit: str = "", bound=None):
    """A dataclass field with the unit and the bound of its values.

    ``bound`` is an interval such as ``"[1, inf)"`` for a number, optionally
    followed by ``" or "`` and one more accepted value, as in
    ``"[-300, 300] or inf"``; it also applies to every number inside a list.
    For a string it is a tuple of the choices. A number without a bound must
    be finite; a field without a default is required.
    """
    return field(default=default, metadata={"unit": unit, "bound": bound})


def _within(value, bound: str) -> bool:
    interval, _, extra = bound.partition(" or ")
    if extra and value == float(extra):
        return True
    low, high = (float(end) for end in interval[1:-1].split(","))
    return ((low < value if interval[0] == "(" else low <= value)
            and (value < high if interval[-1] == ")" else value <= high))


def json_type(kind) -> str:
    """The JSON type that reads as the annotation ``kind``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is types.UnionType:
        return f"{json_type(args[0])} or null"
    if origin is tuple:
        if args[-1] is Ellipsis:
            return f"list of {json_type(args[0])}"
        return f"[{', '.join(map(json_type, args))}]"
    if is_dataclass(kind):
        return "object"
    return {int: "integer", float: "number", str: "string"}[kind]


def check(kind, value, bound=None) -> str | None:
    """Why ``value`` is not a valid ``kind`` (int, float or str, or one of
    them or None) within ``bound``, or None when it is."""
    optional = typing.get_origin(kind) is types.UnionType
    if optional and value is None:
        return None
    base = typing.get_args(kind)[0] if optional else kind
    or_null = " or null" if optional else ""
    if base is str:
        if isinstance(value, str) and (bound is None or value in bound):
            return None
        want = f"one of {', '.join(bound)}" if bound else "string"
        return f"expected {want}{or_null}, got {value!r}"
    ok = (isinstance(value, numbers.Integral if base is int else numbers.Real)
          and not isinstance(value, bool))
    try:
        # a float field converts first, so an integer past float range fails
        ok = ok and _within(float(value) if base is float else value,
                            bound or FINITE)
    except OverflowError:
        ok = False
    if ok:
        return None
    return f"expected {json_type(base)} in {bound or FINITE}{or_null}, got {value!r}"


def field_errors(obj) -> list:
    """``"<field>: <problem>"`` for each scalar field of the dataclass ``obj``
    that fails ``check``."""
    hints = _hints(type(obj))
    return [f"{f.name}: {message}" for f in fields(obj)
            if (message := check(hints[f.name], getattr(obj, f.name),
                                 f.metadata.get("bound")))]


def from_json(kind, value, where: str, errors: list, bound=None):
    """``value`` read as the annotation ``kind``: a dataclass from an object,
    a tuple from a list, or a checked scalar (a number as a float).

    Appends one message per unknown, missing or invalid entry to ``errors``,
    each prefixed with its path from ``where``; the return value is only
    meaningful when none was appended.
    """
    optional = typing.get_origin(kind) is types.UnionType
    if optional and value is None:
        return None
    inner = typing.get_args(kind)[0] if optional else kind
    if is_dataclass(inner):
        return _object(inner, value, where, errors)
    if typing.get_origin(inner) is tuple:
        args = typing.get_args(inner)
        if not isinstance(value, list) or (args[-1] is not Ellipsis
                                           and len(value) != len(args)):
            errors.append(f"{where}: expected {json_type(kind)}, got {value!r}")
            return None
        kinds = [args[0]] * len(value) if args[-1] is Ellipsis else args
        return tuple(from_json(k, v, f"{where}[{i}]", errors, bound)
                     for i, (k, v) in enumerate(zip(kinds, value)))
    message = check(kind, value, bound)
    if message:
        errors.append(f"{where}: {message}")
        return None
    return float(value) if inner is float else value


def _object(kind, value, where: str, errors: list):
    if not isinstance(value, dict):
        errors.append(f"{where or 'top level'}: expected an object, got {value!r}")
        return None
    prefix = f"{where}." if where else ""
    table = fields(kind)
    names = {f.name for f in table}
    errors.extend(f"{prefix}{key}: unknown field" for key in value if key not in names)
    start = len(errors)
    kwargs = {}
    for f in table:
        if f.name in value:
            kwargs[f.name] = from_json(_hints(kind)[f.name], value[f.name],
                                       prefix + f.name, errors, f.metadata.get("bound"))
        elif f.default is MISSING:
            errors.append(f"{prefix}{f.name}: missing")
    return kind(**kwargs) if len(errors) == start else None


def to_json(value):
    """The JSON form of a dataclass, tuple or scalar, which ``from_json``
    reads back as an equal value."""
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_json(v) for v in value]
    return value
