"""One input reader, one named-source parser and one report serialiser.

Every domain module reads its line format through ``read_records``,
decodes ``name:p1,p2`` sources through ``split_ident`` and converts user
tokens through ``ints`` and ``fractions``, so a malformed token always
surfaces as the caller's error class.  ``to_json`` turns any report into
the JSON-ready value the CLI prints.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from functools import cache
from typing import Iterable

# Largest integer parameter a named source accepts, e.g. ``genus:64``.
PARAM_MAX = 64

Records = list[tuple[str, tuple[int, ...]]]


def ints(tokens: Iterable[str], error: type[Exception]) -> tuple[int, ...]:
    """Integer tokens; a bad one raises ``error``."""
    tokens = list(tokens)
    try:
        return tuple(map(int, tokens))
    except ValueError:
        raise error(f"bad integer in {tokens}") from None


def fractions(tokens: Iterable[str], error: type[Exception]) -> tuple[Fraction, ...]:
    """Rational tokens such as ``3/2``; a bad one or ``k/0`` raises ``error``."""
    tokens = list(tokens)
    try:
        return tuple(map(Fraction, tokens))
    except (ValueError, ZeroDivisionError):
        raise error(f"bad rational in {tokens}") from None


def read_records(text: str, keys: dict[str, int], error: type[Exception]) -> dict | Records:
    """Read the line format every input file shares, or a JSON object.

    JSON text is returned as the decoded object, whose fields are read
    with ``json_ints``; a key repeated within one object raises
    ``error``.  Otherwise each line, with ``#`` comments dropped, is
    ``key [args]: tokens``; ``keys`` maps every accepted key to the
    number of integer arguments its head carries (``rot 3:`` carries
    one).  The result lists ``(key, ints)`` per line, head arguments
    first.
    """
    text = text.strip()
    if text.startswith("{"):

        def unique_keys(pairs: list[tuple[str, object]]) -> dict:
            obj = {}
            for key, value in pairs:
                if key in obj:
                    raise error(f"repeated JSON key {key!r}")
                obj[key] = value
            return obj

        try:
            return json.loads(text, object_pairs_hook=unique_keys)
        except error:
            raise
        except (ValueError, RecursionError) as exc:  # bad syntax, an over-long integer, deep nesting
            raise error(f"bad JSON: {exc}") from None
    records = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, rest = line.partition(":")
        words = head.split()
        if not sep or not words or keys.get(words[0]) != len(words) - 1:
            raise error(f"unrecognized line {raw!r}")
        records.append((words[0], ints(words[1:] + rest.split(), error)))
    return records


def json_ints(data: dict, key: str, depth: int, error: type[Exception]):
    """``data[key]`` of a JSON source as plain ints nested ``depth`` lists deep.

    Every parser reads its integer fields through here, so a missing key
    or a string, float, bool or null where an integer or list belongs
    raises ``error``.  Lists come back as tuples.
    """
    if key not in data:
        raise error(f"JSON input needs {key!r}")
    level = [data[key]]
    for _ in range(depth):
        if not all(type(v) is list for v in level):
            break
        level = [x for v in level for x in v]
    else:
        if all(type(v) is int for v in level):
            return _tuples(data[key], depth)
    raise error(f"{key!r} must hold plain integers at list depth {depth}")


def _tuples(value, depth: int):
    if depth < 2:
        return tuple(value) if depth else value
    return tuple([_tuples(v, depth - 1) for v in value])


def split_ident(ident: str, error: type[Exception]) -> tuple[str, tuple[int, ...]]:
    """Split ``name:p1,p2`` into the lower-cased name and its parameters.

    Each parameter must be an integer in 0..PARAM_MAX; the named
    constructors narrow that range further.
    """
    name, sep, rest = ident.partition(":")
    params = ints(rest.split(","), error) if sep else ()
    for p in params:
        if not 0 <= p <= PARAM_MAX:
            raise error(f"parameter {p} in {ident!r} outside 0..{PARAM_MAX}")
    return name.lower(), params


def to_json(obj):
    """The JSON-ready value of a report, a data format or plain data.

    Reports give their dataclass fields plus their ``*_ok`` properties;
    ``Matroid``, ``SimplicialComplex`` and ``Embedding`` give their own
    ``to_json_dict``.  Rationals become strings, tuples become lists and
    tuple dict keys become space-joined strings such as ``"1 3"``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, dict):
        return {_key(k): to_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_json(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if dataclasses.is_dataclass(obj):
        return {name: to_json(getattr(obj, name)) for name in _report_names(type(obj))}
    return obj


@cache
def _report_names(cls) -> tuple[str, ...]:
    """A report class's field names, then its ``*_ok`` property names."""
    props = (n for n in dir(cls) if n.endswith("_ok") and isinstance(getattr(cls, n), property))
    return tuple(f.name for f in dataclasses.fields(cls)) + tuple(props)


def _key(k) -> str:
    return " ".join(str(i) for i in k) if isinstance(k, tuple) else str(k)
