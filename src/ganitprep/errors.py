"""Shared exception hierarchy."""

from dataclasses import fields


class PipelineError(Exception):
    """Base class for every error this package raises deliberately."""


class RecordFormatError(PipelineError):
    """A source record does not match its declared file format."""


class IntegrityError(PipelineError):
    """A persisted artifact fails its checksum or an invariant check."""


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def check_json_object(data, types: dict, error: type = PipelineError,
                      what: str = "config") -> None:
    """Raise ``error`` unless ``data`` is a JSON object whose keys hold their types.

    ``types`` maps a key to the Python type its decoded value must have;
    absent keys and keys not in ``types`` pass. A bool is not an int, and an
    int is accepted for a float.
    """
    if type(data) is not dict:
        raise error(f"{what} must be a JSON object, not {_json_name(data)}")
    for key, kind in types.items():
        if key in data:
            value = data[key]
            if type(value) is not kind and not (kind is float and type(value) is int):
                raise error(f"{what} key {key!r} must be {_JSON_NAMES[kind]}, "
                            f"not {_json_name(value)}")


def check_fields(data, cls, error: type = PipelineError, what: str = "config",
                 **types) -> None:
    """Raise ``error`` unless ``data`` is a JSON object of dataclass ``cls``'s fields.

    A field's default has the type its JSON value must decode to, unless
    ``types`` gives another; a key that names no field is rejected.
    """
    types = {f.name: type(f.default) for f in fields(cls)} | types
    check_json_object(data, types, error, what)
    unknown = set(data) - set(types)
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")


def _json_name(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)
