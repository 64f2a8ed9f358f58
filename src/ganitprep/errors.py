"""The one read path for every artifact file: a failed read is one ``PipelineError``
(defined in ``common``) worded ``<path>: <what>`` or ``<path>:<line>: <what>``."""

import json
from contextlib import contextmanager
from dataclasses import fields

from ganitprep.common import PipelineError

# What decoding JSON nested too deep, or building a value from decoded JSON
# of the wrong shape, raises; every reader turns it into a PipelineError.
MALFORMED = (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError,
             RecursionError)

_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null",
               list[str]: "an array of strings", dict[str, str]: "an object of strings"}


def _has_type(value, kind) -> bool:
    container = getattr(kind, "__origin__", None)  # list[str] or dict[str, str]
    if container:
        return type(value) is container and all(
            type(item) is str for item in (value.values() if container is dict else value))
    return type(value) is kind or (kind is float and type(value) is int)


def check_json_object(data, types: dict, what: str) -> None:
    """Raise unless ``data`` is a JSON object whose keys hold their types.

    ``types`` maps a key to the Python type its decoded value must have;
    absent keys and keys not in ``types`` pass. A bool is not an int, an int
    is accepted for a float, and ``list[str]`` or ``dict[str, str]`` asks
    for string items.
    """
    if type(data) is not dict:
        raise PipelineError(f"{what} must be a JSON object, not {_json_name(data)}")
    for key, kind in types.items():
        if key in data and not _has_type(data[key], kind):
            raise PipelineError(f"{what} key {key!r} must be {_JSON_NAMES[kind]}, "
                                f"not {_json_name(data[key])}")


def check_fields(data, cls, what: str, **types) -> None:
    """Raise unless ``data`` is a JSON object of dataclass ``cls``'s fields.

    A field's default has the type its JSON value must decode to, unless
    ``types`` gives another; a key that names no field is rejected.
    """
    types = {f.name: type(f.default) for f in fields(cls)} | types
    check_json_object(data, types, what)
    unknown = set(data) - set(types)
    if unknown:
        raise PipelineError(f"unknown {what} keys: {sorted(unknown)}")


def _json_name(value) -> str:
    return _JSON_NAMES.get(type(value), type(value).__name__)


@contextmanager
def naming(path, what: str = ""):
    """Raise a failure in the ``with`` body as an error naming ``path``;
    ``what`` names the content for a missing key or a malformed value."""
    try:
        yield
    except PipelineError as exc:
        raise PipelineError(f"{path}: {exc}") from exc
    except MALFORMED as exc:  # a decode error too
        if isinstance(exc, KeyError) and what:
            raise PipelineError(f"{path}: {what} has no key {exc}") from exc
        raise PipelineError(f"{path}: {what} is malformed: {exc}" if what else
                            f"{path}: {exc}") from exc


@contextmanager
def json_object_file(path, what: str, types: dict = {}):
    """Yield the JSON object in the UTF-8 file ``path``, whose keys hold ``types``;
    any failure, in the ``with`` body too, is raised as an error naming the path.
    """
    with naming(path, what):
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        check_json_object(data, types, what)
        yield data


def numbered_lines(path, what: str | None = None, build=None):
    r"""Yield ``(line number, line, object)`` for each nonblank line of ``path``.

    The UTF-8 file is streamed. Only "\n" ends a line (a "\r\n" ending goes
    whole). With ``what``, each line must hold a JSON object: ``object``, or
    ``build(object)``; else ``object`` is None. A failure names ``path:line``.
    """
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").removesuffix("\n").removesuffix("\r")
                if not line.strip():
                    continue
                data = json.loads(line) if what else None
                if what and type(data) is not dict:
                    raise PipelineError("record is not an object")
                if build:
                    data = build(data)
            except PipelineError as exc:
                raise PipelineError(f"{path}:{lineno}: {exc}") from exc
            except MALFORMED as exc:  # not UTF-8 or not JSON too
                raise PipelineError(
                    f"{path}:{lineno}: unreadable {what or 'line'}: {exc}") from exc
            yield lineno, line, data
