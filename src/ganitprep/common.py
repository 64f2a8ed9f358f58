"""The enums every record carries, the atomic artifact writers (whole text,
indented JSON, or line by line), the record every stage reports, and the
package's one error type.

This module imports only the standard library, so any other module can
import from it at module level without forming a cycle.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO


class PipelineError(Exception):
    """The one error this package raises deliberately: bad input, a broken
    artifact or a refused request. Its message is the whole report."""


class Language(Enum):
    ENGLISH = "English"
    HINDI = "Hindi"


class Source(Enum):
    GSM8K = "GSM8K"
    MATH = "MATH"
    HAWP = "HAWP"
    INDIMATHQA = "IndiMathQA"
    SYNTHETIC = "Synthetic"


class Difficulty(Enum):
    EASY = "Easy"
    MEDIUM = "Medium"
    HARD = "Hard"
    UNCLASSIFIED = "Unclassified"


class Operation(Enum):
    ADD = "Add"
    SUB = "Sub"
    MUL = "Mul"
    DIV = "Div"
    NONE = "None"


@contextmanager
def _atomic_file(path) -> Iterator[TextIO]:
    """A UTF-8 text handle whose content replaces ``path`` in one rename.

    The text goes to a temp file beside ``path`` first, so a crash or error
    mid-write leaves the previous file, or none, never a truncated one. The
    temp name is unique per process and thread, so concurrent writers never
    share one. A path with no file name ("/", ".", "" or one ending in "..") is
    refused before any temp file is made.
    """
    if Path(path).name in ("", ".."):
        raise PipelineError(f"output path {str(path)!r} names no file")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) in one rename."""
    with _atomic_file(path) as handle:
        handle.write(text)


def write_json_atomic(path, payload) -> None:
    """Replace ``path`` with ``payload`` as sorted-key UTF-8 JSON indented by
    one space, and a final "\\n", in one rename; the encoder writes its pieces
    to the file as it makes them, so no whole-text copy is built."""
    with _atomic_file(path) as handle:
        json.dump(payload, handle, sort_keys=True, ensure_ascii=False, indent=1)
        handle.write("\n")


def write_lines_atomic(path, lines: Iterable[str],
                       header: Callable[[], str] | None = None) -> None:
    """Replace ``path`` with each of ``lines`` and its "\\n" (UTF-8) in one rename.

    The lines are written as the iterable yields them, so no whole-file copy
    is built; no lines make an empty file. If the iterable raises, the
    previous file stays.

    With ``header``, the file starts with the line it returns, which may
    depend on the lines: it is called once before them, for a placeholder,
    and once after them, and its second text overwrites the first in place.
    Both must have the same UTF-8 length.
    """
    with _atomic_file(path) as handle:
        if header is not None:
            placeholder = header()
            handle.write(placeholder)
            handle.write("\n")
        for line in lines:
            handle.write(line)
            handle.write("\n")
        if header is not None:
            final = header()
            if len(final.encode("utf-8")) != len(placeholder.encode("utf-8")):
                raise PipelineError("header line changed length after its placeholder")
            handle.seek(0)
            handle.write(final)


# Sorted keys, raw UTF-8, no spaces. One encoder for every call: json.dumps
# with keyword arguments builds a new JSONEncoder each time.
canonical_json = json.JSONEncoder(sort_keys=True, ensure_ascii=False,
                                  separators=(",", ":")).encode


@dataclass(frozen=True)
class StageSummary:
    """What one stage did: records in and out, the ids it flagged with the
    reason for each, and the text it reports before its summary line."""

    name: str
    count_in: int
    count_out: int
    flagged: dict[str, str] = field(default_factory=dict)
    text: str = ""

    def line(self) -> str:
        return (f"stage={self.name} in={self.count_in} out={self.count_out} "
                f"flagged={len(self.flagged)}")
