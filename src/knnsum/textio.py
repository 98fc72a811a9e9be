"""One decoding policy for the line-oriented text inputs.

An input file is read once, as bytes, and its text is decoded from those
same bytes: as UTF-8, a leading byte-order mark skipped, with universal
newlines and the surrogateescape error handler, so a byte sequence that
is not UTF-8 decodes into lone surrogates on its own line instead of
aborting the read. Each reader then refuses such a line with a
line-numbered diagnostic, as it refuses any malformed line.
"""

from __future__ import annotations

import io
from typing import IO, NamedTuple

NOT_UTF8 = "not valid UTF-8"


class Diagnostic(NamedTuple):
    line_no: int
    reason: str


def read_text(path: str) -> tuple[bytes, IO[str]]:
    """The bytes of the file at path, in one read, and a text stream that
    decodes those very bytes under the policy."""
    with open(path, "rb") as fh:
        data = fh.read()
    return data, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig",
                                  errors="surrogateescape")


def undecodable(text: str) -> bool:
    """True if text holds a lone surrogate: bytes that were not UTF-8."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False
