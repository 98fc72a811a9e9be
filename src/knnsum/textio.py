"""One decoding policy for the line-oriented text inputs.

Input files are opened as UTF-8 with the surrogateescape error handler,
so a byte sequence that is not UTF-8 decodes into lone surrogates on its
own line instead of aborting the read. Each reader then refuses such a
line with a line-numbered diagnostic, as it refuses any malformed line.
"""

from __future__ import annotations

from typing import IO, NamedTuple

NOT_UTF8 = "not valid UTF-8"


class Diagnostic(NamedTuple):
    line_no: int
    reason: str


def open_text(path: str) -> IO[str]:
    """Open path for reading under the decoding policy."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def undecodable(text: str) -> bool:
    """True if text holds a lone surrogate: bytes that were not UTF-8."""
    if text.isascii():
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return True
    return False
