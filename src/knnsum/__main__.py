"""``python -m knnsum``, and the installed ``knnsum`` script's entry point."""

import gc
import sys

from .cli import main


def run() -> int:
    """main() for a process that exits once it returns. What the command
    left alive is frozen first, so that the interpreter's collections at
    exit skip it. main() itself leaves the collector as it found it, for
    callers that go on running."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
