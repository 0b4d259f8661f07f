#!/usr/bin/env python3
"""Request-path benchmark entry point; see README.md beside this file."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# The benchmark measures the checkout it lives in: its own package next
# to this file, the stack under <checkout>/src.
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from e2elib.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
