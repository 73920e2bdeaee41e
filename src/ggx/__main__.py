"""``python -m ggx``: the command-line interface of :mod:`ggx.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
