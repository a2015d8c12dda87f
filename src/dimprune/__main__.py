"""``python -m dimprune``: the same command line as the ``dimprune`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
