"""``python -m retxdist``: the same command line as the ``retxdist`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
