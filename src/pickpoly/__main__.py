"""``python -m pickpoly``: the same command line as the ``pickpoly`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
