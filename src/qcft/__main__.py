"""`python -m qcft`: the same entry point as the installed `qcft` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
