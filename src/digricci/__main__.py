"""python -m digricci: the digricci command line, as the console script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
