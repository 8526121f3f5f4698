"""`python -m bockstein run|verify|formulas ...`: the command line without
the installed `bockstein` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
