"""``python -m wignerexp``: the command-line front end of ``wignerexp.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
