"""``python -m vesselmf``: the same CLI as the ``vesselmf`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
