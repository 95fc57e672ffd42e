"""Entry point for ``python -m schurgrid``; same as the ``schurgrid`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
