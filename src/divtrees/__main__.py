"""``python -m divtrees``: the same front end as the ``divtrees`` command."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
