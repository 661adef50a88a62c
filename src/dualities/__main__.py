"""``python -m dualities``: the same command line as the ``dualities`` script."""

import sys

from .cli import main

sys.exit(main())
