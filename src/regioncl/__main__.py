"""``python -m regioncl``: the same commands as the ``regioncl`` script."""

import sys

from .cli import main

sys.exit(main())
