"""`python -m conway_genera`: the conway-genera command line."""

import sys

from .cli import main

sys.exit(main())
