"""Command-line entry point: `python -m owcsim simulate|sweep|check ...`."""

import sys

from .cli import main

sys.exit(main())
