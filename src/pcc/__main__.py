"""Run the `pcc` command line as `python -m pcc`."""

import sys

from .cli import main

sys.exit(main())
