"""`python -m quadlie ...` runs the `quadlie` command; no install is needed."""

import sys

from .cli import main

sys.exit(main())
