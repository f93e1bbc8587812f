"""``python -m dworksum <command> --job <path>`` runs the command line."""

import sys

from .cli import main

sys.exit(main())
