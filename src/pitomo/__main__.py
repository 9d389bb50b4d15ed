"""Run the command line as ``python -m pitomo``."""
from .cli import main
raise SystemExit(main())
