"""python -m whatif: the whatif command line."""

from .cli import main

raise SystemExit(main())
