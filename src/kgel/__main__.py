"""``python -m kgel``: the same command line as the ``kgel`` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
