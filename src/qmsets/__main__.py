"""``python -m qmsets FILE [flags]``: the scenario command line."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
