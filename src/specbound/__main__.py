"""``python -m specbound``: the same entry point as the ``specbound`` script."""

from .cli import main

if __name__ == "__main__":
    main()
