"""``python -m esrate``: the ``esrate`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
