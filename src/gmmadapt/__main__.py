"""`python -m gmmadapt`: the same entry point as the gmmadapt console script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
