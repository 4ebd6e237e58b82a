"""`python -m elastoq ...` runs the command line, as the `elastoq` script does."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
