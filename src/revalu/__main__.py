"""`python -m revalu ...`: the `revalu` command without an install."""

from .cli import entry

if __name__ == "__main__":
    entry()
