"""`python -m qzeta`: the same process entry as the `qzeta` script, cli.run."""

from .cli import run

if __name__ == "__main__":
    run()
