"""``python -m rabinsynth``: the ``rabinsynth`` command line."""

from .cli import main

main()
