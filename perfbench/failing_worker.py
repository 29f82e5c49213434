"""Subprocess-runner worker that fails on purpose, for the failure probe.

Usage: failing_worker.py --fail-from-index N <worker command...> <in.csv> <out.csv>

Exits 3 without writing an output when the chunk's first design-row index is
N or more; otherwise it becomes the wrapped worker command.  Chunks are
contiguous in design-row order, so N = chunk size fails the second chunk and
every later one.
"""

import csv
import os
import sys


def main(argv: list[str]) -> None:
    if len(argv) < 5 or argv[0] != "--fail-from-index":
        sys.exit("usage: failing_worker.py --fail-from-index N <command...> <in.csv> <out.csv>")
    fail_from = int(argv[1])
    command = argv[2:]
    with open(command[-2], newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        first = int(next(reader)[0])
    if first >= fail_from:
        sys.exit(3)
    os.execv(command[0], command)


if __name__ == "__main__":
    main(sys.argv[1:])
