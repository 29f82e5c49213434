"""The ``simfarm`` command: ``python -m simfarm`` and the installed script.

``navsim-worker`` is parsed here rather than in :mod:`simfarm.cli`: a
subprocess runner starts one worker process per chunk, and the worker needs
only the simulator, the execution and design types and the CSV tables, not
the analysis, model and geodesy layers that the full command line imports.
Every other command goes to :func:`simfarm.cli.main`.
"""

import sys


def main() -> None:
    argv = sys.argv[1:]
    if argv[:1] == ["navsim-worker"]:
        from .errors import CommandParser, run_command
        from .simkit import WORKER_HELP, add_worker_arguments

        parser = CommandParser(prog="simfarm navsim-worker", description=WORKER_HELP)
        add_worker_arguments(parser)
        sys.exit(run_command(parser.parse_args(argv[1:])))
    from .cli import main as cli_main

    cli_main()


if __name__ == "__main__":
    main()
