"""The process entry of `python -m qnd_povm` and the `qnd-povm` script.

Both launchers call `console`, which runs `cli.main` and then freezes the
heap with `gc.freeze()`.  At exit the interpreter's full collections skip
frozen objects, so a one-shot process spends no time tracing the tens of
thousands of objects numpy and the package made at import.  The exit
itself is the normal one: stdout and stderr are flushed, and atexit hooks,
profilers and coverage still run; only cyclic garbage left at exit goes
uncollected, and the OS takes its memory back with the process.  `cli.main`
and `cli.run` are library calls and never freeze the caller's heap.
"""

import sys

from .cli import main


def console(argv=None) -> int:
    """Run one command to its exit status, then freeze the heap for exit."""
    # imported here, not with the module: at the top it raised `validate`'s
    # peak RSS by about 0.1 MB (child ru_maxrss, no bytecode cache)
    import gc

    try:
        return main(argv)
    finally:
        # argparse's exits (--help, --version, usage errors) freeze too
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console())
