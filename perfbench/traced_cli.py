"""``nhc`` command line with the span tracer installed.

    python traced_cli.py TRACE_OUT.json <nhc arguments...>

Runs ``nhc.cli.main`` on the arguments exactly as ``python -m nhc.cli``
would, then writes the spans to TRACE_OUT.json, also when the command
fails, and exits with the command's exit code.
"""

import sys

from tracer import Tracer


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import nhc.cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        return nhc.cli.main(argv)
    finally:
        tracer.active = False
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main())
