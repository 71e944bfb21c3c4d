"""Run the gebshrink CLI with every public function traced.

Usage: python3 perfbench/traced_cli.py DUMP.json <gebshrink arguments...>

Installs the wrappers of ``tracing.py`` before ``cli.main`` runs, and
writes the spans, per-name totals and counters to DUMP.json when the
command ends.  The exit code is the command's own.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, install  # noqa: E402


def main():
    dump_path, argv = sys.argv[1], sys.argv[2:]
    import gebshrink.cli as cli

    tracer = Tracer()
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.write(dump_path)


if __name__ == "__main__":
    sys.exit(main())
