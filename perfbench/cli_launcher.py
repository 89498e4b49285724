"""Run one hodoflow command with the benchmark's spans installed.

    python3 perfbench/cli_launcher.py SPANS_STEM ARG...

Installs the wrappers of ``tracing.py``, calls ``hodoflow.cli.main(ARG...)``,
writes the spans to SPANS_STEM.npz and exits with the command's code.
"""

import sys

import tracing


def main() -> int:
    stem, argv = sys.argv[1], sys.argv[2:]
    import hodoflow.cli

    tracer = tracing.Tracer()
    tracer.op_id = 0
    tracing.install(tracer)
    try:
        return hodoflow.cli.main(argv)
    finally:
        tracer.save(stem + ".npz")


if __name__ == "__main__":
    sys.exit(main())
