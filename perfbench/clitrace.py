"""Run one grmlr CLI command with the layer tracer installed.

    python3 perfbench/clitrace.py SPANS.json ARG...

ARG... are grmlr's command-line arguments, and grmlr must be importable
(for example with ``PYTHONPATH=src``). The spans recorded while
``grmlr.cli.main`` runs are written to SPANS.json; the exit code is main's.
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    import grmlr.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = grmlr.cli.main(argv)
    except SystemExit as exc:  # argparse's --version action exits
        code = exc.code
    finally:
        tracer.uninstall()
    tracer.finish()
    tracer.write(out)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
