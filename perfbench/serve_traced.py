"""Start ``repro serve`` with span recorders around its layers.

    python3 perfbench/serve_traced.py SPANS_OUT serve --database DIR --port 0

Installs the server-side wrappers of ``tracing.install_server``, calls
the same ``repro.cli.main`` entry that ``python -m repro serve`` runs,
and writes every recorded span to SPANS_OUT (JSON lines) once the server
has stopped.  ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys

from tracing import Recorder, install_server


def main(argv: list[str]) -> int:
    spans_out, cli_argv = argv[0], argv[1:]
    from repro.cli import main as cli_main

    recorder = Recorder()
    install_server(recorder)
    try:
        return cli_main(cli_argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
