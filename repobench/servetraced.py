"""Program process for the traced ``serve-live`` run: ``repro serve`` with
the layer trace installed.

    python servetraced.py TRACE_OUT SERVE_ARGS...

Runs ``repro.cli.main(SERVE_ARGS)`` unchanged and writes the in-memory
spans and counters to ``TRACE_OUT`` once the server has drained.
"""

from __future__ import annotations

import sys


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]

    from repro.cli import build_parser, main as repro_main
    from repro.pipeline.config import RunConfig
    from tracer import Tracer, install_layer_tracing, install_serve_tracing

    tracer = Tracer()
    config = RunConfig.from_serve_args(build_parser().parse_args(argv))
    install_layer_tracing(tracer, config)
    install_serve_tracing(tracer)
    code = repro_main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
