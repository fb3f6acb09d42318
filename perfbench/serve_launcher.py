"""Start the compile daemon for the serve-mix workload.

Usage: ``python3 perfbench/serve_launcher.py [--span-dir DIR] -- ARGS``
where ARGS are ``python -m repro serve`` arguments.  With ``--span-dir``
the layer wrappers are installed before the daemon (and so its forked
workers) starts, and spans land in DIR.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import use_checkout_source  # noqa: E402


def main(argv) -> int:
    span_dir = None
    if argv[:1] == ["--span-dir"]:
        span_dir, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    use_checkout_source()
    tracer = None
    if span_dir:
        from layers import LayerTracer
        tracer = LayerTracer(span_dir)
        tracer.install()
    from repro.serve.daemon import serve_main
    rc = serve_main(argv)
    if tracer is not None:
        tracer.uninstall()
        tracer.flush()
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
