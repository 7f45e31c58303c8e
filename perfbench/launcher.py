"""Start ``repro serve`` with the benchmark's spans installed.

The traced serve-mixed phase runs its daemon through this file instead of
``python -m repro serve``: it times ``import repro``, installs the same
wrappers as the load process (plus the job manager's entry points),
serves until SIGTERM, and then writes its spans to ``--spans``.

    python perfbench/launcher.py --state-dir DIR --spans FILE
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()

    start = time.perf_counter()
    import repro.serve  # noqa: F401  (the start-up being measured)

    common.emit("import_s", time.perf_counter() - start)
    tracer = tracing.Tracer()
    tracing.install(tracer, daemon=True)
    try:
        # serve() turns SIGTERM into a graceful shutdown and returns.
        return repro.serve.serve(port=0, state_dir=args.state_dir)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
