"""Run one `ghzlattice` CLI invocation in this fresh interpreter, traced.

    python traced_cli.py SUMMARY.json <cli arguments...>

Times `import ghzlattice.cli`, installs the span tracer, runs ``cli.run``
inside one op span and writes the per-key summary to SUMMARY.json.  The exit
code is the CLI's own.
"""
import json
import sys
import time

t0 = time.perf_counter()
import ghzlattice.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402  (this file's directory is on sys.path)


def main() -> int:
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = tracer.run_op(cli.run, argv)
    _ops, wall, stats = tracer.layer_metrics()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "wall_s": wall, "stats": stats,
                   "steps": tracer.steps}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
