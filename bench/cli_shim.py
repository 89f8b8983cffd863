"""Traced ``qkgr`` command line: one query, with the per-layer wrappers.

    python3 bench/cli_shim.py STATS.json product -k 4 -n 11 --lhs 3,1 --rhs 2 --json

Times ``import qkgr.cli``, installs the wrappers of ``tracer.py``, calls
``qkgr.cli.main(argv)`` and writes the query's spans and counters to
STATS.json.  Standard output and the exit code are the command's own.
"""

import json
import sys
import time
from pathlib import Path

import tracer


def main() -> int:
    stats_path, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import qkgr.cli

    import_ms = (time.perf_counter() - t0) * 1000
    spans = tracer.Tracer(request=" ".join(argv)).install()
    code = qkgr.cli.main(argv)
    sys.stdout.flush()
    state = spans.state()
    raw = state["raw"]
    state["import_ms"] = import_ms
    state["compute_ms"] = (raw["cli.main.total_s"] - raw["cli.self_s"]) * 1000
    stats_path.write_text(json.dumps(state, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main())
