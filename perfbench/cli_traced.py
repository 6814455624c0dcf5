"""`python -m linkdomain.cli ARGS` with per-layer spans written to TRACE_OUT.

    python3 perfbench/cli_traced.py TRACE_OUT check FILE --json [...]

Times the import of linkdomain.cli, then runs cli.main under the hooks of
spans.py and writes the operation's spans and counters as JSON. Exits with
the CLI's own code, so its run is checked like an untraced one.
"""

import json
import sys
from pathlib import Path
from time import process_time

import spans


def main() -> int:
    trace_out, argv = Path(sys.argv[1]), sys.argv[2:]
    start = process_time()
    import linkdomain.cli as cli

    import_ms = (process_time() - start) * 1000.0
    tracer = spans.Tracer()
    saved, missing = spans.install(tracer)
    try:
        code = tracer.wrap("cli", cli.main)(argv)
    finally:
        spans.restore(saved)
    op = tracer.finish()
    op["import_ms"] = import_ms
    op["missing"] = missing
    trace_out.write_text(json.dumps(op), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
