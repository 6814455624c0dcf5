"""Compare two result files written by run.py, metric by metric.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare runs of different workloads or trace modes, or
a run of the compiled kernel with one of pure Python: they differ by
60-85x, which would swamp any other change. A run without
linkdomain.kernels.KERNEL (no kernels package) counts as pure Python.
"""

import json
import sys
from pathlib import Path


def compare(base: dict, new: dict) -> list[str]:
    """One line per metric of `base`: both values and new/base. Raises
    ValueError when the two runs are not comparable."""
    for key in ("workload", "trace"):
        if base[key] != new[key]:
            raise ValueError(f"{key} differs: {base[key]!r} vs {new[key]!r}")
    if (base["env"]["kernel"] == "compiled") != (new["env"]["kernel"] == "compiled"):
        raise ValueError(f"kernel differs: {base['env']['kernel']!r} vs {new['env']['kernel']!r}")
    lines = []
    for name, old in base["result"]["metrics"].items():
        now = new["result"]["metrics"].get(name)
        if now is None:
            lines.append(f"{name:32} {old['value']:>14.4f} {'absent':>14}")
            continue
        ratio = f"{now['value'] / old['value']:.3f}x" if old["value"] else "-"
        lines.append(f"{name:32} {old['value']:>14.4f} {now['value']:>14.4f} {ratio:>9} {old['unit']}")
    return lines


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(arg).read_text(encoding="utf-8")) for arg in sys.argv[1:])
    try:
        lines = compare(base, new)
    except ValueError as exc:
        print(f"refusing to compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
