"""The repo's benchmark: five workloads over the AMPC serving stack.

Entry point is ``bench/run.py``; ``bench/README.md`` explains the
workloads, the metrics and the trace files.  Everything here measures
``src/repro`` from outside, through its public API.
"""

import sys
from pathlib import Path

#: the checkout this benchmark sits in (``bench/`` is one level below it)
REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def require_source() -> None:
    """Put ``src/`` on ``sys.path``, or exit 2 when there is no program.

    A directory holding only the benchmark has nothing to measure; the
    harness must fail there instead of printing a result.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
