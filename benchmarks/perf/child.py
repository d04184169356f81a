"""Private entry point of the full protocol: one pass in a fresh interpreter.

``run.py`` starts ``python3 child.py`` for every pass, writes one JSON job
``{"function": "run_pass" | "run_reference", "args": [...]}`` to its stdin
and reads the ``PassResult`` back as the last line of its stdout.  A process
started this way is what the one-pass form of ``run.py`` is: a new
interpreter whose ``multiprocessing`` default (fork) starts the shm workers.
(A ``multiprocessing`` "spawn" child is not: it hands "spawn" down as the
default, the workers then boot an interpreter each, and ``shm_ingest``'s
set-up read 0.37 s instead of 0.08 s.)
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main() -> int:
    import harness

    job = json.load(sys.stdin)
    function = {"run_pass": harness.run_pass, "run_reference": harness.run_reference}[job["function"]]
    result = function(*job["args"])
    print(json.dumps(dataclasses.asdict(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
