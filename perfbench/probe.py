"""Known-limits probe: two jobs that fail at the seed commit, run untimed.

    python3 perfbench/probe.py WORKDIR {lens243|snf60}

`lens243` decides perfectness of the lens complex over C243 (lens 3 5 2);
`snf60` writes and verifies the Smith normal form certificate of a seeded
60x60 matrix.  Prints one JSON line with the case, `pass` or `fail`, and
the error.  run.py starts it under the workers' address-space cap and
records the outcome beside the metrics, never inside a workload.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    workdir, case = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(ROOT / "src"))
    from perfchain.cli import main as cli

    path = workdir / f"probe_{case}.txt"
    if case == "lens243":
        argv, expect = ["perfect", str(path)], "perfect; euler_class=1; replacement ranks [1, 1, 1]"
    else:
        argv, expect = ["snf", str(path), "--cert", f"{path}.cert"], "invariant factors:"
    t0 = time.perf_counter()
    out = io.StringIO()
    status, error = "fail", None
    try:
        with contextlib.redirect_stdout(out):
            rc = cli(argv)
            if rc == 0 and case == "snf60":
                rc = cli(["verify", f"{path}.cert"])
        if rc == 0 and out.getvalue().startswith(expect):
            status = "pass"
        else:
            error = f"exit {rc}: {out.getvalue().strip()[:200]}"
    except (MemoryError, ValueError) as e:
        error = f"{type(e).__name__}: {str(e)[:200]}"
    print(json.dumps({"case": case, "status": status, "error": error,
                      "seconds": round(time.perf_counter() - t0, 3)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
