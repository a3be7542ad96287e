"""Benchmark worker: one fresh, single-threaded process per measurement.

    python3 perfbench/worker.py WORKDIR {setup|run|trace} SECONDS

Reads WORKDIR/plan.json (written by run.py), times the set-up (importing
perfchain.cli and building each group of the workload), then, unless the
mode is `setup`, runs passes over the job set through perfchain.cli.main
until SECONDS have been measured, with a garbage collection and a
calibration (`calibrate`) before, between and after the solve and verify
steps of every job, and writes WORKDIR/result-<mode>.json.
In `trace` mode timing wrappers from tracing.py are installed after set-up;
the other modes never import it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFECT_RE = re.compile(r"^perfect; euler_class=(-?\d+); replacement ranks \[([\d, ]*)\]$")
NOT_PERFECT_RE = re.compile(r"^not perfect; obstruction dim=(\d+); minimal generators=(\d+)$")


def run_cli(main, argv):
    """(exit code, stdout, error) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as e:          # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception as e:           # a crash is a failed job, not a failed run
        return None, out.getvalue(), f"{type(e).__name__}: {e}"
    return rc, out.getvalue(), err.getvalue().strip()


def parse_answer(kind: str, rc, stdout: str) -> dict:
    """The answer a job printed, in the shape of its `expect` entry."""
    line = stdout.strip().splitlines()[0] if stdout.strip() else ""
    if kind in ("perfect", "tower-perfect"):
        m = PERFECT_RE.match(line)
        if m:
            ranks = [int(x) for x in m.group(2).split(",")] if m.group(2).strip() else []
            return {"exit": rc, "perfect": True, "euler_class": int(m.group(1)), "ranks": ranks}
        m = NOT_PERFECT_RE.match(line)
        if m:
            return {"exit": rc, "perfect": False, "obstruction_dim": int(m.group(1)),
                    "minimal_generators": int(m.group(2))}
    elif kind == "snf" and line.startswith("invariant factors:"):
        return {"exit": rc, "diag": [int(x) for x in line.split(":", 1)[1].split()]}
    elif kind == "complete":
        rank, torsion = 0, []
        for part in ([] if line == "0" else line.split(" + ")):
            if part.startswith("Z_"):
                rank += int(part.split("^")[1]) if "^" in part else 1
            elif part.startswith("Z/"):
                torsion.append(int(part[2:]))
            else:
                return {"exit": rc, "unparsed": line}
        return {"exit": rc, "rank": rank, "torsion": torsion}
    return {"exit": rc, "unparsed": line}


def check_answer(job: dict, answer: dict) -> str | None:
    """None when the answer matches the construction, else the reason."""
    expect = job["expect"]
    if job["kind"] == "snf":
        diag = answer.get("diag")
        if answer.get("exit") != 0 or diag is None:
            return f"snf printed {answer}"
        if any(d < 0 for d in diag):
            return "negative invariant factor"
        if str(abs(math.prod(diag))) != expect["abs_det"]:
            return "product of invariant factors is not |det|"
        if any(a == 0 and b or a and b % a for a, b in zip(diag, diag[1:])):
            return "invariant factors fail divisibility"
        return None
    if job["kind"] == "exactness":
        return None if answer == expect else "check_exactness said False"
    return None if answer == expect else f"expected {expect}, got {answer}"


def exactness_batch(abelian, path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        seqs = json.load(fh)
    exact = []
    for s in seqs:
        A, B, C = (abelian.FGAbelian(n, rel) for n, rel in (s["A"], s["B"], s["C"]))
        f = abelian.FGAbelianMap(A, B, s["f"])
        g = abelian.FGAbelianMap(B, C, s["g"])
        exact.append(bool(abelian.check_exactness(f, g, s["l"])))
    return {"exact": exact}


def settle(cal: list) -> None:
    """Between timed steps: collect garbage, so that one step's leftovers
    are not collected inside the next, then calibrate."""
    gc.collect()
    cal.append(calibrate())


def run_job(job: dict, main, abelian, tracer, cal: list) -> dict:
    """Solve then verify one job; times and the answer it gave.  Appends
    the calibrations taken before the solve step and between the steps."""
    cert = job["name"] + ".cert"
    if os.path.exists(cert):          # verify only what this pass wrote
        os.remove(cert)
    settle(cal)
    if tracer is not None:
        tracer.job = job["name"]
    error = None
    t0 = time.perf_counter()
    if job["kind"] == "exactness":
        try:
            answer = exactness_batch(abelian, job["name"] + ".json")
        except Exception as e:
            answer, error = {}, f"{type(e).__name__}: {e}"
    else:
        for argv in job["solve"]:
            rc, stdout, err = run_cli(main, argv)
            if rc is None:
                error = err
        answer = parse_answer(job["kind"], rc, stdout)
    t1 = time.perf_counter()
    settle(cal)
    t1b = time.perf_counter()
    if job["verify"] and error is None:
        rc, stdout, err = run_cli(main, ["verify", cert])
        answer["verified"] = rc == 0 and stdout.startswith("certificate valid")
        if rc is None:
            error = err
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.job = None
    reason = error or check_answer(job, {k: v for k, v in answer.items() if k != "verified"})
    if reason is None and job["verify"] and not answer["verified"]:
        reason = "certificate failed verify"
    return {"solve_s": t1 - t0, "verify_s": t2 - t1b, "answer": answer,
            "error": reason, "cert_bytes": os.path.getsize(cert) if job["verify"]
            and os.path.exists(cert) else 0}


def calibrate() -> float:
    """Seconds for a fixed reference computation shaped like perfchain's
    hot path (flinalg.rref): a Python-level pivot loop of int64 row
    operations mod 3.  run.py scales job times by it to cancel the host's
    speed drift."""
    import numpy as np
    A = np.random.default_rng(20240811).integers(0, 3, size=(120, 180), dtype=np.int64)
    t0 = time.perf_counter()
    r = 0
    for c in range(A.shape[1]):
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        A[[r, p]] = A[[p, r]]
        A[r] = (A[r] * A[r, c]) % 3       # x * x == 1 for x in {1, 2}
        other = np.nonzero(A[:, c])[0]
        other = other[other != r]
        A[other] = (A[other] - np.outer(A[other, c], A[r])) % 3
        r += 1
        if r == A.shape[0]:
            break
    return time.perf_counter() - t0


def peak_address_space_mb() -> float | None:
    """VmPeak of this process (what the address-space cap limits), on Linux."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmPeak:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def count_wrappers() -> int:
    """Perfchain functions and class attributes carrying a timing wrapper."""
    seen = 0
    for name, mod in list(sys.modules.items()):
        if name != "perfchain" and not name.startswith("perfchain."):
            continue
        for obj in vars(mod).values():
            seen += hasattr(obj, "_perfbench_span")
            if isinstance(obj, type) and obj.__module__ == name:
                for attr in vars(obj).values():
                    seen += hasattr(getattr(attr, "__func__", attr), "_perfbench_span")
    return seen


def main() -> int:
    workdir, mode, seconds = Path(sys.argv[1]), sys.argv[2], float(sys.argv[3])
    plan = json.loads((workdir / "plan.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import perfchain.cli
    from perfchain.groups import build_group
    for desc, l in plan["groups"]:
        build_group(desc, l)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "cal_s": sorted(calibrate() for _ in range(3))[1]}

    if mode != "setup":
        from perfchain import abelian
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
        os.chdir(workdir)
        passes, failures, answers = [], [], None
        start = time.perf_counter()
        while True:
            # calibrations before, between and after the steps of every job;
            # run.py scales each step by the calibrations on either side of it
            cal = []
            records = [run_job(job, perfchain.cli.main, abelian, tracer, cal)
                       for job in plan["jobs"]]
            settle(cal)
            pass_answers = {job["name"]: r["answer"] for job, r in zip(plan["jobs"], records)}
            if answers is None:
                answers = pass_answers
            for job, r in zip(plan["jobs"], records):
                reason = r["error"]
                if reason is None and r["answer"] != answers[job["name"]]:
                    reason = "answer differs from the first pass"
                if reason is not None:
                    failures.append({"pass": len(passes), "job": job["name"], "reason": reason})
            passes.append({"cal_s": cal,
                           "solve_s": [r["solve_s"] for r in records],
                           "verify_s": [r["verify_s"] for r in records],
                           "cert_bytes": sum(r["cert_bytes"] for r in records)})
            elapsed = time.perf_counter() - start
            # stop when one more pass of the average length would overrun
            if len(passes) >= plan["min_passes"] and elapsed / len(passes) + elapsed > seconds:
                break
        result.update({
            "passes": passes, "failures": failures,
            "answers": answers,
            "answer_sha256": hashlib.sha256(
                json.dumps(answers, sort_keys=True).encode()).hexdigest(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "peak_vm_mb": peak_address_space_mb(),
            "wrappers_found": count_wrappers(),
        })
        if tracer is not None:
            result["trace"] = tracer.summary(len(passes))
            tracer.write_spans(workdir / "spans.json")

    (workdir / f"result-{mode}.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
