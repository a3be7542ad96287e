"""Layered benchmark for perfchain.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0|1}

Run from the root of a checkout.  Builds the workload's inputs from the
seed (gen.py), then measures them in fresh single-threaded worker
processes under an address-space cap (worker.py):

* set-up: several workers that only import perfchain.cli and build the
  workload's groups; `setup_s` is the median;
* `--trace 0`: one worker runs passes over the job set through
  perfchain.cli.main for S seconds and reports the end-to-end metrics;
* `--trace 1`: the same untraced worker, then a worker with timing
  wrappers (tracing.py) for another S seconds; reports per-layer metrics
  and `trace.overhead_ratio`.

Times are reported in reference seconds: each job's time is scaled by a
calibration measured next to it in the same worker (see scaled_passes),
which cancels most of a shared host's speed drift.  Every invocation also
runs the untimed known-limits probe (probe.py).  Stdout ends with a report
line (every metric with its unit, raw seconds, the input and answer
digests, the job and sample counts, the probe outcome) and then the result
line {"correct", "attempted", "failed", "metrics"}.  Outside a checkout
that holds src/perfchain it exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

ADDRESS_SPACE_CAP = int(1.5 * 2**30)
SETUP_WORKERS = 4
MIN_PASSES = 2
DEADLINE_S = 170.0
PROBE_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# A reference second is a second on a host where worker.calibrate() takes
# this long; see scaled_passes.
REFERENCE_CAL_S = 0.022

END_TO_END = {
    "wall_s": "s", "solve_s": "s", "verify_s": "s", "job_p50_s": "s",
    "job_p90_s": "s", "peak_rss_mb": "MB", "cert_mb": "MB", "setup_s": "s",
}
# Which end-to-end metric each per-layer metric should move, and on which
# workload; the per-layer metrics of a traced run are the ones listed here.
LAYER_MAP = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))
PER_LAYER = [name for row in LAYER_MAP for name in row["metrics"]]


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return {"self_s": "s", "bytes": "B", "action_bytes": "B", "max_digits": "digits",
            "overhead_ratio": "ratio"}.get(suffix, "count")


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.start = time.monotonic()
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    @staticmethod
    def _cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))

    def worker(self, mode: str, seconds: float) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(self.workdir), mode, str(seconds)],
            env=self.env, preexec_fn=self._cap, timeout=max(self.remaining(), 1.0),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        result = self.workdir / f"result-{mode}.json"
        if proc.returncode != 0 or not result.exists():
            raise RuntimeError(f"{mode} worker exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        data = json.loads(result.read_text(encoding="utf-8"))
        result.unlink()
        return data

    def probes(self) -> dict:
        """Both known-limits cases side by side, after all timing is done."""
        procs = {case: subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), str(self.workdir), case],
            env=self.env, preexec_fn=self._cap, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True) for case in ("lens243", "snf60")}
        outcome = {}
        try:
            for case, proc in procs.items():
                timeout = max(min(PROBE_TIMEOUT_S, self.remaining()), 1.0)
                try:
                    out, _ = proc.communicate(timeout=timeout)
                    lines = out.strip().splitlines()
                    outcome[case] = json.loads(lines[-1]) if lines else {
                        "case": case, "status": "fail", "error": f"exit {proc.returncode}"}
                except subprocess.TimeoutExpired:
                    outcome[case] = {"case": case, "status": "fail", "error": "timeout"}
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
        return outcome


def percentile(samples, p: int) -> float:
    """Linearly interpolated percentile."""
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def write_inputs(workdir: Path, jobs, seed: int) -> str:
    """Write the job inputs and the probe inputs; returns the sha256 of the
    job inputs."""
    digest = hashlib.sha256()
    for job in jobs:
        for name, text in job.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
            digest.update(name.encode() + b"\0" + text.encode() + b"\0")
    G, C = gen.lens(3, 5, 2)
    (workdir / "probe_lens243.txt").write_text(gen.complex_text(G, C), encoding="utf-8")
    rng = random.Random(f"probe:{seed}")
    M = [[rng.randint(-9, 9) for _ in range(60)] for _ in range(60)]
    (workdir / "probe_snf60.txt").write_text(gen.int_matrix_text(M), encoding="utf-8")
    return digest.hexdigest()


def scaled_passes(result: dict) -> list[dict]:
    """Per pass: job, solve, verify and wall times in reference seconds.

    On a shared host the CPU's speed switches between states every few
    seconds under other tenants' load, moving raw times by 10-40%.  Each
    solve and each verify step is therefore scaled by REFERENCE_CAL_S over
    the mean of the calibrations run just before and just after it in the
    same worker (worker.calibrate).  Raw seconds stay in the report line.
    """
    out = []
    for p in result["passes"]:
        cal = p["cal_s"]          # before solve 0, between, before solve 1, ...
        scale = [REFERENCE_CAL_S * 2 / (a + b) for a, b in zip(cal, cal[1:])]
        solve = [t * k for t, k in zip(p["solve_s"], scale[0::2])]
        verify = [t * k for t, k in zip(p["verify_s"], scale[1::2])]
        out.append({"jobs": [a + b for a, b in zip(solve, verify)],
                    "solve_s": sum(solve), "verify_s": sum(verify),
                    "wall_s": sum(solve) + sum(verify),
                    "raw_wall_s": sum(p["solve_s"]) + sum(p["verify_s"]),
                    "cert_bytes": p["cert_bytes"]})
    return out


def end_to_end(passes: list, peak_rss_mb: float, setups: list) -> dict:
    med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
    # one value per job (its median over the passes), so that the job mix,
    # not the number of passes that fit in the run, sets the percentiles
    jobs = [statistics.median(times) for times in zip(*(p["jobs"] for p in passes))]
    return {
        "wall_s": med("wall_s"),
        "solve_s": med("solve_s"),
        "verify_s": med("verify_s"),
        "job_p50_s": percentile(jobs, 50),
        "job_p90_s": percentile(jobs, 90),
        "peak_rss_mb": peak_rss_mb,
        "cert_mb": med("cert_bytes") / 1e6,
        "setup_s": statistics.median(setups),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "perfchain" / "cli.py").is_file():
        print(f"perfbench: no perfchain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs, groups = gen.build(args.workload, args.seed)
    input_sha256 = write_inputs(workdir, jobs, args.seed)
    names = [j.name for j in jobs]
    plan = {"groups": groups, "min_passes": MIN_PASSES,
            "jobs": [{"name": j.name, "kind": j.kind, "solve": j.solve, "expect": j.expect,
                      "verify": j.verify} for j in jobs]}
    (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    runner = Runner(workdir)
    try:
        setups = [runner.worker("setup", 0) for _ in range(SETUP_WORKERS)]
        run = runner.worker("run", args.seconds)
        traced = runner.worker("trace", args.seconds) if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    setups.append(run)
    known_limits = runner.probes()

    passes = scaled_passes(run)
    setup_raw = [w["setup_s"] for w in setups]
    setup_scaled = [w["setup_s"] * REFERENCE_CAL_S / w["cal_s"] for w in setups]
    e2e = end_to_end(passes, run["peak_rss_mb"], setup_scaled)
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    failures = list(run["failures"])
    attempted = len(passes) * len(names)
    failed = len({(f["pass"], f["job"]) for f in failures})
    checks = {"untraced_run_has_no_wrappers": run["wrappers_found"] == 0}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "input_sha256": input_sha256, "answer_sha256": run["answer_sha256"],
        "passes": len(passes), "job_samples": attempted,
        "job_median_s": {n: statistics.median(t) for n, t in
                         zip(names, zip(*(p["jobs"] for p in passes)))},
        "raw_wall_s": statistics.median(p["raw_wall_s"] for p in passes),
        "peak_vm_mb": run["peak_vm_mb"], "address_space_cap_mb": ADDRESS_SPACE_CAP / 2**20,
        "setup_raw_s": setup_raw, "setup_scaled_s": setup_scaled,
        "raw_passes": run["passes"],
        "end_to_end": {**metrics, "ops_failed_ratio": {"value": failed / attempted,
                                                       "unit": "ratio"}},
        "known_limits": known_limits,
        "failures": failures[:20],
    }
    if traced is not None:
        summary = traced["trace"]
        traced_passes = scaled_passes(traced)
        traced_wall = statistics.median(p["wall_s"] for p in traced_passes)
        # per-layer seconds in reference seconds too, by the run's median calibration
        scale = REFERENCE_CAL_S / statistics.median(
            c for p in traced["passes"] for c in p["cal_s"])
        layers = {k: v * scale if k.endswith(".self_s") else v
                  for k, v in summary["layers"].items()}
        layers["trace.overhead_ratio"] = traced_wall / e2e["wall_s"] - 1
        checks.update({
            "traced_run_has_wrappers": traced["wrappers_found"] > 0,
            "self_time_within_wall": summary["self_total_s"]
            <= statistics.fmean(p["raw_wall_s"] for p in traced_passes),
            "cancellations_match_inversions":
                layers.get("chains.minimalize.cancellations", 0)
                == summary["minimalize_inversions"],
            "traced_answers_match": traced["answer_sha256"] == run["answer_sha256"],
        })
        failures += traced["failures"]
        metrics = {name: {"value": layers.get(name, 0), "unit": per_layer_unit(name)}
                   for name in PER_LAYER}
        report.update({
            "traced_passes": len(traced_passes), "traced_wall_s": traced_wall,
            "spans": summary["spans"], "per_layer": metrics, "all_layers": layers,
        })
        attempted += len(traced_passes) * len(names)
        failed += len({(f["pass"], f["job"]) for f in traced["failures"]})
    report["checks"] = checks
    print(json.dumps({"report": report}))
    correct = failed == 0 and all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
