"""End-to-end and per-layer benchmark of the conetube CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (closed loop, one client, one CLI run at a time):

* ``audit-n2-mc``: ``conetube audit`` on the README n = 2 config with
  ``CONETUBE_THREADS=2``.  All eight identities by Monte Carlo, with the
  dual-region rows and the lambda-scaling re-estimates; no quadrature.
* ``scaling-n2``: ``conetube scaling`` on the README scaling config with one
  thread.  Mostly the two L25 slice-constant calibrations (3-D tensor
  quadrature), plus 16 Monte Carlo norm estimates.
* ``audit-n1-quad``: ``conetube audit`` on the default n = 1 config with one
  thread.  Every row goes to quadrature; no Monte Carlo.  It exits 1 on
  the known L26 n = 1 MISMATCH, which counts as a finding, not a failure.

The audit case lists are pinned in ``perfbench/cases`` (see
``make_cases.py``); ``--seed`` is written into each generated config as its
``seed`` and so drives every Monte Carlo stream.  The default seeds are
those of the README configs.

Every repetition runs in a fresh child process, so each one pays what a CLI
user pays: interpreter start, imports, the cold calibration cache.  One
repetition is one operation.  It fails on exit code 2 (or any code other
than 0 and 1), an uncaught exception, an ``error:`` line on stderr, a report
that breaks its own invariants, or report bytes that differ from the first
repetition of the run.

``--trace 0`` repeats the workload until ``--seconds`` have passed and
prints the end-to-end metrics (medians): ``setup_s``, ``wall_s`` and
``peak_rss_mb``.  ``--trace 1`` runs it once untraced and once traced, both
with one thread (and, when the workload uses more threads, once untraced
with those too, which must give the same report bytes), and prints the
per-layer metrics of ``spans.layer_metrics`` plus ``trace_overhead_s`` and
the Monte Carlo efficiency figures.

The last line of standard output is the result object; the line before it
records the environment, the report digests and the status counts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_SECONDS = 60.0      # the longest --seconds a run accepts
REP_ALLOWANCE_S = 100.0  # past --seconds: set-up probes and the last repetition
SETUP_PROBES = 8
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
STATUSES = ("CONFIRMED", "EXPONENT_CONFIRMED_CONSTANT_MISMATCH", "MISMATCH",
            "INCONCLUSIVE")

SCALING_CONFIG = {
    "params": {"n": 2, "p": 2, "q": 2, "alpha": [0, 0], "beta": [0, 0],
               "a": [0, 0], "b": [0, 0], "c": [3, 3]},
    "l": [2, 2], "r": [4, 4], "R_grid": [1, 2, 4, 8], "budget": 1000000}


def _cases(name: str) -> dict:
    return json.loads((HERE / "cases" / f"{name}.json").read_text())


WORKLOADS = {
    "audit-n2-mc": {"command": "audit", "threads": 2, "seed": 42,
                    "config": lambda: _cases("audit-n2-mc")},
    "scaling-n2": {"command": "scaling", "threads": 1, "seed": 7,
                   "config": lambda: dict(SCALING_CONFIG)},
    "audit-n1-quad": {"command": "audit", "threads": 1, "seed": 0,
                      "config": lambda: _cases("audit-n1-quad")},
}

DATA_FILES = {"audit": ("audit.csv", "audit_details.json"),
              "scaling": ("scaling.csv", "scaling.json")}


# ---------------------------------------------------------------------------
# report checks and Monte Carlo efficiency
# ---------------------------------------------------------------------------

def _csv_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _magnitude(value) -> float:
    if isinstance(value, dict):
        return math.hypot(value["re"], value["im"])
    return abs(value)


def mc_sample_need(details: dict, target: float = 0.01) -> float:
    """Draws that would bring every Monte Carlo record to ``target`` RSE.

    Exact records (zero standard error) need nothing more.
    """
    need = 0.0
    for rec in details["records"]:
        if rec["method"].startswith("MC") and rec["lhs_stderr"] > 0:
            rse = rec["lhs_stderr"] / _magnitude(rec["lhs"])
            need += rec["samples"] * (rse / target) ** 2
    return need


def mc_efficiency(details: dict | None, samples: float, wall_s: float) -> dict:
    """Monte Carlo throughput and the time to bring every row to 1 % RSE.

    ``samples`` counts every draw of the run (dual-region and lambda-scaling
    estimates included) and ``wall_s`` is the untraced wall time at the
    workload's own thread count.
    """
    rate = samples / wall_s
    need = mc_sample_need(details) if details else 0.0
    return {"mc_samples_per_s": (rate, "1/s"),
            "mc_sample_need": (need, "count"),
            "mc_s_to_1pct": (need / rate if need else 0.0, "s")}


def check_audit(out: Path, details: dict, rc, cases: int) -> tuple[list, dict]:
    """Problems with an audit's reports, and its status counts."""
    rows = _csv_rows(out / "audit.csv")
    statuses = [r["status"] for r in rows]
    counts = {s: statuses.count(s) for s in sorted(set(statuses))}
    problems = []
    if len(rows) != cases:
        problems.append(f"audit.csv has {len(rows)} rows, expected {cases}")
    if set(statuses) - set(STATUSES):
        problems.append(f"unknown statuses {sorted(set(statuses) - set(STATUSES))}")
    if details["summary"]["by_status"] != counts:
        problems.append("audit_details.json summary disagrees with audit.csv")
    if rc != (1 if "MISMATCH" in counts else 0):
        problems.append(f"exit code {rc} does not match the MISMATCH count")
    return problems, counts


def check_scaling(out: Path, rc, cfg: dict) -> tuple[list, dict]:
    rows = _csv_rows(out / "scaling.csv")
    slopes = json.loads((out / "scaling.json").read_text())["slopes"]
    n = cfg["params"]["n"]
    problems = []
    if len(rows) != n * len(cfg["R_grid"]) or len(slopes) != n:
        problems.append(f"{len(rows)} scaling rows and {len(slopes)} slopes "
                        f"for n = {n}")
    values = [float(v) for r in rows for v in r.values()] + \
        [float(v) for s in slopes for v in s.values()]
    if not all(math.isfinite(v) for v in values):
        problems.append("non-finite value in the scaling reports")
    off = sum(abs(s["f_slope"] - s["f_analytic"]) > max(3 * s["f_slope_se"], 0.05)
              for s in slopes)
    if rc != (1 if off else 0):
        problems.append(f"exit code {rc} does not match {off} off-analytic slope(s)")
    return problems, {"on_analytic": len(slopes) - off, "off_analytic": off}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# running children
# ---------------------------------------------------------------------------

class Runner:
    """Runs repetitions of one workload in fresh child processes."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        spec = WORKLOADS[workload]
        self.command = spec["command"]
        self.threads = spec["threads"]
        self.config = spec["config"]()
        self.config["seed"] = seed
        self.work = work
        self.deadline = deadline
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config))
        self.count = 0

    def child(self, threads: int, traced=False, setup_only=False) -> dict:
        self.count += 1
        rep = self.work / f"rep{self.count}"
        rep.mkdir()
        flags = ["--trace"] if traced else []
        flags += ["--setup-only"] if setup_only else []
        argv = [sys.executable, str(HERE / "child.py"), str(rep / "result.json"),
                *flags, "--", self.command, "--config", str(self.config_path),
                "--out", str(rep / "out")]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   CONETUBE_THREADS=str(threads))
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(rep / "stdout", "wb") as so, open(rep / "stderr", "wb") as se:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(argv, stdout=so, stderr=se, env=env,
                                      cwd=rep, timeout=timeout)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if not (rep / "result.json").exists():
            return {"problems": [f"child process ended ({code}) without a result"],
                    "setup_s": math.nan, "wall_s": math.nan, "digests": {}}
        res = json.loads((rep / "result.json").read_text())
        res["setup_s"] = res["ready"] - spawned
        res["problems"] = [] if setup_only else self._check(rep, res)
        return res

    def _check(self, rep: Path, res: dict) -> list:
        rc, out = res["rc"], rep / "out"
        stderr = (rep / "stderr").read_text(errors="replace")
        res["digests"] = {f: _sha256(out / f) for f in DATA_FILES[self.command]
                          if (out / f).exists()}
        if res["exception"]:
            return ["uncaught exception: " + res["exception"].splitlines()[-1]]
        errors = [ln for ln in stderr.splitlines() if ln.startswith("error:")]
        if errors:
            return errors
        if rc not in (0, 1):
            return [f"exit code {rc}"]
        if len(res["digests"]) != len(DATA_FILES[self.command]):
            return ["missing report files"]
        if self.command == "audit":
            res["details"] = json.loads((out / "audit_details.json").read_text())
            problems, res["statuses"] = check_audit(out, res["details"], rc,
                                                    len(self.config["cases"]))
        else:
            problems, res["statuses"] = check_scaling(out, rc, self.config)
        return problems


def mark_mismatches(results: list) -> None:
    """Fail every repetition whose report bytes differ from the first good one."""
    ref = next((r["digests"] for r in results if not r["problems"]), None)
    for r in results:
        if not r["problems"] and r["digests"] != ref:
            r["problems"].append("report bytes differ from the first repetition")


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else math.nan


def run_timed(runner: Runner, seconds: float) -> tuple[list, dict]:
    probes = [runner.child(runner.threads, setup_only=True)
              for _ in range(SETUP_PROBES)]
    reps = []
    stop = time.monotonic() + seconds
    while not reps or time.monotonic() < stop:
        reps.append(runner.child(runner.threads))
    mark_mismatches(reps)
    good = [r for r in reps if not r["problems"]] or reps
    values = {"setup_s": [r["setup_s"] for r in probes + reps],
              "wall_s": [r["wall_s"] for r in good],
              "peak_rss_mb": [r.get("maxrss_mb", math.nan) for r in good]}
    return reps, {k: (_median(values[k]), unit) for k, unit in E2E_UNITS.items()}


def run_traced(runner: Runner) -> tuple[list, dict]:
    ops = []
    if runner.threads > 1:
        ops.append(runner.child(runner.threads))
    plain = runner.child(1)
    traced = runner.child(1, traced=True)
    ops += [plain, traced]
    mark_mismatches(ops)
    metrics = {k: tuple(v) for k, v in traced.get("layers", {}).items()}
    metrics["trace_overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    samples = metrics.get("oracle.mc.samples", (0.0,))[0]
    metrics.update(mc_efficiency(ops[0].get("details"), samples, ops[0]["wall_s"]))
    return ops, metrics


# ---------------------------------------------------------------------------
# environment record and entry point
# ---------------------------------------------------------------------------

def _git_sha():
    """HEAD of the repository at ROOT; None outside a git checkout of it."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help=f"measuring time, above 0 and at most {MAX_SECONDS:g}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS:g}")
    if not (ROOT / "src" / "conetube" / "cli.py").is_file():
        print(f"error: no conetube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    seed = WORKLOADS[args.workload]["seed"] if args.seed is None else args.seed

    started = time.monotonic()
    (ROOT / ".perfbench-work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-work"))
    try:
        runner = Runner(args.workload, seed, work,
                        started + args.seconds + REP_ALLOWANCE_S)
        if args.trace:
            ops, metrics = run_traced(runner)
        else:
            ops, metrics = run_timed(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    failed = sum(bool(r["problems"]) for r in ops)
    versions = next((r["versions"] for r in ops if "versions" in r), {})
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        "CONETUBE_THREADS": runner.threads, "git_sha": _git_sha(),
        "src_sha256": _src_digest(), **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "digests": ops[0].get("digests", {}),
        "statuses": ops[0].get("statuses", {}),
        "operations": [{"wall_s": r["wall_s"], "setup_s": r["setup_s"],
                        "rc": r.get("rc"), "problems": r["problems"]}
                       for r in ops],
        "trace_missing": next((r["trace_missing"] for r in ops
                               if "trace_missing" in r), []),
    }
    if args.trace:
        record["trace_overhead_s"] = metrics["trace_overhead_s"][0]
    print(json.dumps({"perfbench": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
