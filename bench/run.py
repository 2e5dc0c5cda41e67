"""Benchmark of the isomin command line: seeded job lists, closed loop.

    python3 bench/run.py --workload mesh|inspect|lift --seed N \
        --seconds S --trace 0|1 [--results-dir DIR]

Run from the root of a source checkout (the directory holding src/).
One caller runs the workload's job list over and over, one job at a
time, each in a fresh `python3` process that imports isomin.cli from
src/ and calls main(argv), as a user of the CLI would.  Every output is
checked against a reference computed without isomin, and must be byte
for byte the same in every pass.

With --trace 0 the run prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object:
    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
The full record of the run (every job, metadata, function profile) goes
to DIR/<workload>-seed<N>-trace<T>.json, by default under
.bench_work/results; bench/compare.py compares two such directories.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SUBCOMMANDS = ("gen", "analyze", "singular", "reconstruct", "embed")
CLI_EXIT_CODES = (0, 2, 3, 4, 5)  # the exit codes isomin documents
RUN_LIMIT_S = 170.0               # hard stop for one run, jobs included

END_TO_END = (("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("pass_frac", "ratio"))
PRINTED_ONLY = tuple((f"{c}_s", "s") for c in SUBCOMMANDS) + (("fail_frac", "ratio"),)


class Run:
    """One benchmark run: repeated passes over one workload's job list."""

    def __init__(self, root: Path, workload: str, seed: int, trace: bool):
        self.root = root
        self.src = root / "src"
        self.jobs = workloads.build(workload, seed)
        self.trace = trace
        self.work = root / ".bench_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.t0 = time.perf_counter()
        self.records: list[dict] = []
        self.passes: list[dict] = []
        self.first: dict[str, tuple[str, str]] = {}  # name -> (digest, failure)
        self.env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}

    def run_job(self, job: dict, pass_no: int, traced: bool) -> dict:
        name = job["name"]
        base = self.work / name
        for out in job["outputs"]:
            (self.work / out).unlink(missing_ok=True)
        timing = base.with_suffix(".timing.json")
        timing.unlink(missing_ok=True)
        job_id = f"{name}.pass{pass_no}"
        trace_out = self.work / f"{job_id}.trace.json" if traced else None
        cmd = [sys.executable, str(BENCH / "job.py"), str(self.src), str(timing),
               str(trace_out) if traced else "-", job_id, "--", *job["argv"]]
        budget = max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.t0))
        t_spawn = time.perf_counter()
        with open(base.with_suffix(".stdout"), "wb") as out, \
                open(base.with_suffix(".stderr"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work,
                                    env=self.env)
            # wait(timeout=...) polls in steps of up to 50 ms, which would
            # blur every exit time; a blocking wait plus a watchdog does not
            watchdog = threading.Timer(budget, proc.kill)
            watchdog.start()
            try:
                rc = proc.wait()
            finally:
                watchdog.cancel()
        t_exit = time.perf_counter()
        rec = {"name": name, "cmd": job["cmd"], "pass": pass_no, "traced": traced,
               "rc": rc, "wall_s": t_exit - t_spawn}
        if timing.exists():
            tm = json.loads(timing.read_text())
            rec.update(setup_s=tm["t_imported"] - t_spawn,
                       main_s=tm["t_main1"] - tm["t_main0"], rss_kb=tm["rss_kb"])
        stdout = base.with_suffix(".stdout").read_bytes()
        files = {o: (self.work / o).read_bytes() for o in job["outputs"]
                 if (self.work / o).exists()}
        rec["bytes"] = len(stdout) + sum(len(b) for b in files.values())
        digest = hashlib.sha256(stdout)
        for o in sorted(files):
            digest.update(o.encode() + b"\0" + files[o])
        rec["failure"], rec["incorrect"] = self._judge(job, rc, rec, digest.hexdigest(),
                                                       stdout, files, base)
        if traced and trace_out.exists():
            rec["summary"] = json.loads(trace_out.read_text())
        return rec

    def _judge(self, job, rc, rec, digest, stdout, files, base):
        """(failure reason or "", whether the output was wrong)."""
        if rc not in CLI_EXIT_CODES or "main_s" not in rec:
            tail = base.with_suffix(".stderr").read_text(errors="replace").strip()
            return f"crashed (exit {rc}): {tail[-300:]}", True
        if job["name"] in self.first:
            first, failure = self.first[job["name"]]
            if digest != first:
                return "output bytes differ from the first pass", True
            return failure, False
        if rc != job["rc"]:
            tail = base.with_suffix(".stderr").read_text(errors="replace").strip()
            failure, wrong = f"exit {rc}, want {job['rc']}: {tail[-300:]}", False
        else:
            try:
                checks.check(job, stdout, files)
                failure, wrong = "", False
            except (checks.CheckError, KeyError, IndexError, TypeError,
                    ValueError) as err:
                failure, wrong = f"{type(err).__name__}: {err}", True
        self.first[job["name"]] = (digest, failure)
        return failure, wrong

    def run_pass(self, traced: bool) -> None:
        t = time.perf_counter()
        recs = [self.run_job(job, len(self.passes), traced) for job in self.jobs]
        self.records += recs
        self.passes.append({"traced": traced,
                            "pass_s": sum(r["wall_s"] for r in recs),
                            "elapsed_s": time.perf_counter() - t})

    def loop(self, seconds: float) -> None:
        """Passes until the next one would end after `seconds` (at least two).

        With tracing, passes alternate untraced / traced and the run
        stops after a traced one.
        """
        step = 2 if self.trace else 1
        while True:
            for k in range(step):
                self.run_pass(traced=bool(k))
            elapsed = time.perf_counter() - self.t0
            recent = statistics.median(p["elapsed_s"] for p in self.passes[-step:])
            if len(self.passes) >= 2 and elapsed + step * recent > seconds:
                return
            if elapsed + step * recent > RUN_LIMIT_S - 10:
                return


def stats(values: list[float]) -> dict:
    vals = sorted(values)
    if len(vals) >= 2 and all(v != float("inf") for v in vals):
        q1, _, q3 = statistics.quantiles(vals, n=4)
    else:  # nearest rank, safe with infinite samples
        q1, q3 = vals[(len(vals) - 1) // 4], vals[(3 * (len(vals) - 1)) // 4]
    return {"value": statistics.median(vals), "n": len(vals), "q1": q1, "q3": q3}


def pass_estimate(run: Run, traced: bool) -> float:
    """Wall time of one pass, robust to a slow job in any single pass:
    the sum over the job list of each job's median wall time."""
    slots: dict[str, list[float]] = {}
    for r in run.records:
        if r["traced"] == traced:
            slots.setdefault(r["name"], []).append(r["wall_s"])
    return sum(statistics.median(v) for v in slots.values())


def end_to_end(run: Run) -> dict:
    recs = [r for r in run.records if not r["traced"]]
    out = {
        "pass_s": dict(stats([p["pass_s"] for p in run.passes if not p["traced"]]),
                       value=pass_estimate(run, traced=False)),
        "setup_s": stats([r["setup_s"] for r in recs if "setup_s" in r]),
    }
    rss = [r["rss_kb"] / 1024.0 for r in recs if "rss_kb" in r]
    out["peak_rss_mb"] = {"value": max(rss), "n": len(rss)}
    failed = sum(1 for r in recs if r["failure"])
    out["pass_frac"] = {"value": 1.0 - failed / len(recs), "n": len(recs)}
    out["fail_frac"] = {"value": failed / len(recs), "n": len(recs)}
    for cmd in SUBCOMMANDS:
        times = [float("inf") if r["failure"] else r["main_s"]
                 for r in recs if r["cmd"] == cmd]
        if times:
            out[f"{cmd}_s"] = stats(times)
    return out


def per_layer(run: Run) -> tuple[dict, dict]:
    per_pass, profile = [], None
    for k, p in enumerate(run.passes):
        if not p["traced"]:
            continue
        recs = [r for r in run.records if r["pass"] == k]
        total = None
        for r in recs:
            total = tracing.merge(total, r.get("summary", {}))
        per_pass.append(tracing.layer_metrics(total or {}, sum(r["bytes"] for r in recs)))
        profile = profile or (total or {}).get("fn")
    out = {name: stats([m[name] for m in per_pass]) for name, _ in tracing.PER_LAYER}
    out["trace.overhead"] = {"value": pass_estimate(run, True) / pass_estimate(run, False),
                             "n": len(per_pass)}
    return out, profile or {}


def reference_loop() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not isomin."""
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def run_metadata(root: Path) -> dict:
    rev = "unknown"
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    lines = sum(len(p.read_text().splitlines())
                for p in sorted((root / "src" / "isomin").glob("*.py")))
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {"git_rev": rev, "src_lines": lines, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", default=None,
                    help="where the full run record goes "
                         "(default .bench_work/results)")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "isomin" / "cli.py").is_file():
        sys.stderr.write(f"bench: no src/isomin/cli.py under {root}; "
                         "run from the root of an isomin checkout\n")
        return 2

    meta = run_metadata(root)
    ref_before = reference_loop()
    run = Run(root, args.workload, args.seed, bool(args.trace))
    run.loop(args.seconds)
    meta["ref_loop_s"] = statistics.median([ref_before, reference_loop()])
    meta["run_wall_s"] = time.perf_counter() - run.t0

    if args.trace:
        metrics, profile = per_layer(run)
        units = dict(tracing.PER_LAYER, **{"trace.overhead": "ratio"})
        reported = list(units)
    else:
        metrics, profile = end_to_end(run), {}
        units = dict(END_TO_END + PRINTED_ONLY)
        reported = [name for name, _ in END_TO_END]
    for name, m in metrics.items():
        m["unit"] = units[name]

    attempted = len(run.records)
    failed = sum(1 for r in run.records if r["failure"])
    correct = not any(r["incorrect"] for r in run.records)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "metrics": metrics,
              "reported": reported, "passes": run.passes,
              "jobs": [{k: v for k, v in r.items() if k != "summary"} for r in run.records],
              "argv": {j["name"]: j["argv"] for j in run.jobs}, "profile": profile,
              "correct": correct, "attempted": attempted, "failed": failed}
    out_dir = Path(args.results_dir) if args.results_dir else root / ".bench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"isomin bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run.passes)} jobs={attempted} rev={meta['git_rev'][:12]} "
          f"src_lines={meta['src_lines']} nproc={meta['nproc']} python={meta['python']} "
          f"numpy={meta['numpy']} ref_loop_s={meta['ref_loop_s']:.4f}")
    for name, m in metrics.items():
        spread = f"  q1={m['q1']:.6g} q3={m['q3']:.6g}" if "q1" in m else ""
        print(f"  {name:30s} {m['value']:.6g} {m['unit']}  (n={m['n']}){spread}")
    for r in run.records:
        if r["failure"]:
            print(f"  FAILED pass {r['pass']} {r['name']}: {r['failure'][:200]}")
    print(f"  record: {out_file.relative_to(root) if out_file.is_relative_to(root) else out_file}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name]["value"], "unit": units[name]}
                          for name in reported}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
