#!/usr/bin/env python3
"""End-to-end and per-module benchmark of the ``mvrep`` command line.

Run from the repository root:

    python3 perfbench/run.py --workload room1m --seed 1 --seconds 10 --trace 0

``--trace 0`` runs whole rounds of the workload's ``mvrep`` calls, each in a
fresh process, until ``--seconds`` have passed (at least one round), checks
every output, and reports the end-to-end metrics as medians over rounds.
``--trace 1`` runs one untraced and one traced round in this process through
``mvrep.cli.main`` and reports the per-module metrics and the tracing
overhead.  The last line of standard output is the result as JSON.  The
workload inputs are fixed; ``--seed`` picks the kept perspectives that the
reference HPR re-checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from inputs import ensure_inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
HPR_SAMPLES = 2  # kept perspectives per generate call re-checked by the reference HPR
RUN_DEADLINE_S = 170.0

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import mvrep, mvrep.cli
t1 = time.perf_counter()
from mvrep.io import parse_ply, parse_s3dis_room
points = 0
for path, labelled in json.loads(sys.argv[1]):
    if path.endswith(".ply"):
        cloud = parse_ply(path)
    else:
        cloud = parse_s3dis_room(path, with_labels=labelled)
    points += len(cloud)
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "points": points,
                  "module": mvrep.__file__}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its own resource usage; kill it after ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def run_process(cmd: list[str], env: dict, log_base: Path, timeout: float) -> dict:
    with open(f"{log_base}.out", "w+") as out, open(f"{log_base}.err", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        code, usage = _wait(proc, timeout)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    return {
        "code": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "stdout": stdout, "stderr": stderr[-2000:],
    }


def run_in_process(argv: list[str]) -> dict:
    import mvrep.cli

    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = mvrep.cli.main(argv)  # looked up per call, so a traced main is used
    return {"code": code, "wall_s": time.perf_counter() - start, "stdout": buf.getvalue()}


class Bench:
    def __init__(self, args, repo: Path) -> None:
        self.args = args
        self.repo = repo
        self.workload = args.workload
        self.work = HERE / ".work"
        self.run_dir = self.work / f"run-{os.getpid()}"
        self.cores = len(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "MVREP_CONFIG")}
        self.env["PYTHONPATH"] = str(repo / "src")
        self.started = time.perf_counter()
        self.sample_rng = random.Random(args.seed)
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.digests: list[str] = []

    # -- set-up ------------------------------------------------------------

    def prepare(self) -> None:
        self.inp, self.rooms, self.input_digests = ensure_inputs(self.workload, self.repo, self.work)
        self.tables = {room.name: room.table(self.inp) for room in self.rooms}
        self.points = sum(room.points for room in self.rooms)
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)

    def setup_once(self, i: int) -> dict:
        """A fresh process imports mvrep.cli and parses every input."""
        spec = json.dumps([(str(self.inp / r.path), r.labelled) for r in self.rooms])
        rec = run_process([sys.executable, "-c", SETUP_CODE, spec], self.env,
                          self.run_dir / f"setup{i}", self.remaining())
        if rec["code"] != 0:
            raise BenchError(f"set-up process failed: {rec['stderr']}")
        info = json.loads(rec["stdout"].strip().splitlines()[-1])
        if not Path(info["module"]).resolve().is_relative_to(self.repo / "src"):
            raise BenchError(f"mvrep imported from {info['module']}, not from {self.repo / 'src'}")
        if info["points"] != self.points:
            raise BenchError(f"set-up parsed {info['points']} points, expected {self.points}")
        return {"setup_s": rec["wall_s"], "import_s": info["import_s"], "parse_s": info["parse_s"]}

    def remaining(self) -> float:
        return max(1.0, RUN_DEADLINE_S - (time.perf_counter() - self.started))

    # -- one round ---------------------------------------------------------

    def round(self, index: int, in_process: bool) -> list[dict]:
        out = self.run_dir / f"round{index}"
        out.mkdir()
        calls = WORKLOADS[self.workload](self.inp, self.rooms, out, self.cores)
        records = []
        for i, call in enumerate(calls):
            if in_process:
                rec = run_in_process(call.argv)
            else:
                rec = run_process([sys.executable, "-m", "mvrep.cli", *call.argv], self.env,
                                  self.run_dir / f"round{index}-call{i}", self.remaining())
            rec["argv"] = call.argv
            records.append(rec)
        self.attempted += len(calls)
        self.failed += sum(1 for r in records if r["code"] != 0)
        self.check_round(calls, records, out)
        shutil.rmtree(out)
        return records

    def check_round(self, calls, records, out: Path) -> None:
        log = checks.CheckLog()
        for call, rec in zip(calls, records):
            if rec["code"] != 0:
                continue  # a failed call is counted as failed; its outputs are not checked
            table = self.tables[call.room.name] if call.room else None
            if call.kind == "generate":
                checks.check_generate(call, table, log, self.sample_rng, HPR_SAMPLES)
            elif call.kind == "critical":
                checks.check_critical(call, table, log)
            elif call.kind == "hpr":
                checks.check_hpr(call, table, rec["stdout"], log)
            elif call.kind == "fuse":
                checks.check_fuse(call, log)
            elif call.kind == "stats":
                checks.check_stats(call, rec["stdout"], log)
        digest = output_digest(out, self.inp, records)
        log.check(not self.digests or digest == self.digests[0], "same output digest in every round")
        log.check(self.remember_digest(digest), "same output digest as earlier runs", digest)
        self.digests.append(digest)
        self.attempted += log.attempted
        self.failed += len(log.failures)
        self.check_failures += log.failures

    def remember_digest(self, digest: str) -> bool:
        """Output digests are kept per (workload, calls, source, inputs) across runs."""
        path = self.work / "digests.json"
        known = json.loads(path.read_text()) if path.is_file() else {}
        calls = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:16]
        key = f"{self.workload}:{calls}:{source_digest(self.repo)}:{self.inp.name}"
        if known.setdefault(key, digest) != digest:
            return False
        tmp = path.with_name(f"digests.json.tmp{os.getpid()}")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return True

    # -- the two kinds of run ----------------------------------------------

    def end_to_end(self, setups: list[dict]) -> dict:
        rounds = []
        while True:
            start = time.perf_counter()
            records = self.round(len(rounds), in_process=False)
            rounds.append(records)
            spent = time.perf_counter() - start
            elapsed = time.perf_counter() - self.started
            if elapsed >= self.args.seconds or elapsed + spent > RUN_DEADLINE_S - 10:
                break
        per_round = [{
            "wall_s": sum(r["wall_s"] for r in recs),
            "cpu_s": sum(r["cpu_s"] for r in recs),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
        } for recs in rounds]
        wall = statistics.median(r["wall_s"] for r in per_round)
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "cpu_s": (statistics.median(r["cpu_s"] for r in per_round), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in per_round), "MB"),
            "points_per_s": (self.points / wall, "points/s"),
        }
        self.detail = {"rounds": per_round, "calls": [_brief(r) for recs in rounds for r in recs]}
        return metrics

    def traced(self, setups: list[dict]) -> dict:
        from tracing import Tracer, layer_metrics

        import mvrep.cli  # noqa: F401  imported before either round is timed

        os.environ.pop("MVREP_CONFIG", None)
        untraced = sum(r["wall_s"] for r in self.round(0, in_process=True))
        tracer = Tracer()
        tracer.install()
        try:
            traced = sum(r["wall_s"] for r in self.round(1, in_process=True))
        finally:
            tracer.uninstall()
        spans = tracer.export()
        metrics = layer_metrics(spans, tracer.missing_spans)
        metrics["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["trace.tracer_s"] = (sum(s["tracer_s"] for s in spans), "s")
        self.detail = {"untraced_round_s": untraced, "missing_spans": sorted(tracer.missing_spans)}
        trace_dir = self.work / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{self.workload}-s{self.args.seed}-{time.time_ns()}.json").write_text(
            json.dumps(spans))
        return metrics

    def run(self) -> dict:
        self.prepare()
        try:
            setups = [self.setup_once(i) for i in range(SETUP_REPEATS)]
            metrics = self.traced(setups) if self.args.trace else self.end_to_end(setups)
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)
        result = {
            "correct": not self.check_failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        self.record(result, setups)
        return result

    def record(self, result: dict, setups: list[dict]) -> None:
        import numpy
        import scipy

        doc = {
            "workload": self.workload, "seed": self.args.seed, "seconds": self.args.seconds,
            "trace": self.args.trace, "time_ns": time.time_ns(),
            "environment": {
                "visible_cores": sorted(os.sched_getaffinity(0)),
                "python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__, "commit": git_commit(self.repo),
                "source_digest": source_digest(self.repo),
            },
            "inputs": {"dir": self.inp.name, "points": self.points, "sha256": self.input_digests},
            "output_digest": self.digests[0] if self.digests else None,
            "setups": setups, "check_failures": self.check_failures,
            "result": result, **self.detail,
        }
        results = self.work / "results"
        results.mkdir(parents=True, exist_ok=True)
        name = f"{self.workload}-s{self.args.seed}-t{self.args.trace}-{doc['time_ns']}.json"
        (results / name).write_text(json.dumps(doc, indent=1))
        env = doc["environment"]
        print(f"perfbench {self.workload}: {len(env['visible_cores'])} cores, python {env['python']}, "
              f"numpy {env['numpy']}, scipy {env['scipy']}, commit {env['commit']}")
        print(f"inputs {self.inp.name}, output digest {doc['output_digest']}, results {results / name}")
        for failure in self.check_failures[:20]:
            print(f"CHECK FAILED: {failure}")
        for span in self.detail.get("missing_spans", ()):
            print(f"MISSING: span {span} could not be recorded; its metrics are left out")


def _brief(rec: dict) -> dict:
    return {k: rec[k] for k in ("argv", "code", "wall_s", "cpu_s", "peak_rss_mb")}


def output_digest(out: Path, inp: Path, records: list[dict]) -> str:
    """SHA-256 over every output file and the stats listing.

    Absolute input and output directories are replaced by placeholders in
    manifests and the fuse list, so the digest does not depend on where the
    checkout lives.
    """
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name.endswith("_manifest.json") or path.name == "train.txt":
            data = data.replace(str(out).encode(), b"<outputs>").replace(str(inp).encode(), b"<inputs>")
        h.update(path.relative_to(out).as_posix().encode() + b"\0" + hashlib.sha256(data).digest())
    for rec in records:
        if rec["argv"][0] == "stats":
            h.update(rec["stdout"].encode())
    return h.hexdigest()


def source_digest(repo: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((repo / "src").rglob("*.py")):
        h.update(path.relative_to(repo).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit(repo: Path) -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(repo), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != repo:
        return None  # not a git checkout of this repository
    return lines[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    repo = Path.cwd().resolve()
    if not (repo / "src" / "mvrep" / "cli.py").is_file():
        print(f"perfbench: {repo} has no src/mvrep; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(repo / "src"))
    try:
        result = Bench(args, repo).run()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
