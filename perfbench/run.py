"""Benchmark of the threespheres verifier: end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src``):

    python3 perfbench/run.py --workload sweeps --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Each pass runs in a fresh process (``child.py``); a run repeats passes for
``--seconds`` and reports medians.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics.  Every run checks the outputs (see README.md) and exits
non-zero if a check fails.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Work files go to ``.bench_build/perfbench`` in the checkout.
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
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT_UNITS = ("count", "Gflop", "B")
MIN_PASSES = 3
MIN_TRACED = 2
PASS_TIMEOUT = 150.0
PASS_BUDGET = 100.0


class PassFailed(Exception):
    """A child process crashed or timed out: no result can be reported."""


def load_spec(root: str) -> tuple:
    """Metric names and units, end to end and per layer, from BENCHMARK.json."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float,
                 trace: bool):
        self.root = root
        self.end_to_end, self.per_layer = load_spec(root)
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.threads = len(os.sched_getaffinity(0))
        self.work = os.path.join(root, ".bench_build", "perfbench",
                                 f"{workload}-s{seed}-t{int(trace)}")
        self.problems: list = []
        self.passes: list = []
        self.digest = None

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        env["THREESPHERES_THREADS"] = str(threads)
        return env

    def child(self, mode: str, pass_dir: str, threads: int,
              extra=()) -> dict:
        os.makedirs(pass_dir, exist_ok=True)
        spawn = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--dir", pass_dir, "--spawn", repr(spawn), *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env(threads),
                                  capture_output=True, text=True,
                                  timeout=PASS_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise PassFailed(f"{mode} in {pass_dir} exceeded {PASS_TIMEOUT}s")
        if proc.returncode != 0:
            raise PassFailed(f"{mode} in {pass_dir} exited with "
                             f"{proc.returncode}:\n{proc.stderr[-4000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # passes ------------------------------------------------------------

    def one_pass(self, index: int, traced: bool, threads: int) -> dict:
        pass_dir = os.path.join(self.work, f"pass{index}")
        res = self.child("pass", pass_dir, threads,
                         ["--trace"] if traced else [])
        res["traced"] = traced
        res["dir"] = pass_dir
        res.update(self.check_pass(pass_dir, res))
        if self.digest is None:
            self.digest = res["digest"]
        elif res["digest"] != self.digest:
            res["problems"].append("report bytes differ from the first pass "
                                   "of the same seed")
        return res

    def check_pass(self, pass_dir: str, res: dict) -> dict:
        """Exit code, report digest, row counts per check, failed rows.

        Sweep parts are compared by their CSV, which the package promises to
        keep byte-identical; ``api_scalar`` by the report JSON the child
        wrote.
        """
        problems = []
        if res["exit_code"] != 0:
            problems.append(f"verify exited with {res['exit_code']}")
        digest = hashlib.sha256()
        n_rows = failed = csv_bytes = json_bytes = 0
        for part, (csv_path, json_path) in report_paths(
                self.workload, pass_dir).items():
            with open(csv_path or json_path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
            with open(json_path, encoding="utf-8") as fh:
                rows = json.load(fh)
            counts: dict = {}
            for row in rows:
                counts[row["name"]] = counts.get(row["name"], 0) + 1
            part_failed = sum(not row["pass"] for row in rows)
            if part_failed:
                problems.append(f"{part}: {part_failed} rows failed their "
                                "check")
            expected = wl.expected_counts(part)
            if counts != expected:
                problems.append(f"{part}: row counts {counts} != expected "
                                f"{expected}")
            n_rows += len(rows)
            failed += part_failed
            if csv_path:
                csv_bytes += os.path.getsize(csv_path)
                json_bytes += os.path.getsize(json_path)
        return {"rows": n_rows, "rows_failed": failed, "problems": problems,
                "digest": digest.hexdigest(), "csv_bytes": csv_bytes,
                "json_bytes": json_bytes}

    def run_passes(self) -> None:
        """Passes until ``seconds`` are used, at least MIN_PASSES untraced
        (MIN_TRACED of each kind when tracing); past PASS_BUDGET seconds,
        stop once there is one pass of each kind."""
        need_plain = MIN_TRACED if self.trace else MIN_PASSES
        need_traced = MIN_TRACED if self.trace else 0
        start = time.monotonic()
        while True:
            n_traced = sum(p["traced"] for p in self.passes)
            n_plain = len(self.passes) - n_traced
            due = (time.monotonic() - start
                   + (self.passes[-1]["elapsed"] if self.passes else 0.0))
            if n_plain >= need_plain and n_traced >= need_traced \
                    and due > self.seconds:
                break
            if n_plain >= 1 and n_traced >= min(need_traced, 1) \
                    and due > PASS_BUDGET:
                break
            traced = self.trace and len(self.passes) % 2 == 1
            t0 = time.monotonic()
            res = self.one_pass(len(self.passes), traced, self.threads)
            res["elapsed"] = time.monotonic() - t0
            self.passes.append(res)

    # run-level checks --------------------------------------------------

    def check_threads(self) -> dict:
        """A one-thread pass must write the same bytes as the nproc pass.

        It runs in traced runs only: it takes longer than a pass, and the
        time limit of all runs together is better spent measuring."""
        if self.workload != "sweeps" or not self.trace:
            return {}
        pass_dir = os.path.join(self.work, "threads1")
        res = self.child("pass", pass_dir, 1)
        checked = self.check_pass(pass_dir, res)
        same = checked["digest"] == self.digest
        if not same:
            self.problems.append("CSV with THREESPHERES_THREADS=1 differs "
                                 f"from THREESPHERES_THREADS={self.threads}")
        self.problems.extend(f"one-thread pass: {p}"
                             for p in checked["problems"])
        return {"wall_s": res["wall_s"], "cpu_s": res["cpu_s"],
                "csv_identical": same}

    def check_oracle(self) -> dict:
        if self.workload != "sweeps":
            return {}
        res = self.child("oracle", self.passes[0]["dir"], self.threads)
        for m in res["mismatches"]:
            self.problems.append(f"oracle mismatch: {m}")
        if res["checked"] == 0:
            self.problems.append("oracle checked no rows")
        return res

    def check_reference(self) -> dict:
        """At the default seed, compare with the rows captured at the commit
        that introduced this benchmark."""
        if self.seed != wl.DEFAULT_SEED:
            return {}
        compared = mismatches = 0
        for part, (_csv, json_path) in report_paths(
                self.workload, self.passes[0]["dir"]).items():
            path = os.path.join(HERE, "reference", f"{part}.json")
            with open(path, encoding="utf-8") as fh:
                ref = json.load(fh)
            with open(json_path, encoding="utf-8") as fh:
                rows = json.load(fh)
            problems = compare_reference(rows, ref)
            self.problems.extend(f"{part}: {p}" for p in problems)
            compared += len(ref["rows"])
            mismatches += len(problems)
        return {"rows_compared": compared, "mismatches": mismatches}

    def check_counts(self) -> None:
        """Exact-count self-test: every traced pass counts the same work."""
        traced = [p["layers"] for p in self.passes if p["traced"]]
        for layers in traced[1:]:
            for name, value in layers.items():
                if (self.per_layer.get(name) in EXACT_UNITS
                        and value != traced[0][name]):
                    self.problems.append(
                        f"count {name} differs between traced passes: "
                        f"{traced[0][name]} vs {value}")

    # result ------------------------------------------------------------

    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        if self.workload == "sweeps":
            for part in wl.SWEEP_PARTS:
                with open(os.path.join(self.work, f"config-{part}.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(wl.sweep_config(part, self.seed), fh, indent=1)
        self.run_passes()
        single = self.check_threads()
        oracle = self.check_oracle()
        reference = self.check_reference()
        if self.trace:
            self.check_counts()
        if self.problems:
            # run-level checks read reports that every pass wrote byte for
            # byte, so their failure fails every pass
            for p in self.passes:
                p["problems"].append("run-level output check failed")
        for p in self.passes:
            self.problems.extend(p["problems"])
        valid = [p for p in self.passes if not p["problems"]] or self.passes
        plain = [p for p in valid if not p["traced"]]
        traced = [p for p in valid if p["traced"]]

        summary = {}
        for name in self.end_to_end:
            q1, med, q3 = quartiles([p[name] for p in plain])
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "n": len(plain)}
        # informational: how the sweeps wall time splits between the parts
        part_wall = {part: statistics.median(p["part_wall_s"][part]
                                             for p in plain)
                     for part in plain[0]["part_wall_s"]}
        bases = {}
        if self.trace:
            metrics, bases = self.layer_medians(plain, traced)
        else:
            metrics = {name: {"value": summary[name]["median"], "unit": unit}
                       for name, unit in self.end_to_end.items()}
        attempted = sum(p["rows"] for p in self.passes)
        failed = sum(p["rows"] if p["problems"] else p["rows_failed"]
                     for p in self.passes)
        return {
            "workload": self.workload, "seed": self.seed,
            "trace": int(self.trace),
            "machine": dict(self.passes[0]["machine"], nproc=self.threads,
                            cpu=cpu_model(),
                            threespheres_threads=self.threads),
            "summary": summary, "units": self.end_to_end, "bases": bases,
            "rows_per_pass": self.passes[0]["rows"], "part_wall_s": part_wall,
            "single_thread": single, "oracle": oracle, "reference": reference,
            "passes": [{k: p[k] for k in ("setup_s", "wall_s", "cpu_s",
                                          "peak_rss_mb", "rows", "rows_failed",
                                          "traced")} for p in self.passes],
            "problems": self.problems,
            "result": {"correct": not self.problems, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
        }

    def layer_medians(self, plain: list, traced: list) -> tuple:
        """Per-layer metrics (counts from the first traced pass, since they
        repeat exactly; times as medians) and the base of every ratio."""
        first = dict(traced[0]["layers"],
                     **{"verify.rows_failed": traced[0]["rows_failed"],
                        "cli.csv_bytes": traced[0]["csv_bytes"],
                        "cli.json_bytes": traced[0]["json_bytes"]})
        untraced = statistics.median(p["wall_s"] for p in plain)
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        first["trace.overhead_ratio"] = traced_wall / untraced - 1.0
        metrics = {}
        for name, unit in self.per_layer.items():
            value = first[name]
            if unit not in EXACT_UNITS and name in traced[0]["layers"]:
                value = statistics.median(p["layers"][name] for p in traced)
            metrics[name] = {"value": value, "unit": unit}
        bases = dict(traced[0]["layers"]["bases"],
                     **{"trace.overhead_ratio": [traced_wall - untraced,
                                                 untraced]})
        return metrics, bases


def report_paths(workload: str, pass_dir: str) -> dict:
    """part -> (CSV path or None, JSON path) of the reports of one pass."""
    if workload == "sweeps":
        return {part: (os.path.join(pass_dir, part + ".csv"),
                       os.path.join(pass_dir, part + ".json"))
                for part in wl.SWEEP_PARTS}
    return {workload: (None, os.path.join(pass_dir, "report.json"))}


def compare_reference(rows: list, ref: dict) -> list:
    """Sampled rows and per-check sums against the captured reference.

    Deterministic rows agree to the check's relative tolerance, on a scale
    no smaller than the check's own floor (``workloads.scale_floor``); Monte
    Carlo rows (nonzero ``stderr_budget``) within the larger of the two
    4-sigma budgets.  A sum over k rows has k times the floor.
    """
    problems = []
    if len(rows) != ref["row_count"]:
        return [f"reference has {ref['row_count']} rows, report {len(rows)}"]

    def close(name, got, want, budget, floor):
        slack = wl.tolerance(name) * max(abs(got), abs(want), floor) + budget
        return abs(got - want) <= slack

    for index, (name, lhs, rhs, budget) in ref["rows"].items():
        row = rows[int(index)]
        slack = max(budget, row["stderr_budget"])
        floor = wl.scale_floor(name)
        if row["name"] != name or not (
                close(name, row["lhs"], lhs, slack, floor)
                and close(name, row["rhs"], rhs, slack, floor)):
            problems.append(f"row {index} differs from the reference: "
                            f"{row['name']} lhs={row['lhs']!r} "
                            f"rhs={row['rhs']!r}; reference {name} "
                            f"lhs={lhs!r} rhs={rhs!r}")
    sums = reference_sums(rows)
    counts = wl.expected_counts(ref["workload"])
    for name, (lhs, rhs, budget) in ref["sums"].items():
        got = sums.get(name, (0.0, 0.0, 0.0))
        slack = max(budget, got[2])
        floor = wl.scale_floor(name) * counts[name]
        if not (close(name, got[0], lhs, slack, floor)
                and close(name, got[1], rhs, slack, floor)):
            problems.append(f"sum over {name} rows differs from the "
                            f"reference: {got[:2]} vs {[lhs, rhs]}")
    return problems


def reference_sums(rows: list) -> dict:
    sums: dict = {}
    for row in rows:
        s = sums.setdefault(row["name"], [0.0, 0.0, 0.0])
        s[0] += row["lhs"]
        s[1] += row["rhs"]
        s[2] += row["stderr_budget"]
    return sums


def print_report(out: dict) -> None:
    res = out["result"]
    print(f"== {out['workload']}  seed={out['seed']}  trace={out['trace']}  "
          f"passes={len(out['passes'])}  rows/pass={out['rows_per_pass']}")
    if out["trace"]:
        for name, m in res["metrics"].items():
            print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    else:
        for name, s in out["summary"].items():
            print(f"  {name:12s} {s['median']:.4f} {out['units'][name]}  "
                  f"(q1 {s['q1']:.4f}, q3 {s['q3']:.4f}, n={s['n']})")
    for name, (num, den) in out["bases"].items():
        print(f"  {name} = {num:.6g} / {den:.6g}")
    bad = sum(p["rows_failed"] for p in out["passes"])
    print(f"  row_fail_ratio {bad / res['attempted']:.6g} ratio  "
          f"({bad} failed / {res['attempted']} rows)")
    if out["part_wall_s"]:
        print("  part wall_s medians (informational): " + ", ".join(
            f"{part} {v:.4f} s" for part, v in out["part_wall_s"].items()))
    if out["single_thread"]:
        st = out["single_thread"]
        print(f"  one-thread pass: wall_s {st['wall_s']:.4f} s, cpu_s "
              f"{st['cpu_s']:.4f} s (informational); CSV identical: "
              f"{st['csv_identical']}")
    print("  detail " + json.dumps({k: out[k] for k in (
        "seed", "machine", "summary", "part_wall_s", "single_thread",
        "oracle", "reference", "passes", "problems")}, sort_keys=True))
    for p in out["problems"][:20]:
        print(f"  CHECK FAILED: {p}")
    if len(out["problems"]) > 20:
        print(f"  ... {len(out['problems']) - 20} more in result.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "threespheres",
                                       "__init__.py")):
        print("error: run from the root of a threespheres checkout "
              "(src/threespheres not found)", file=sys.stderr)
        return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        run = Run(root, name, args.seed, args.seconds, bool(args.trace))
        try:
            out = run.execute()
        except PassFailed as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        with open(os.path.join(run.work, "result.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
        print_report(out)
        print(json.dumps(out["result"]), flush=True)
        if not out["result"]["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
