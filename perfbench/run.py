"""The starsmm benchmark: three workloads, end-to-end timings, a traced layer breakdown.

Run from the root of a starsmm checkout (pure Python; nothing is built):

    python3 perfbench/run.py --workload figures --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Workloads (see perfbench/README.md for why each was chosen):
``figures``, ``dense-sweep`` and ``oracle``.  Steps run one after another,
each in a fresh child process, so at most one child runs next to the
benchmark.  ``--trace 0`` runs whole passes of the workload until another
pass would overrun ``--seconds`` (at least one) and reports the end-to-end
metrics; wall and CPU times are scaled to a reference speed (REF_SECONDS).  ``--trace 1`` runs one untraced and one traced pass plus the layer
probes and reports the per-layer metrics.  The last line of standard output
is one JSON object; the run's details go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
WORKLOADS = ("figures", "dense-sweep", "oracle")
SETUP_REPEATS = 9
STEP_TIMEOUT_S = 170.0
#: Time of reference_seconds() on a quiet 2-core Xeon VM.  wall_s and cpu_s
#: scale each child's times by REF_SECONDS / (the reference measured around
#: it), which takes out most of the drift of a shared host's CPU speed.
REF_SECONDS = 0.005
COMMAND_METRICS = {
    "alpha-sweep": "alpha_sweep_s", "tradeoff": "tradeoff_s", "bound": "bound_s",
    "tepai": "tepai_s", "verify": "verify_s",
}


@dataclass
class Outcome:
    name: str
    ok: bool
    detail: str
    wrong_output: bool = False  # a failed output check, not a failed exit


@dataclass
class Child:
    """One finished child process."""

    wall: float  # s
    cpu: float  # user+sys s
    rss_mb: float
    rc: int
    ref: float  # reference_seconds() around the child

    @property
    def scale(self) -> float:
        return REF_SECONDS / self.ref


@dataclass
class StepResult:
    step: workloads.Step
    child: Child
    outcomes: list[Outcome]
    rows: int = 0
    bytes: int = 0
    layers: dict | None = None
    oracle: dict | None = None


@dataclass
class PassResult:
    steps: list[StepResult] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(s.child.wall for s in self.steps)

    @property
    def ref_wall(self) -> float:
        return sum(s.child.wall * s.child.scale for s in self.steps)

    @property
    def outcomes(self) -> list[Outcome]:
        return [o for s in self.steps for o in s.outcomes]

    def cli_steps(self) -> list[StepResult]:
        return [s for s in self.steps if s.step.command != "oracle"]

    def command_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s in self.cli_steps():
            key = COMMAND_METRICS[s.step.command]
            out[key] = out.get(key, 0.0) + s.child.wall
        return out

    def rows_per_s(self) -> float:
        cli = self.cli_steps()
        return sum(s.rows for s in cli) / sum(s.child.wall for s in cli) if cli else 0.0

    def shots_per_s(self) -> float:
        cases = [c for s in self.steps if s.oracle for c in s.oracle["mc_all"]]
        seconds = sum(c["seconds"] for c in cases)
        return len(cases) * workloads.MC_SHOTS / seconds if seconds else 0.0


class Bench:
    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = root / ".perfbench" / "work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.python = sys.executable
        self.mc_seen: dict[str, list] = {}
        self._lib = None

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], log: Path) -> Child:
        """Run one child to completion; the benchmark process idles meanwhile."""
        ref = reference_seconds()
        with log.open("wb") as fh:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fh,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, 0.5 * (ref + reference_seconds()))

    def setup_seconds(self) -> float:
        """Median wall time of a fresh interpreter through ``import starsmm.cli``."""
        argv = [self.python, "-c", "import starsmm.cli"]
        log = self.work / "setup.log"
        self.spawn(argv, log)  # writes the bytecode cache, as any first use does
        runs = []
        for _ in range(SETUP_REPEATS):
            run = self.spawn(argv, log)
            if run.rc != 0:
                raise RuntimeError(f"import starsmm.cli failed: {log.read_text()[-500:]}")
            runs.append(run)
        return statistics.median(r.wall for r in runs)

    def library(self):
        """starsmm's smm and tmr in this process, for recomputing sampled rows."""
        if self._lib is None:
            sys.path.insert(0, str(self.root / "src"))
            from starsmm import smm, tmr
            self._lib = (smm, tmr)
        return self._lib

    # -- steps -------------------------------------------------------------

    def run_step(self, step: workloads.Step, pass_dir: Path, traced: bool) -> StepResult:
        out = pass_dir / step.name
        out.mkdir(parents=True)
        trace_json = out / "trace.json"
        if step.command == "oracle":
            result_json = pass_dir / f"{step.name}.json"
            argv = [self.python, str(CHILD), "oracle", str(self.seed), str(result_json)]
            if traced:
                argv.append(str(trace_json))
        else:
            args = [step.command, "--out", str(out), "--seed", str(self.seed)]
            if step.config is not None:
                args += ["--config", str(step.config)]
            argv = ([self.python, str(CHILD), "cli", str(trace_json), *args] if traced
                    else [self.python, "-m", "starsmm.cli", *args])
        log = pass_dir / f"{step.name}.log"
        child = self.spawn(argv, log)
        rc = child.rc
        result = StepResult(step, child, [])
        if step.command == "oracle":
            result.outcomes = self.check_oracle(step, rc, log, result_json, result)
        else:
            result.outcomes = [self.check_cli(step, rc, log, out)]
            files = [p for p in out.iterdir() if p.name != "trace.json"]
            result.rows = sum(len(p.read_text().splitlines()) - 1 for p in files if p.suffix == ".csv")
            result.bytes = sum(p.stat().st_size for p in files)
            if traced and trace_json.is_file():
                result.layers = json.loads(trace_json.read_text())
        return result

    def check_cli(self, step: workloads.Step, rc: int, log: Path, out: Path) -> Outcome:
        name = f"{step.command} {step.name}"
        if rc != 0:
            return Outcome(name, False, f"exit {rc}: {_last_line(log)}")
        try:
            if "reference" in step.expect:
                ok, detail = workloads.check_reference(out, REFERENCE / step.expect["reference"])
            elif step.command == "tepai":
                ok, detail = workloads.check_tepai_rows(out, step.expect["rows"])
            elif step.command == "verify":
                ok, detail = workloads.check_verify(out)
            else:
                smm, tmr = self.library()
                ok, detail = workloads.check_dense(out, step.expect["spec"], step.expect["rows"],
                                                   self.seed, smm, tmr)
        except Exception as exc:  # a broken output must not abort the run
            ok, detail = False, f"output check raised {exc!r}"
        return Outcome(name, ok, detail, wrong_output=not ok)

    def check_mc(self, name: str, estimates: list, pull: float) -> tuple[bool, str]:
        """Finite estimates, identical to every earlier run of the case in this benchmark run."""
        if not all(math.isfinite(v) for v in estimates):
            return False, f"non-finite estimate {estimates}"
        seen = self.mc_seen.setdefault(name, estimates)
        if seen != estimates:
            return False, f"not bit-reproducible: {estimates} != {seen}"
        return True, (f"P_L {estimates[0]:.6g} +- {estimates[1]:.3g} (pull {pull:+.2f} sigma), "
                      "reproduced bit-for-bit")

    def check_oracle(self, step, rc, log, result_json, result: StepResult) -> list[Outcome]:
        names = [f"monte_carlo {name}" for name, _, _ in workloads.MC_CASES] + ["enumeration grid"]
        if rc != 0 or not result_json.is_file():
            return [Outcome(n, False, f"exit {rc}: {_last_line(log)}") for n in names]
        try:
            data = json.loads(result_json.read_text())
            outcomes = []
            for name, _, _ in workloads.MC_CASES:
                ok, detail = self.check_mc(name, data["mc"][name]["estimates"], data["mc"][name]["pull"])
                if name == data["repeat"]["case"] and not data["repeat"]["same"]:
                    ok, detail = False, "second run in the same process differs"
                outcomes.append(Outcome(f"monte_carlo {name}", ok, detail, wrong_output=not ok))
            enum = data["enum"]
            ok = not enum["failures"]
            detail = (f"{enum['configs']} configs within 10 (sum qbar)^2 (worst gap/bound {enum['worst']:.3f})"
                      if ok else f"outside the bound: {enum['failures'][:3]}")
            outcomes.append(Outcome("enumeration grid", ok, detail, wrong_output=not ok))
            data["mc_all"] = list(data["mc"].values()) + [data["mc"][data["repeat"]["case"]]]
        except Exception as exc:  # a broken output must not abort the run
            return [Outcome(n, False, f"output check raised {exc!r}", wrong_output=True) for n in names]
        result.oracle = data
        result.layers = data.get("trace")
        return outcomes

    def run_pass(self, index: int, traced: bool) -> PassResult:
        pass_dir = self.work / f"pass{index}{'-traced' if traced else ''}"
        pass_dir.mkdir()
        steps = workloads.steps_for(self.workload, self.seed, self.root, pass_dir)
        result = PassResult([self.run_step(step, pass_dir, traced) for step in steps])
        for step_dir in pass_dir.iterdir():  # keep logs, drop bulky outputs
            if step_dir.is_dir():
                for csv in step_dir.glob("*.csv"):
                    csv.unlink()
        return result

    # -- layer probes (trace 1) -------------------------------------------

    def probe(self, mode: str, *extra: str) -> tuple[dict | None, Outcome]:
        out = self.work / f"{mode}.json"
        argv = [self.python, str(CHILD), mode, *extra, str(out)]
        if mode == "probe":
            argv.append(str(self.root))
        rc = self.spawn(argv, self.work / f"{mode}.log").rc
        if rc != 0 or not out.is_file():
            return None, Outcome(f"probe {mode}", False, f"exit {rc}: {_last_line(self.work / f'{mode}.log')}")
        data = json.loads(out.read_text())
        if "c1" in data and not math.isclose(data["c1"], workloads.C1_K7, rel_tol=1e-12):
            return data, Outcome(f"probe {mode}", False,
                                 f"calibrate_c1 gave {data['c1']!r}, expected {workloads.C1_K7!r}",
                                 wrong_output=True)
        return data, Outcome(f"probe {mode}", True, "ok")


def reference_seconds() -> float:
    """Best of 5 runs of a fixed pure-Python loop: the host's current speed."""
    best = math.inf
    for _ in range(5):
        start = perf_counter()
        acc = 0.0
        for i in range(40_000):
            acc += math.sin(i * 1e-3) ** 2
        best = min(best, perf_counter() - start)
    return best


def _last_line(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no output)"


def _sum_layers(steps: list[StepResult]) -> dict:
    total = {name: {"calls": 0, "self_s": 0.0, "import_s": 0.0} for name in tracer.LAYERS}
    for s in steps:
        for name, entry in (s.layers or {}).items():
            for key, value in entry.items():
                total[name][key] += value
    return total


def context(root: Path, args) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(bench: Bench, seconds: float) -> tuple[dict, list[PassResult], dict]:
    setup = bench.setup_seconds()
    passes: list[PassResult] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        passes.append(bench.run_pass(len(passes), traced=False))
        elapsed = perf_counter() - start
        if elapsed + (perf_counter() - pass_start) > seconds:
            break
    # each step counts with its best run over the passes, at reference speed:
    # on a shared host CPU speed wanders by 10-40%, from 0.1 s to minutes
    columns = list(zip(*(p.steps for p in passes)))  # one step's results over the passes
    best = PassResult([min(col, key=lambda s: s.child.wall * s.child.scale) for col in columns])
    metrics = {
        "setup_s": _metric(setup, "s"),
        "wall_s": _metric(best.ref_wall, "s"),
        "cpu_s": _metric(sum(min(s.child.cpu * s.child.scale for s in col) for col in columns), "s"),
        "peak_rss_mb": _metric(max(s.child.rss_mb for p in passes for s in p.steps), "MB"),
    }
    outcomes = [o for p in passes for o in p.outcomes]
    extra = {
        "passes": len(passes),
        "raw_wall_s": best.wall,
        "raw_cpu_s": sum(s.child.cpu for s in best.steps),
        "ref_ms": statistics.median(s.child.ref for p in passes for s in p.steps) * 1e3,
        "fail_ratio": sum(not o.ok for o in outcomes) / len(outcomes),
        "rows_per_s": best.rows_per_s(),
        "shots_per_s": max(p.shots_per_s() for p in passes),
        "command_s": best.command_seconds(),
    }
    return metrics, passes, extra


def run_traced(bench: Bench) -> tuple[dict, list[PassResult], list[Outcome]]:
    plain = bench.run_pass(0, traced=False)
    traced = bench.run_pass(1, traced=True)
    probe, probe_ok = bench.probe("probe", str(bench.seed))
    cold, cold_ok = bench.probe("cold")
    counts, counts_ok = bench.probe("counts")
    extra = [probe_ok, cold_ok, counts_ok]

    metrics: dict[str, dict] = {}
    for name, entry in _sum_layers(traced.steps).items():
        metrics[f"{name}.calls"] = _metric(entry["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(entry["self_s"], "s")
        metrics[f"{name}.import_s"] = _metric(entry["import_s"], "s")
    metrics["trace_overhead_s"] = _metric(traced.ref_wall - plain.ref_wall, "s")
    metrics["raw.wall_s"] = _metric(plain.wall, "s")
    metrics["raw.cpu_s"] = _metric(sum(s.child.cpu for s in plain.steps), "s")
    metrics["raw.ref_ms"] = _metric(statistics.median(s.child.ref for s in plain.steps) * 1e3, "ms")
    for key, value in (probe or {}).get("metrics", {}).items():
        metrics[key] = _metric(value, "shots/s" if key.endswith("shots_per_s") else "us")
    for name, _, _ in workloads.MC_CASES:
        case = (probe or {}).get("mc", {}).get(name, {"pull": math.nan, "rse": math.nan})
        metrics[f"smm.monte_carlo.{name}.abs_pull"] = _metric(abs(case["pull"]), "sigma")
        metrics[f"smm.monte_carlo.{name}.rse"] = _metric(case["rse"], "1")
        if probe is not None:
            ok, detail = bench.check_mc(name, case["estimates"], case["pull"])
            extra.append(Outcome(f"probe monte_carlo {name}", ok, detail, wrong_output=not ok))
    metrics["smm.calibrate_c1.cold_s"] = _metric(cold["seconds"] if cold else math.nan, "s")
    for key, value in (counts or {}).get("counts", {}).items():
        metrics[key] = _metric(value, "count")
    rows = sum(s.rows for s in traced.steps)
    size = sum(s.bytes for s in traced.steps)
    if (rows, size) != (sum(s.rows for s in plain.steps), sum(s.bytes for s in plain.steps)):
        extra.append(Outcome("exact counts", False, "traced and untraced passes wrote different outputs",
                             wrong_output=True))
    metrics["cli.rows_written"] = _metric(rows, "count")
    metrics["cli.bytes_written"] = _metric(size, "bytes")
    outcomes = plain.outcomes + traced.outcomes + extra
    metrics["fail_ratio"] = _metric(sum(not o.ok for o in plain.outcomes) / len(plain.outcomes), "1")
    metrics["rows_per_s"] = _metric(plain.rows_per_s(), "rows/s")
    metrics["shots_per_s"] = _metric(plain.shots_per_s(), "shots/s")
    return metrics, [plain, traced], outcomes


def run_workload(root: Path, args) -> dict:
    bench = Bench(root, args.workload, args.seed)
    info = context(root, args)
    print("context: " + json.dumps(info, sort_keys=True))
    if args.trace:
        metrics, passes, outcomes = run_traced(bench)
        extra = {}
    else:
        metrics, passes, extra = run_untraced(bench, args.seconds)
        outcomes = [o for p in passes for o in p.outcomes]
    for o in outcomes:
        print(f"{'PASS' if o.ok else 'FAIL'}  {o.name}: {o.detail}")
    for i, p in enumerate(passes):
        print(f"pass {i}: " + ", ".join(f"{s.step.name} {s.child.wall:.3f}s" for s in p.steps))
    if extra:
        print(f"passes = {extra['passes']}")
        for key, unit in (("raw_wall_s", "s"), ("raw_cpu_s", "s"),
                          ("ref_ms", "ms"), ("fail_ratio", "1"), ("rows_per_s", "rows/s"),
                          ("shots_per_s", "shots/s")):
            print(f"{key} = {extra[key]:.6g} {unit}")
        for key, value in extra["command_s"].items():
            print(f"{key} = {value:.6g} s (raw)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not any(o.wrong_output for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(not o.ok for o in outcomes),
        "metrics": metrics,
    }
    record = {"context": info, "result": result, "extra": extra,
              "outcomes": [vars(o) for o in outcomes],
              "steps": [[{"name": s.step.name, "command": s.step.command, **vars(s.child),
                          "rows": s.rows, "bytes": s.bytes} for s in p.steps] for p in passes]}
    (root / ".perfbench" / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/starsmm/cli.py", "configs/tepai_molecules.cfg") if not (root / p).is_file()]
    if missing:
        print(f"not the root of a starsmm checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(root, args)
        print(json.dumps(result, sort_keys=True))
        return 0
    results = {}
    for workload in WORKLOADS:
        print(f"== {workload}")
        results[workload] = run_workload(root, argparse.Namespace(**{**vars(args), "workload": workload}))
    print("\nworkload     correct  attempted  failed  " + "  ".join(results[WORKLOADS[0]]["metrics"]))
    for workload, r in results.items():
        values = "  ".join(f"{m['value']:.4g} {m['unit']}" for m in r["metrics"].values())
        print(f"{workload:<12} {str(r['correct']):<8} {r['attempted']:<10} {r['failed']:<7} {values}")
    print(json.dumps(results, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
