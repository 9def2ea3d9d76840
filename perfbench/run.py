"""socio-grid-sim benchmark: one workload per process, through the CLI.

    python3 perfbench/run.py --workload casestudy --seed 1 --seconds 20 --trace 0

Run from a source checkout; the package is imported from ``src/``. Each run
writes its inputs from ``--seed``, times fresh-process set-up, then calls
``socio_grid_sim.cli.main`` repeatedly for ``--seconds``, checks every
output against independent references (``reference.py``,
``bruteforce.py``) and prints one JSON object as its last stdout line.
``--trace 1`` alternates untraced and traced calls and reports per-module
metrics instead (``tracing.py``). See ``README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread in this process and in every child, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
OBJECTIVE_TOLERANCE = 1e-12
# Output is written with 9 significant digits; values lie in [0, 1].
OUTPUT_TOLERANCE = 1e-9

sys.path.insert(0, str(HERE))
import bruteforce  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One CLI operation, its inputs, and the checks on its outputs."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"

    def prepare(self) -> None:
        """Write the seeded inputs under ``self.work``."""

    def argv(self) -> list[str]:
        raise NotImplementedError

    def probe_args(self) -> list[str]:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError


class CaseStudy(Workload):
    call_name = "casestudy_s"
    variants = ("full", "limited")

    def argv(self):
        return ["casestudy", "--variant", "both", "--out", str(self.out)]

    def probe_args(self):
        return ["casestudy"]

    def outputs(self):
        files = [self.out / "comparison.csv"]
        for v in self.variants:
            files += [self.out / v / name for name in ("agents.csv", "aggregates.csv", "manifest.json")]
        return files

    def check(self):
        problems = []
        s = {}
        for v in self.variants:
            rows = [r for r in _read_csv(self.out / v / "aggregates.csv") if r["scope"] == "global"]
            s[v] = [float(r["mean_s"]) for r in rows]
            doc = inputs.casestudy_doc(v)
            ref = reference.plain_euler(
                inputs.weights_of(doc), inputs.initial_of(doc),
                inputs.ticks_of(doc, "electricity"), inputs.ticks_of(doc, "media_access"), **inputs.euler_kwargs(doc),
            )
            want = [format(1.0 - math.fsum(d) / len(d), ".9g") for d in ref]
            got = [r["mean_s"] for r in rows]
            if got != want:
                bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b) if len(got) == len(want) else None
                problems.append(f"{v}: global mean_s differs from the plain-loop reference (first at report {bad})")
        full, limited = s["full"], s["limited"]
        if len(full) != 49:
            return problems + [f"expected 49 report times, got {len(full)}"]
        if not all(b > a for a, b in zip(full[0:17], full[1:18])):
            problems.append("satisfaction does not rise over 0-17 h")
        if not all(b < a for a, b in zip(full[17:34], full[18:35])):
            problems.append("satisfaction does not fall over 17-34 h")
        if not all(b > a for a, b in zip(full[34:48], full[35:49])):
            problems.append("satisfaction does not rise over 34-48 h")
        if not full[17] >= 0.85:
            problems.append(f"S(17) = {full[17]} < 0.85")
        if not 0.85 <= full[48] <= 0.95:
            problems.append(f"S(48) = {full[48]} outside [0.85, 0.95]")
        if not (limited[17] < full[17] and abs(limited[34] - limited[17]) < abs(full[34] - full[17])):
            problems.append("limited media access does not damp the swing")
        return problems


class SimulateScale(Workload):
    call_name = "simulate_s"

    def prepare(self):
        self.doc = inputs.scale_doc(self.seed)
        self.scenario = inputs.write_doc(self.doc, self.work / "scale.json")

    def argv(self):
        return ["simulate", "--scenario", str(self.scenario), "--out", str(self.out)]

    def probe_args(self):
        return ["load", str(self.scenario)]

    def outputs(self):
        return [self.out / name for name in ("agents.csv", "aggregates.csv", "manifest.json")]

    def check(self):
        problems = []
        doc = self.doc
        groups = doc["agents"]["groups"]
        n = len(groups)
        n_groups = max(groups) + 1
        params = inputs.euler_kwargs(doc)
        manifest = json.loads((self.out / "manifest.json").read_text(encoding="utf-8"))
        if manifest.get("clamp_activations") != 0:
            problems.append(f"clamp_activations = {manifest.get('clamp_activations')!r}, expected 0")
        n_steps = reference.step_count(doc["params"]["horizon_hours"], params["dt"])
        n_times = n_steps // params["steps_per_report"] + 1

        agents = _read_csv(self.out / "agents.csv")
        if len(agents) != n * n_times:
            problems.append(f"agents.csv has {len(agents)} rows, expected N x reports = {n * n_times}")
        per_group: dict[tuple[str, str], set[str]] = {}
        out_of_range = 0
        for row in agents:
            d = float(row["dissatisfaction"])
            out_of_range += not 0.0 <= d <= 1.0
            per_group.setdefault((row["t_hours"], row["group"]), set()).add(row["dissatisfaction"])
        if out_of_range:
            problems.append(f"{out_of_range} dissatisfaction values outside [0, 1]")
        mixed = sum(len(values) > 1 for values in per_group.values())
        if mixed:
            problems.append(f"{mixed} (time, group) cells where a group's agents differ")

        aggregates = _read_csv(self.out / "aggregates.csv")
        if len(aggregates) != n_times * (n_groups + 1):
            problems.append(f"aggregates.csv has {len(aggregates)} rows, expected {n_times * (n_groups + 1)}")
        elec = inputs.ticks_of(doc, "electricity")
        media = inputs.ticks_of(doc, "media_access")
        d0 = inputs.initial_of(doc)
        worst = 0.0
        for g in range(n_groups):
            a = groups.index(g)
            path = reference.group_recurrence(
                d0[a], elec[a], media[a], omega1=params["omega1"], omega2=params["omega2"],
                dt=params["dt"], steps_per_report=params["steps_per_report"],
            )
            got = [float(r["mean_s"]) for r in aggregates if r["scope"] == f"group_{g}"]
            if len(got) != len(path):
                problems.append(f"group_{g}: {len(got)} aggregate rows, expected {len(path)}")
                continue
            worst = max([worst] + [abs(s - (1.0 - d)) for s, d in zip(got, path)])
        if worst > OUTPUT_TOLERANCE:
            problems.append(f"group means differ from the scalar group recurrence by {worst:.3g}")
        return problems


def _slot_set(plan_doc: dict) -> tuple:
    return (
        float(plan_doc["granularity_hours"]),
        sorted((s["group"], s["start_hour"], s["duration_hours"], s["shed_level"]) for s in plan_doc["slots"]),
    )


class PlanExhaustive(Workload):
    call_name = "plan_s"
    required = inputs.C6_REQUIRED_ENERGY
    granularity = inputs.C6_GRANULARITY
    levels = inputs.C6_LEVELS

    def prepare(self):
        self.doc = inputs.c6_doc()
        self.scenario = inputs.write_doc(self.doc, self.work / "base.json")

    def argv(self):
        return [
            "plan", "--scenario", str(self.scenario), "--out", str(self.out),
            "--required-energy", repr(self.required), "--granularity", repr(self.granularity),
            "--levels", ",".join(repr(v) for v in self.levels if v > 0.0), "--strategy", "exhaustive",
        ]

    def probe_args(self):
        return ["load", str(self.scenario)]

    def outputs(self):
        return [self.out / "plan.json", self.out / "objective.json"]

    def check(self):
        import socio_grid_sim

        problems = []
        doc = self.doc
        plan_doc = json.loads((self.out / "plan.json").read_text(encoding="utf-8"))
        objective = json.loads((self.out / "objective.json").read_text(encoding="utf-8"))
        try:
            plan = socio_grid_sim.plan_from_dict(plan_doc)
            errors = socio_grid_sim.planner.validate_plan(plan, socio_grid_sim.load_scenario(self.scenario))
        except socio_grid_sim.ValidationError as exc:
            errors = exc.violations
        problems += [f"plan does not validate: {e}" for e in errors]

        groups = doc["agents"]["groups"]
        sizes = [groups.count(g) for g in range(max(groups) + 1)]
        slots = plan_doc["slots"]
        energy = math.fsum(s["shed_level"] * s["duration_hours"] * sizes[s["group"]] for s in slots)
        if energy + 1e-9 < self.required:
            problems.append(f"plan sheds {energy}, less than the required {self.required}")
        if any(s["shed_level"] not in self.levels or s["duration_hours"] != self.granularity for s in slots):
            problems.append("plan has a slot off the lattice")

        params = inputs.euler_kwargs(doc)
        elec = [list(row) for row in inputs.ticks_of(doc, "electricity")]
        for s in slots:
            lo = reference.tick_of(s["start_hour"], params["dt"])
            hi = reference.tick_of(s["start_hour"] + s["duration_hours"], params["dt"])
            for a, g in enumerate(groups):
                if g == s["group"]:
                    for k in range(lo, min(hi, len(elec[a]))):
                        elec[a][k] = max(0.0, elec[a][k] - s["shed_level"])
        rows = reference.plain_euler(
            inputs.weights_of(doc), inputs.initial_of(doc), elec, inputs.ticks_of(doc, "media_access"), **params
        )
        combined, peak, unfairness = reference.plan_objective(rows, groups, 1.0)
        for key, want in (("combined", combined), ("peak_mean_dissatisfaction", peak), ("unfairness", unfairness)):
            if not abs(objective[key] - want) <= OBJECTIVE_TOLERANCE:
                problems.append(f"objective {key} = {objective[key]!r}, plain-loop reference {want!r}")

        expected = bruteforce.c6_optimum()
        if _slot_set(plan_doc) != _slot_set(expected["plan"]):
            problems.append(f"plan differs from the brute-force optimum {expected['plan']['slots']}")
        return problems


WORKLOADS = {
    "casestudy": CaseStudy,
    "simulate-scale": SimulateScale,
    "plan-exhaustive": PlanExhaustive,
}


def setup_times(workload: Workload) -> list[float]:
    """Seconds to import the package and build the scenario, one fresh process each."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")] + workload.probe_args()
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def _blas_threads(np) -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(np),
        "blas_threads_env": BLAS_THREADS,
    }


def measure(package, workload: Workload, seconds: float, tracer: tracing.Tracer | None) -> dict:
    """Call the CLI for about ``seconds``; with a tracer, every second call is
    traced. A call starts only if one more median-length call still ends
    within ``seconds``, so a run does not overshoot by a whole slow call.
    Returns wall times, trace roots and output digests."""
    cli = package.cli
    argv = workload.argv()
    plain, traced, roots, digests = [], [], [], []
    failed = 0
    start_run = time.perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        while True:
            use_trace = tracer is not None and len(plain) > len(traced)
            if use_trace:
                roots.append(len(tracer.spans))
                tracer.install(package)
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                wall = time.perf_counter() - start
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else plain).append(wall)
            failed += code != 0
            digests.append(_digest(workload.outputs()) if code == 0 else None)
            expected_end = time.perf_counter() - start_run + statistics.median(plain + traced)
            if expected_end > seconds and (tracer is None or traced):
                break
    return {"plain": plain, "traced": traced, "roots": roots, "digests": digests, "failed": failed}


def layer_metrics(tracer: tracing.Tracer, run: dict) -> tuple[dict, list[str]]:
    per_call = [tracing.call_metrics(tracer.spans, root) for root in run["roots"]]
    problems = []
    values = {}
    for name, unit in tracing.LAYER_METRICS:
        if name == "trace.overhead_s":
            value = statistics.median(run["traced"]) - statistics.median(run["plain"])
        else:
            series = [m[name] for m in per_call]
            if name in tracing.COUNT_METRICS:
                if len(set(series)) > 1:
                    problems.append(f"{name} differs between traced calls: {sorted(set(series))}")
                value = series[0]
            else:
                value = float(statistics.median(series))
        values[name] = {"value": value, "unit": unit}
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="socio-grid-sim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "socio_grid_sim" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a socio-grid-sim checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work)
    try:
        workload.prepare()
        setup = [] if args.trace else setup_times(workload)

        sys.path.insert(0, str(SRC))
        import socio_grid_sim
        import socio_grid_sim.cli  # noqa: F401

        env = environment()
        tracer = tracing.Tracer() if args.trace else None
        run = measure(socio_grid_sim, workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = workload.check() if run["digests"][-1] is not None else ["last call failed"]
        if len(set(d for d in run["digests"] if d is not None)) > 1:
            problems.append("repeated calls wrote different output bytes")
        if tracer is None:
            metrics = {
                "setup_s": {"value": statistics.median(setup), "unit": "s"},
                "call_s": {"value": statistics.median(run["plain"]), "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        else:
            metrics, trace_problems = layer_metrics(tracer, run)
            problems += trace_problems
            tracer.write(OUT / "traces" / f"{tag}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(run["plain"]) + len(run["traced"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup_s_samples": setup,
        "call_s_samples": run["plain"],
        "traced_call_s_samples": run["traced"],
        "problems": problems,
        "metrics": metrics,
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    if tracer is None:
        print(f"call_s is {workload.call_name} here: median of {len(run['plain'])} calls")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
