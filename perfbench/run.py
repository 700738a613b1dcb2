"""turankit benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ./src. The
run sets up the workload several times, before and after the measured
passes (setup_s is the median), and repeats its pass until --seconds have
gone by, always completing at least one pass. Throughout, a fixed
reference computation samples the machine's speed (speed.py), and the
set-up and pass times are reported at its nominal speed, so that a shared
host's slow spells do not show as the program's. With --trace 1 it then
runs one more pass with every public turankit function wrapped in spans
and reports per-layer metrics instead, in unscaled seconds, including the
tracing overhead against the untraced passes. Every operation's output is
checked outside the timed region. The last line of standard output is the
JSON result; a line starting with "# {" before it records the interpreter,
machine and source the numbers came from, and "# FAILED" lines name the
first failed checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUN_DIR = HERE / "_run"
# Set-ups timed before and after the measured passes: samples taken half
# a minute apart rarely all fall in one slow spell of a shared machine.
SETUP_ROUNDS = (3, 2)
IMPORTS_PER_ROUND = 2
BUDGET_VARIABLES = ("TURANKIT_BUDGET_NODES", "TURANKIT_BUDGET_SECS")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_seconds() -> tuple[float, tuple[int, float]]:
    """Time to import turankit in a fresh interpreter, without the
    reference units run inside it, and those units."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; import speed; "
            "s = speed.Sampler(); s.start(); t = time.perf_counter(); import turankit.cli; "
            "t = time.perf_counter() - t; s.stop(); print(t - s.seconds, s.units, s.seconds)")
    out = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE)], check=True,
                         capture_output=True, text=True, timeout=60)
    seconds, units, unit_seconds = out.stdout.split()
    return float(seconds), (int(units), float(unit_seconds))


def time_setups(workload, root: Path, rounds: int, sampler: speed.Sampler,
                imports: list, setups: list) -> None:
    """Append import and set-up samples at the nominal speed, each scaled
    by the reference units run inside the samples of its round: the
    imports' in their own interpreters, while this one's sampler waits.
    Each set-up gets a fresh directory and replaces the previous one,
    whose directory is removed."""
    for _ in range(rounds):
        rate = speed.Speed()
        round_imports = []
        sampler.stop()
        for _ in range(IMPORTS_PER_ROUND):
            seconds, units = import_seconds()
            round_imports.append(seconds)
            rate.add(units)
        sampler.start()
        k = len(setups)
        workdir = root / f"setup-{k}"
        workdir.mkdir()
        mark = sampler.mark()
        t0 = time.perf_counter()
        workload.setup(workdir)
        elapsed = time.perf_counter() - t0
        units = sampler.since(mark)
        rate.add(units)
        if not rate.units:  # a round shorter than the sampling period
            rate.add(speed.sample())
        setup = elapsed - units[1]
        imports += [rate.scale() * t for t in round_imports]
        setups.append(rate.scale() * setup)
        if k:
            shutil.rmtree(root / f"setup-{k - 1}")


def provenance() -> dict:
    """Interpreter, core count, commit (when the checkout is a git work
    tree) and a digest of the package source, which identifies the code
    either way."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "turankit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = HERE.parent / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = HERE.parent / ".git" / ref[5:]
            if ref_path.is_file():
                commit = ref_path.read_text().strip()
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest()}


class Measurement:
    """Per-op durations, the reference units run inside them, and check
    results over repeated passes."""

    def __init__(self, workload, sampler: speed.Sampler | None = None):
        self.workload = workload
        self.sampler = sampler or speed.Sampler()
        self.speed = speed.Speed()
        self.samples: dict[int, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self.peak_rss_mb = 0.0

    def call(self, i: int, op, runner=None) -> float:
        """op's unscaled duration, without the reference units run inside it."""
        mark = self.sampler.mark()
        t0 = time.perf_counter()
        try:
            got = runner(i, op.label, op.run) if runner else op.run()
            error = None
        except Exception as exc:  # a crash is a failed operation, not a fatal one
            error = f"{op.label}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        units = self.sampler.since(mark)
        self.speed.add(units)
        elapsed -= units[1]
        if not error:
            try:
                problems = op.check(got)
            except Exception as exc:  # output the check cannot read, e.g. malformed JSON
                error = f"{op.label}: check raised {type(exc).__name__}: {exc}"
        if error:
            problems = [error] * op.count
        self.attempted += op.count
        self.failed += min(len(problems), op.count)
        self.problems += problems[:3]
        return elapsed

    def run(self, seconds: float) -> None:
        ops = self.workload.ops
        deadline = time.perf_counter() + seconds
        while True:
            self.workload.reset()
            for i, op in enumerate(ops):
                if self.passes and time.perf_counter() > deadline:
                    return
                self.samples[i].append(self.call(i, op))
            self.passes += 1
            if self.passes == 1:
                # Read after one pass: the high-water mark creeps up with
                # every further pass (the allocator keeps freed memory in
                # fragmented arenas), so a later reading would depend on
                # how many passes the machine's speed allowed.
                self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if time.perf_counter() > deadline:
                return

    def mean_times(self) -> list[float]:
        """Each operation's mean unscaled duration over the passes that
        reached it. A mean weighs every moment of the run alike, as the
        reference units' mean time does, so the two describe the same
        spells of the machine."""
        return [statistics.fmean(self.samples[i]) for i in range(len(self.workload.ops))]

    def scaled_times(self) -> list[float]:
        scale = self.speed.scale()
        return [scale * t for t in self.mean_times()]

    def end_to_end(self, setup_s: float) -> dict:
        """wall_s is one pass, as the sum of the operations' mean times at
        the nominal speed, so a pass cut short by the deadline does not
        change what it describes."""
        return {
            "setup_s": setup_s,
            "wall_s": sum(self.scaled_times()),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def summary(self) -> dict:
        """Pass count, the unscaled pass time and the scale, seconds per
        group of operations, ops per second and op latency percentiles over
        the pass (one value per op, its scaled mean). These are not
        metrics: ops_per_s is a fixed transform of wall_s, and only requery
        and toolkit have enough distinct ops for ten samples beyond p90."""
        scaled = self.scaled_times()
        groups = defaultdict(float)
        for op, seconds in zip(self.workload.ops, scaled):
            groups[op.label] += seconds
        latencies = [1000 * m for m in scaled]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        return {"passes": self.passes,
                "timings": sum(len(s) for s in self.samples.values()),
                "unscaled_wall_s": sum(self.mean_times()),
                "speed_scale": self.speed.scale(),
                "reference_units": self.speed.units,
                "ops_per_s": sum(op.count for op in self.workload.ops) / sum(scaled),
                "group_s": {k: round(v, 6) for k, v in sorted(groups.items())},
                "query_ms": {"p50": statistics.median(latencies), "p90": deciles[8],
                          "samples": len(latencies),
                          "beyond_p90": len(latencies) - int(0.9 * len(latencies))}}


def traced_pass(workload, measurement: Measurement):
    """One pass with spans, the reference stopped: per-layer times are
    unscaled, and the overhead is against the unscaled untraced pass."""
    import tracing

    tracer = tracing.Tracer()
    workload.reset()
    tracer.install()
    try:
        wall = sum(measurement.call(i, op, tracer.run_op) for i, op in enumerate(workload.ops))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - sum(measurement.mean_times())
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    return tracer, {name: (metrics[name], units[name]) for name, _, _ in tracing.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ladder", "census", "requery", "toolkit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "turankit" / "__init__.py").is_file():
        print(f"error: no turankit package under {SRC}", file=sys.stderr)
        return 2
    for name in BUDGET_VARIABLES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    import turankit
    import workloads

    if not Path(turankit.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported turankit from {turankit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    pins = json.loads((HERE / "pins.json").read_text())
    RUN_DIR.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUN_DIR))
    cwd = os.getcwd()
    try:
        os.chdir(root)  # anything written to a relative path lands here
        workload = workloads.WORKLOADS[args.workload](args.seed, workloads.Checker(pins))
        imports, setups = [], []
        before, after = SETUP_ROUNDS
        sampler = speed.Sampler()
        sampler.start()
        try:
            time_setups(workload, root, before, sampler, imports, setups)
            measurement = Measurement(workload, sampler)
            measurement.run(args.seconds)
            # Same seed: the same ops again.
            time_setups(workload, root, after, sampler, imports, setups)
        finally:
            sampler.stop()
        results = measurement.end_to_end(statistics.median(imports) + statistics.median(setups))
        metrics = {name: (results[name], unit) for name, unit in END_TO_END}
        if args.trace:
            tracer, metrics = traced_pass(workload, measurement)
            tracer.write_spans(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        os.chdir(cwd)
        shutil.rmtree(root, ignore_errors=True)

    info = dict(provenance(), workload=args.workload, seed=args.seed, trace=args.trace,
                import_samples_s=imports, setup_samples_s=setups, **measurement.summary())
    print("# " + json.dumps(info))
    for problem in measurement.problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
