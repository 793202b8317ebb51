"""voltlab benchmark: host time of campaigns and of the phase-1 search.

    python3 bench/run.py --workload hmac1k --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports `voltlab` from its
`src/`.  The load is one client in a closed loop: the next operation
starts when the previous one has finished, in this one process, with no
threads.  Operations repeat until `--seconds` have passed (at least
`MIN_OPS`), all with the campaign seed `--seed`, and every output is
checked: exit code, well-formed JSON, byte-identical to the first output
of the run, and inside the reference tolerance.

`--trace 0` reports the end-to-end metrics, `--trace 1` alternates
untraced and traced operations and reports the per-layer metrics.  The
last stdout line is one JSON object: correct, attempted, failed, metrics.
The lines before it hold the environment record, the observed deviation
from the reference, and a readable summary.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_OPS = 2
SETUP_REPEATS = 5

# A fresh interpreter importing voltlab, loading the workload's profiles and
# parsing the bundled programs it runs: what every CLI invocation pays.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import voltlab.cli
from voltlab.isa import bundled_program
from voltlab.processor import load_profile
for name in sys.argv[2].split(","):
    load_profile(name)
for name in sys.argv[3].split(","):
    bundled_program(name)
"""

# Per-layer metrics, by layer name in spans.TARGETS.
CALLS = (
    "sha256sim.compress", "sha256sim.mac_with_faults", "processor.draw_flip_pattern",
    "processor.marginals", "isa.parse_program", "scanner.scan", "rng.stream",
    "isa.interpret", "victims.run_test_loop",
)
SELF_S = CALLS + ("victims.run_hmac_victim", "victims.run_poc_enclave", "cli.main")
INCLUSIVE_S = (
    "orchestrator.phase1_find_window", "orchestrator.phase3_attack",
    "orchestrator.setup_system",
)


def import_voltlab() -> None:
    """Imports the voltlab package of this checkout, never an installed copy."""
    if not (SRC / "voltlab" / "__init__.py").is_file():
        sys.exit(f"bench: no voltlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import voltlab
    import voltlab.cli  # noqa: F401  (the entry point the campaigns drive)

    if Path(voltlab.__file__).resolve().parent != SRC / "voltlab":
        sys.exit(f"bench: imported voltlab from {voltlab.__file__}, not {SRC}")


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_seconds(workload) -> float:
    argv = [
        sys.executable, "-c", SETUP_CODE, str(SRC),
        ",".join(workload.profiles), ",".join(workload.programs),
    ]
    start = perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, timeout=60)
    return perf_counter() - start


class Loop:
    """The closed loop: runs operations one after another and checks each."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = None  # first output with this seed
        self.attempted = 0
        self.failed = 0
        self.deviation = None

    def step(self, tracer: Tracer | None = None) -> float:
        code, text = None, None
        start = perf_counter()
        try:
            if tracer is None:
                code, text = self.workload.run(self.seed)
            else:
                with tracer.op():
                    code, text = self.workload.run(self.seed)
        except Exception:  # a failed operation, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
        wall = perf_counter() - start
        self.attempted += 1
        try:
            if code != 0:
                raise workloads.CheckFailed(f"exit code {code}")
            if self.reference is None:
                self.reference = text
            elif text != self.reference:
                raise workloads.CheckFailed("output differs from the run's first output")
            self.deviation = self.workload.check(text)
        except workloads.CheckFailed as exc:
            self.failed += 1
            print(f"bench: operation {self.attempted} failed: {exc}", file=sys.stderr)
        return wall


def scaled_samples(sample, more) -> tuple[list, list, list]:
    """Calls `sample()` while `more(count)` holds, with a host-speed chunk
    before the first call and after each.  Returns the raw seconds, the
    seconds scaled to the reference host speed, and the chunk times."""
    raw, scaled, chunks = [], [], [hostspeed.chunk()]
    while more(len(raw)):
        seconds = sample()
        chunks.append(hostspeed.chunk())
        raw.append(seconds)
        scaled.append(seconds * 2.0 * hostspeed.REFERENCE_S / (chunks[-2] + chunks[-1]))
    return raw, scaled, chunks


def timed_run(workload, loop: Loop, seconds: float) -> dict:
    _, setup, _ = scaled_samples(
        lambda: setup_seconds(workload), lambda n: n < SETUP_REPEATS
    )
    deadline = perf_counter() + seconds
    raw, walls, chunks = scaled_samples(
        loop.step, lambda n: n < MIN_OPS or perf_counter() < deadline
    )
    print(
        f"ops: n={len(raw)}; raw wall_s min={min(raw):.4f} "
        f"median={statistics.median(raw):.4f} max={max(raw):.4f}; "
        f"host-speed chunk median={statistics.median(chunks):.4f} s "
        f"(reference {hostspeed.REFERENCE_S} s)"
    )
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "tries_per_s": (statistics.median(workload.tries / w for w in walls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, loop: Loop, seconds: float, spans_path: Path) -> dict:
    tracer = Tracer()
    plain, traced, rows = [], [], []
    deadline = perf_counter() + seconds
    while not traced or perf_counter() < deadline:
        plain.append(loop.step())
        tracer.install()
        try:
            traced.append(loop.step(tracer))
        finally:
            tracer.restore()
        rows.append(tracer.summary())
    tracer.write(spans_path)
    if tracer.absent:
        print(f"bench: trace targets absent: {', '.join(tracer.absent)}")

    first = rows[0]  # .calls repeat exactly for a fixed seed and op position

    def mean(layer, key):
        return sum(row[layer][key] for row in rows) / len(rows)

    def by_parent(layer, parent):
        return first[layer]["by_parent"].get(parent, 0)

    metrics = {}
    for layer in CALLS:
        metrics[f"{layer}.calls"] = (first[layer]["calls"], "count")
    for layer in SELF_S:
        metrics[f"{layer}.self_s"] = (mean(layer, "self_s"), "s")
    for layer in INCLUSIVE_S:
        metrics[f"{layer}.s"] = (mean(layer, "s"), "s")
    macs = first["sha256sim.mac_with_faults"]["calls"]
    resumed = by_parent("sha256sim.compress", "sha256sim.mac_with_faults")
    metrics["sha256sim.compress_per_mac"] = (resumed / macs if macs else 0.0, "blocks/mac")
    drawn = by_parent("processor.draw_flip_pattern", "victims.run_poc_enclave")
    executed = by_parent("victims.run_with_flips", "victims.run_poc_enclave")
    metrics["victims.poc_oracle_reuse"] = (1.0 - executed / drawn if drawn else 0.0, "ratio")
    traced_mean = sum(traced) / len(traced)
    metrics["trace.wall_s"] = (traced_mean, "s")
    metrics["trace.overhead_s"] = (traced_mean - sum(plain) / len(plain), "s")
    print(f"traced ops: n={len(traced)}, untraced ops: n={len(plain)}; spans in {spans_path}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="tiny: the smoke-test size")
    args = parser.parse_args(argv)

    import_voltlab()
    workload = workloads.make(args.workload, args.size)
    workload.prepare()
    print(json.dumps({"env": environment(args)}, sort_keys=True))

    loop = Loop(workload, args.seed)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.size}.jsonl"
        metrics = traced_run(workload, loop, args.seconds, spans_path)
    else:
        metrics = timed_run(workload, loop, args.seconds)

    print(json.dumps({"check": loop.deviation}, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
