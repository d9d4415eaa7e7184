"""Layered, correctness-gated benchmark of octmoduli.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Runs one workload from the root of a checkout against that checkout's own
src/ (never an installed copy), measures for --seconds seconds of timed
passes, checks every pass's outputs against independent references
(checks.py) outside the timed region, and prints one line per metric, check
and note, then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, every time scaled to a nominal
host speed measured by reference kernels (hostspeed.py).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
(tracing.py) and the tracing overhead, the traced wall_s minus the untraced
wall_s.

The load is one closed-loop client: one operation at a time, at most one
child process at a time, and at most two threads (the `mc` --workers 2 runs).
See README.md in this directory for the metrics and the known gaps.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import checks
import hostspeed
import roundtrip
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

EQUILATERAL = "2pi/3,2pi/3,2pi/3"
RIGHT = "pi,pi/2,pi/2"
EQUILATERAL_DEFICITS = (2 * math.pi / 3,) * 3
RIGHT_DEFICITS = (math.pi, math.pi / 2, math.pi / 2)

SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
MIN_PASSES = 3
# the whole run is abandoned, without a result, this long after --seconds
DEADLINE_MARGIN_S = 150



class Abort(Exception):
    """The run cannot produce a trustworthy result (wrong code under test, timeout)."""


@dataclasses.dataclass
class Pass:
    """One timed pass of a workload."""

    wall: float
    latencies: list[float]
    first_output: float
    maxrss_kb: int
    attempted: int
    failed: int
    trace: dict | None = None
    # mc only: command latencies by --workers value
    by_workers: dict[int, list[float]] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Child:
    code: int
    out: str
    wall: float
    first_output: float
    maxrss_kb: int
    err: str


class Service:
    """A helper process, a script in this directory, that answers each JSON
    request line on its stdin with one JSON line."""

    def __init__(self, ctx: "Context", script: str, *args: str):
        self.ctx = ctx
        self.script = script
        self.proc = ctx.spawn([sys.executable, str(HERE / script), *args],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, message):
        self.proc.stdin.write(json.dumps(message) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Abort(f"{self.script} exited")
        return json.loads(line)

    def stop(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        code, _ = self.ctx.reap(self.proc)
        if code != 0:
            raise Abort(f"{self.script} exited {code}")


class Context:
    """Per-run state shared by the workloads: seed, scratch dir, child env,
    check log, and the helper processes that start children (spawner.py) and
    time the host-speed kernels (hostspeed.py)."""

    def __init__(self, seed: int, tmp: Path, kernels):
        self.seed = seed
        self.kernels = list(kernels)
        self.tmp = tmp
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.log = checks.CheckLog()
        self.notes: list[str] = []
        self.errors: list[str] = []
        self.live: list[subprocess.Popen] = []
        self.reference: dict[str, list[float]] = {name: [] for name in kernels}
        # The vCPUs of the shared host run at different speeds from moment to
        # moment, so the reference kernels track the program only on the CPU
        # the program runs on.  Every process of the run is pinned to the last
        # of these CPUs, except CLI commands that ask for more than one worker
        # and the two-thread kernel, which get all of them.
        self.cpus = sorted(os.sched_getaffinity(0))
        self._package = None

    def spawn(self, argv, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, **kwargs)
        self.live.append(proc)
        return proc

    def reap(self, proc: subprocess.Popen) -> tuple[int, int]:
        """Wait for a child; returns (exit code, ru_maxrss in KiB)."""
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss

    def start_services(self) -> None:
        self.spawner = Service(self, "spawner.py")
        self.meter = Service(self, "hostspeed.py", ",".join(map(str, self.cpus)))

    def stop_services(self) -> None:
        self.spawner.stop()
        self.meter.stop()

    def run(self, argv, all_cpus: bool = False) -> Child:
        """Run a child to completion through the spawner, which times spawn ->
        first stdout line -> exit; on the pinned CPU, or with `all_cpus` on
        every CPU of the run."""
        out, err = self.tmp / "stdout.txt", self.tmp / "stderr.txt"
        r = self.spawner.request({"argv": argv, "stdout": str(out), "stderr": str(err),
                                  "cpus": self.cpus if all_cpus else None})
        return Child(r["code"], out.read_bytes().decode("utf-8"), r["wall"], r["first_output"],
                     r["maxrss_kb"], err.read_bytes().decode("utf-8", "replace"))

    def measure_host(self, runs: dict[str, int]) -> dict[str, list[float]]:
        """Seconds of each of `runs[name]` back-to-back runs of each reference
        kernel (hostspeed.py)."""
        return self.meter.request(runs)

    def sample_host(self, busy: float, kernels=None) -> None:
        """Record reference kernels (default: all of the workload's) after
        `busy` seconds of timed work: about hostspeed.DUTY of that, at least
        one run each, so the run's mean weighs each stretch of work by its
        length."""
        kernels = kernels or self.kernels
        nominal = sum(hostspeed.NOMINAL_S[name] for name in kernels)
        n = max(1, round(hostspeed.DUTY * busy / nominal))
        for name, seconds in self.measure_host({name: n for name in kernels}).items():
            self.reference[name].extend(seconds)

    def cli(self, args, traced: bool = False) -> tuple[Child, dict | None]:
        """Run `python -m octmoduli.cli ARGS`, or its traced stand-in tracing.py,
        then sample the host speed with the workload's first kernel, or with
        its two-thread kernel after a command that asks for more workers."""
        workers = int(args[args.index("--workers") + 1]) if "--workers" in args else 1
        kernel = "array2" if workers > 1 and "array2" in self.kernels else self.kernels[0]
        if not traced:
            child = self.run([sys.executable, "-m", "octmoduli.cli", *args], workers > 1)
            self.sample_host(child.wall, [kernel])
            return child, None
        summary_path = self.tmp / "trace.json"
        child = self.run([sys.executable, str(HERE / "tracing.py"), str(summary_path), "--",
                          *args], workers > 1)
        self.sample_host(child.wall, [kernel])
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
        summary["counters"]["cli.lines_out"] = child.out.count("\n")
        summary["counters"]["cli.bytes_out"] = len(child.out.encode("utf-8"))
        return child, summary

    def package(self):
        """octmoduli imported into this process (traced runs only), pinned to src/."""
        if self._package is None:
            sys.path.insert(0, str(SRC))
            self._package = tracing.import_pinned()
        return self._package

    def probe(self) -> dict:
        return tracing.run_probe(self.package(), str(self.tmp / "probe.svg"))

    def kill_children(self) -> None:
        for proc in list(self.live):
            if proc.returncode is None:
                proc.kill()
                self.reap(proc)
            else:
                self.live.remove(proc)


def expect_json_line(ctx: Context, what: str, child: Child, code: str | None = None):
    """The child printed one strict JSON line and exited 0, or 1 with error `code`.

    Returns the payload, or None after counting the operation as failed."""
    lines = child.out.splitlines()
    try:
        response = checks.strict_json(lines[0]) if len(lines) == 1 else None
    except ValueError:
        response = None
    if code is None:
        ok = child.code == 0 and response is not None and response.get("status") == "ok"
    else:
        ok = (child.code == 1 and response is not None and response.get("status") == "error"
              and response["payload"].get("code") == code)
    if not ok:
        ctx.errors.append(f"{what}: exit {child.code}, stdout {child.out[:200]!r}, "
                          f"stderr {child.err[-300:]!r}")
        return None
    return response["payload"]


def cli_pass(ctx: Context, traced: bool, commands) -> tuple[list, list[dict], float]:
    """Run CLI commands one after another, then hand each child to its handler
    outside the timed region; returns ([(child, handler result)], traces,
    wall), where wall is the children's summed wall time."""
    children, traces = [], []
    for args, _ in commands:
        child, summary = ctx.cli(args, traced)
        children.append(child)
        if summary is not None:
            traces.append(summary)
    wall = sum(c.wall for c in children)
    return [(c, handle(c)) for c, (_, handle) in zip(children, commands)], traces, wall


# --- workloads ---------------------------------------------------------------

class Workload:
    """A workload runs passes through one_pass(); start/stop bracket a run."""

    # host-speed reference kernels (hostspeed.py) that scale the pass times
    kernels = ("interp",)

    def start(self, ctx: Context) -> None:
        pass

    def stop(self, ctx: Context) -> None:
        pass

    def throughput(self, passes: list[Pass]) -> float:
        """Operations per second of pass time, over the whole run."""
        return sum(p.attempted for p in passes) / sum(p.wall for p in passes)

    def throughput_w2(self, passes: list[Pass]) -> float:
        """Only `mc` has a worker option; elsewhere this equals throughput."""
        return self.throughput(passes)

    def scaled(self, p: Pass, speeds: dict[str, float]) -> Pass:
        """The pass with its times scaled to the nominal host speed."""
        f = speeds["interp"]
        return dataclasses.replace(p, wall=p.wall * f, latencies=[lat * f for lat in p.latencies])


class Sweep(Workload):
    """`sweep --steps 120`: one CLI process per pass, 7021 JSON lines, about 2.5 s.

    Why: the plotting-pipeline path.  About 95% of it is the 6 x 7021
    `moduli.dihedral_angle` calls, the rest `cli` serialization.
    Exercises: the array-first `forms`/`moduli` core (ROADMAP item 2); this
    is where a batched core must show its gain, in wall_s and throughput
    (a batched rewrite that delays the first row shows in the first_output_ms
    note).
    Bypasses: the embedding and decomposition layers and the Monte Carlo kernel.
    Operation: one sweep command.  Throughput unit: rows per second.
    """

    steps = 120
    rows = 7021
    volume_checks_per_pass = 12

    def one_pass(self, ctx: Context, index: int, traced: bool) -> Pass:
        child, summary = ctx.cli(["sweep", "--steps", str(self.steps)], traced)
        failed = 0
        if child.code != 0:
            ctx.errors.append(f"sweep: exit {child.code}, stderr {child.err[-300:]!r}")
            failed = 1
        rng = random.Random(ctx.seed * 1_000_003 + index)
        checks.check_sweep(ctx.log, child.out.splitlines(), self.steps,
                           rng.sample(range(self.rows), self.volume_checks_per_pass))
        return Pass(child.wall, [child.wall], child.first_output, child.maxrss_kb, 1, failed,
                    summary)

    def throughput(self, passes):
        return self.rows * len(passes) / sum(p.wall for p in passes)


class MonteCarlo(Workload):
    """`volume --mc 10000000` at the equilateral and right presets, each with
    --workers 1 and --workers 2; four CLI processes per pass, about 5 s.

    Why: nearly all the time is the `volume` Monte Carlo shard kernel and its
    thread pool; `moduli`, `embedding` and `decomposition` do almost no work.
    Exercises: the MC kernel and the worker pool (ROADMAP item 5), in
    throughput (samples/s at --workers 1) and throughput_w2 (at --workers 2).
    Bypasses: the array-first core of item 2, so there the prediction is
    no change.  The MC seed is the workload seed.
    Gate: the two presets keep every deficit >= 0.05 rad, the margin of the
    tests' own sampler.  The 70% miss at delta = (1e-9, pi, pi - 1e-9)
    (ROADMAP item 5) lies outside this gate and is not claimed as passing.
    Operation: one volume command.
    """

    # each command is scaled by the array kernel with its own thread count,
    # timed right after commands with that many workers
    kernels = ("array", "array2")
    samples = 10_000_000
    presets = (("equilateral", EQUILATERAL, EQUILATERAL_DEFICITS),
               ("right", RIGHT, RIGHT_DEFICITS))

    def one_pass(self, ctx: Context, index: int, traced: bool) -> Pass:
        commands, meta = [], []
        for name, text, deficits in self.presets:
            for workers in (1, 2):
                args = ["volume", "--deficits", text, "--mc", str(self.samples),
                        "--seed", str(ctx.seed), "--workers", str(workers)]
                what = f"mc {name} --workers {workers}"
                commands.append((args, lambda c, what=what: expect_json_line(ctx, what, c)))
                meta.append((name, workers, deficits))
        done, traces, wall = cli_pass(ctx, traced, commands)
        by_preset: dict[str, dict[int, str]] = {}
        for (child, payload), (name, workers, deficits) in zip(done, meta):
            by_preset.setdefault(name, {})[workers] = child.out
            if payload is not None:
                info = checks.check_mc(ctx.log, child.out, deficits, self.samples, ctx.seed)
                if index == 0:
                    ctx.notes.append(
                        f"note mc {name} workers={workers} seed={ctx.seed}: relative error "
                        f"{info['rel_error']:.3e}, std_error {info['std_error']:.3e} "
                        f"({info['std_error_rel']:.3e} relative)")
        for name, outs in by_preset.items():
            ctx.log.require("mc.workers_1_and_2_byte_identical", outs[1] == outs[2],
                            f"{name}: {outs[1][:120]!r} != {outs[2][:120]!r}")
        failed = sum(payload is None for _, payload in done)
        by_workers: dict[int, list[float]] = {}
        for (child, _), (_, workers, _) in zip(done, meta):
            by_workers.setdefault(workers, []).append(child.wall)
        return Pass(wall, [c.wall for c, _ in done], done[0][0].first_output,
                    max(c.maxrss_kb for c, _ in done), len(done), failed,
                    tracing.merge_summaries(traces) if traced else None, by_workers)

    def _samples_per_s(self, passes, workers):
        walls = [lat for p in passes for lat in p.by_workers[workers]]
        return self.samples * len(walls) / sum(walls)

    def throughput(self, passes):
        return self._samples_per_s(passes, 1)

    def throughput_w2(self, passes):
        return self._samples_per_s(passes, 2)

    def scaled(self, p, speeds):
        by_workers = {1: [lat * speeds["array"] for lat in p.by_workers[1]],
                      2: [lat * speeds["array2"] for lat in p.by_workers[2]]}
        latencies = by_workers[1] + by_workers[2]
        return dataclasses.replace(p, wall=sum(latencies), latencies=latencies,
                                   by_workers=by_workers)


class RoundTrip(Workload):
    """In-process library calls on 200 octahedra per pass, in chunks of 100,
    in a worker process (roundtrip.py) that imports octmoduli from src/; the
    passes cycle through the seed's 1000 octahedra.

    Why: the only workload where `embedding` and `decomposition` dominate, and
    it uses `moduli` differently from sweep: normalize, distance and Klein
    coordinates instead of dihedral angles.  The vertex triples come from the
    workload seed through the benchmark's own sampler, not random_octahedron.
    Exercises: batching of the embedding pipeline (item 2, second step) in
    throughput and latency_p50_ms; svg_net, run on every tenth octahedron, in
    latency_tail_ms.
    Bypasses: dihedral_angle, the Monte Carlo kernel and the CLI.
    Operation: one octahedron.  Throughput unit: octahedra per second.
    peak_rss_mb is the worker's own peak RSS (VmHWM).
    """

    def start(self, ctx: Context):
        self.err = open(ctx.tmp / "roundtrip.stderr", "w+b")
        self.proc = ctx.spawn([sys.executable, str(HERE / "roundtrip.py"), str(ctx.seed)],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
                              text=True)
        if self._read() != {"ready": True}:
            raise Abort("roundtrip worker did not start")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.err.seek(0)
            raise Abort("roundtrip worker exited: "
                        + self.err.read().decode("utf-8", "replace")[-800:])
        return json.loads(line)

    def stop(self, ctx: Context):
        self.proc.stdin.close()
        self.proc.stdout.close()
        code, _ = ctx.reap(self.proc)
        self.err.close()
        if code != 0:
            raise Abort(f"roundtrip worker exited {code}")

    def one_pass(self, ctx: Context, index: int, traced: bool) -> Pass:
        """The next OCTAHEDRA_PER_PASS octahedra, in chunks of CHUNK, sampling
        the host speed after each chunk."""
        replies = []
        first = index * roundtrip.OCTAHEDRA_PER_PASS % roundtrip.OCTAHEDRA
        for start in range(first, first + roundtrip.OCTAHEDRA_PER_PASS, roundtrip.CHUNK):
            request = {"traced": traced, "start": start, "stop": start + roundtrip.CHUNK}
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            replies.append(self._read())
            ctx.sample_host(replies[-1]["wall"])
        for reply in replies:
            ctx.log.merge(checks.CheckLog.from_json(reply["checks"]))
            for error in reply["errors"]:
                ctx.errors.append(f"roundtrip {error}")
        return Pass(sum(r["wall"] for r in replies),
                    [lat for r in replies for lat in r["latencies"]],
                    replies[0]["first_output"], max(r["maxrss_kb"] for r in replies),
                    sum(r["attempted"] for r in replies), sum(r["failed"] for r in replies),
                    tracing.merge_summaries([r["trace"] for r in replies]) if traced else None)


class OneShot(Workload):
    """A fixed list of one-shot CLI commands per pass, each in a fresh process.

    Why: the 8 criterion-9 presets, `chart ... --svg`, and two inputs rejected
    with exit 1 (SumNotTwoPi, NonPositiveChart).  Process start and import take
    about 0.2 s of each, almost all of it the numpy import, so this is the only
    workload that measures the import and error paths of `cli`.
    Exercises: import-time and start-up work (setup_s, latency_p50_ms).
    Bypasses: the heavy kernels; the array-first core should not move it.
    Operation: one command.  Throughput unit: commands per second.
    """

    commands = (
        ("gram", ["gram", "--deficits", EQUILATERAL], None),
        ("spectrum", ["spectrum", "--deficits", RIGHT], None),
        ("dihedral", ["dihedral", "--deficits", RIGHT], None),
        ("volume", ["volume", "--deficits", EQUILATERAL], None),
        ("embed", ["embed", "--vertices", "[[1,0,0],[0,1,0],[0,0,1]]"], None),
        ("distance", ["distance", "--deficits", EQUILATERAL, "--chart1", "1,1,1,1",
                      "--chart2", "2,1,1,1"], None),
        ("canon", ["canon", "--deficits", RIGHT, "--chart", "2,1,4,3"], None),
        ("chart", ["chart", "--deficits", EQUILATERAL, "--chart", "1,1,1,1"], None),
        ("chart_svg", ["chart", "--deficits", EQUILATERAL, "--chart", "1,1,1,1",
                       "--svg", "{svg}"], None),
        ("gram_sum_not_2pi", ["gram", "--deficits", "1,1,1"], "SumNotTwoPi"),
        ("chart_zero_length", ["chart", "--deficits", EQUILATERAL, "--chart", "0,1,1,1"],
         "NonPositiveChart"),
    )

    def one_pass(self, ctx: Context, index: int, traced: bool) -> Pass:
        svg = ctx.tmp / "net.svg"
        svg.unlink(missing_ok=True)
        commands = [([str(svg) if a == "{svg}" else a for a in args],
                     lambda c, name=name, code=code: expect_json_line(ctx, name, c, code))
                    for name, args, code in self.commands]
        done, traces, wall = cli_pass(ctx, traced, commands)
        failed = 0
        for (name, _, code), (child, payload) in zip(self.commands, done):
            if payload is None:
                failed += 1
            elif code is None:
                svg_text = svg.read_text(encoding="utf-8") if name == "chart_svg" else None
                checks.check_oneshot(ctx.log, name, payload, svg_text)
        return Pass(wall, [c.wall for c, _ in done], done[0][0].first_output,
                    max(c.maxrss_kb for c, _ in done), len(done), failed,
                    tracing.merge_summaries(traces) if traced else None)


WORKLOADS = {"sweep": Sweep, "mc": MonteCarlo, "roundtrip": RoundTrip, "oneshot": OneShot}


# --- metrics -----------------------------------------------------------------

# Below this many operations the highest percentile with 10 samples beyond it
# lies under p90, too close to the median to be a tail (with 21 it is the
# median itself), so the maximum is reported instead.
TAIL_MIN_OPS = 100


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at least
    10 samples beyond it, or the maximum below TAIL_MIN_OPS samples."""
    ordered = sorted(values)
    n = len(ordered)
    k = n - 11 if n >= TAIL_MIN_OPS else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "throughput": "1/s", "throughput_w2": "1/s",
    "latency_p50_ms": "ms", "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}


def figures(workload, passes: list[Pass], setup: list[float]) -> tuple[dict, dict]:
    """Unscaled end-to-end values and a note on how each was taken."""
    # The host also switches between a fast and a slow speed every few
    # seconds, so a median over passes jumps between the two as their mix
    # shifts near half and half.  Per-pass figures are therefore averaged
    # over the run; a single slow operation is still kept out of
    # latency_p50_ms by the median within each pass.
    latencies = [lat for p in passes for lat in p.latencies]
    n = len(latencies)
    per_pass = min(len(p.latencies) for p in passes)
    p50 = statistics.fmean(statistics.median(p.latencies) for p in passes)
    p50_note = f"mean over {len(passes)} passes of the per-pass median, {n} operations"
    if per_pass >= TAIL_MIN_OPS:
        tails = [tail(p.latencies) for p in passes]
        tail_value = statistics.fmean(t[0] for t in tails)
        _, tail_pct, beyond = tails[0]
        tail_note = (f"mean over {len(passes)} passes of the per-pass p{tail_pct:.2f}, "
                     f"{per_pass} operations and {beyond} beyond per pass")
    else:
        tail_value, tail_pct, beyond = tail(latencies)
        tail_note = (f"p{tail_pct:.2f} of {n} operations of all passes, {beyond} beyond"
                     + (f" (the maximum: fewer than {TAIL_MIN_OPS} operations)"
                        if beyond == 0 else ""))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.fmean(p.wall for p in passes),
        "throughput": workload.throughput(passes),
        "throughput_w2": workload.throughput_w2(passes),
        "latency_p50_ms": 1e3 * p50,
        "latency_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": statistics.median(p.maxrss_kb for p in passes) / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters running import octmoduli.cli, "
                   "spread over the run",
        "wall_s": f"mean of {len(passes)} passes",
        "latency_p50_ms": p50_note,
        "latency_tail_ms": tail_note,
        "peak_rss_mb": f"median over {len(passes)} passes of the largest child ru_maxrss",
    }
    return values, notes


def end_to_end(workload, passes: list[Pass], setup: list[tuple[float, float]],
               reference: dict[str, list[float]]) -> tuple[dict, list[str]]:
    """The figures with every time scaled to the nominal host speed
    (hostspeed.py); the unscaled ones are printed as notes.  `setup` holds
    (seconds, interp kernel seconds around them) pairs."""
    speeds = {name: hostspeed.NOMINAL_S[name] / statistics.fmean(times)
              for name, times in reference.items()}
    values, notes = figures(workload, [workload.scaled(p, speeds) for p in passes],
                            [s * hostspeed.NOMINAL_S["interp"] / k for s, k in setup])
    raw, _ = figures(workload, passes, [s for s, _ in setup])
    lines = [f"metric {name} = {value!r} {END_TO_END_UNITS[name]}"
             + (f" ({notes[name]})" if name in notes else "")
             for name, value in values.items()]
    lines.extend(f"note host speed: kernel {name} took {statistics.fmean(times):.4f} s (mean of "
                 f"{len(times)}, nominal {hostspeed.NOMINAL_S[name]} s): scale {speeds[name]:.4f}"
                 for name, times in reference.items())
    lines.extend(f"note unscaled {name} = {raw[name]!r} {END_TO_END_UNITS[name]}"
                 for name in raw if raw[name] != values[name])
    # printed, not gated: for CLI workloads it is mostly interpreter start and
    # the numpy import, which drift too much on a shared host to carry a bound
    first_output = 1e3 * statistics.median(p.first_output for p in passes)
    lines.append(f"note first_output_ms = {first_output!r} ms (unscaled, median of "
                 f"{len(passes)} passes)")
    return values, lines


# (name, unit); "layer.fn.self_us" is mean self time per call, "layer.self_s"
# the layer's self time per traced pass, ".calls" calls per traced pass
PER_LAYER_UNITS = {
    "moduli.dihedral_angle.calls": "count",
    "moduli.dihedral_angle.self_us": "us",
    "moduli.wall_normal.calls": "count",
    "moduli.distance.self_us": "us",
    "moduli.klein_coordinates.self_us": "us",
    "moduli.normalize.self_us": "us",
    "moduli.self_s": "s",
    "forms.make_deficits.calls": "count",
    "forms.trig_pack.calls": "count",
    "forms.self_s": "s",
    "volume.tetrahedron_volume.self_us": "us",
    "volume.lobachevsky.calls": "count",
    "volume.monte_carlo_volume.ns_per_sample": "ns",
    "volume.mc.shards": "count_computed",
    "volume.mc.bytes_moved": "B_computed",
    "volume.self_s": "s",
    "embedding.validate.self_us": "us",
    "embedding.deficits.self_us": "us",
    "embedding.chart.self_us": "us",
    "embedding.mesh_area.self_us": "us",
    "embedding.face_angles.per_octahedron": "calls/octahedron",
    "embedding.self_s": "s",
    "decomposition.parallelogram_family.self_us": "us",
    "decomposition.build_gluing.self_us": "us",
    "decomposition.cone_angle.self_us": "us",
    "decomposition.develop_octagon.self_us": "us",
    "decomposition.svg_net.self_us": "us",
    "decomposition.svg_net.bytes": "B",
    "decomposition.self_s": "s",
    "cli.main.self_s": "s",
    "cli.lines_out": "count",
    "cli.bytes_out": "B",
    "cli.import_octmoduli_ms": "ms",
    "cli.import_numpy_ms": "ms",
    "trace.overhead_s": "s",
}
LAYERS = ("forms", "moduli", "embedding", "decomposition", "volume", "cli")


def per_layer(traces: list[dict], traced_walls, untraced_walls, imports) -> tuple[dict, list[str]]:
    n = len(traces)
    merged = tracing.merge_summaries(traces)
    functions, counters = merged["functions"], merged["counters"]

    def calls(key):
        return functions.get(key, [0, 0.0])[0] / n

    def self_us(key):
        count, self_s = functions.get(key, [0, 0.0])
        return 1e6 * self_s / count if count else 0.0

    layer_self = {layer: sum(s for key, (_, s) in functions.items()
                             if key.split(".", 1)[0] == layer) / n for layer in LAYERS}
    samples = counters.get("volume.mc.samples", 0)
    validate_calls = calls("embedding.validate")
    traced_wall = statistics.median(traced_walls)
    untraced_wall = statistics.median(untraced_walls)
    values = {}
    for name in PER_LAYER_UNITS:
        head, _, tail_name = name.rpartition(".")
        if tail_name == "calls":
            values[name] = calls(head)
        elif tail_name == "self_us":
            values[name] = self_us(head)
        elif head in layer_self and tail_name == "self_s":
            values[name] = layer_self[head]
    values.update({
        "volume.monte_carlo_volume.ns_per_sample":
            1e9 * functions.get("volume.monte_carlo_volume", [0, 0.0])[1] / samples
            if samples else 0.0,
        "volume.mc.shards": counters.get("volume.mc.shards", 0) / n,
        "volume.mc.bytes_moved": tracing.MC_BYTES_PER_SAMPLE * samples / n,
        "embedding.face_angles.per_octahedron":
            calls("embedding.face_angles") / validate_calls if validate_calls else 0.0,
        "decomposition.svg_net.bytes": counters.get("decomposition.svg_net.bytes", 0) / n,
        "cli.main.self_s": functions.get("cli.main", [0, 0.0])[1] / n,
        "cli.lines_out": counters.get("cli.lines_out", 0) / n,
        "cli.bytes_out": counters.get("cli.bytes_out", 0) / n,
        "cli.import_octmoduli_ms": imports["octmoduli.cli"],
        "cli.import_numpy_ms": imports["numpy"],
        "trace.overhead_s": traced_wall - untraced_wall,
    })
    values = {name: values[name] for name in PER_LAYER_UNITS}
    largest = max(layer_self, key=layer_self.get)
    lines = [f"metric {name} = {values[name]!r} {unit}" for name, unit in PER_LAYER_UNITS.items()]
    lines.append(f"note per-layer figures cover {n} traced passes, each followed by the "
                 f"in-process probe ({len(tracing.PROBE_ARGV)} CLI presets)")
    lines.append("note layer self time per traced pass: " + ", ".join(
        f"{layer} {layer_self[layer]:.4f} s" for layer in LAYERS))
    lines.append(f"note largest self-time layer: {largest}")
    lines.append(f"note tracing overhead: traced wall_s {traced_wall:.4f} s - untraced wall_s "
                 f"{untraced_wall:.4f} s = {traced_wall - untraced_wall:.4f} s "
                 f"({100 * (traced_wall / untraced_wall - 1):.1f}%)")
    return values, lines


# "import time: <self us> | <cumulative us> | <indented module name>"
_IMPORTTIME = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$")


def import_times(ctx: Context) -> dict[str, float]:
    """Median cumulative import times (ms) of `octmoduli.cli` and `numpy`."""
    seen: dict[str, list[float]] = {"octmoduli.cli": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        child = ctx.run([sys.executable, "-X", "importtime", "-c", "import octmoduli.cli"])
        if child.code != 0:
            raise Abort(f"import octmoduli.cli failed: {child.err[-500:]}")
        found = {}
        for line in child.err.splitlines():
            m = _IMPORTTIME.match(line)
            if m and m.group(2) in seen and m.group(2) not in found:
                found[m.group(2)] = int(m.group(1)) / 1e3
        for name, values in seen.items():
            values.append(found.get(name, 0.0))
    return {name: statistics.median(values) for name, values in seen.items()}


# --- run ---------------------------------------------------------------------

def pin_code_under_test(ctx: Context) -> None:
    """Abort unless a child's `import octmoduli.cli` resolves to this checkout's src/."""
    if not (SRC / "octmoduli" / "__init__.py").is_file():
        raise Abort(f"no octmoduli package under {SRC}; run from a checkout of the repository")
    child = ctx.run([sys.executable, "-c",
                     "import octmoduli.cli, sys; sys.stdout.write(octmoduli.cli.__file__)"])
    where = Path(child.out.strip()).resolve() if child.code == 0 else None
    if where is None or (SRC / "octmoduli").resolve() not in where.parents:
        raise Abort(f"octmoduli.cli resolved to {where or child.err[-500:]}, expected it "
                    f"under {SRC}; refusing to measure another copy")


def time_setup(ctx: Context) -> tuple[float, float]:
    """Wall time of a fresh interpreter running `import octmoduli.cli`, and the
    mean time of the interp reference kernel just before and just after it.

    Import time drifts with the host more than the passes do, so each sample
    is scaled by the kernel around it, not by the run's mean."""
    before, = ctx.measure_host({"interp": 1})["interp"]
    child = ctx.run([sys.executable, "-c", "import octmoduli.cli"])
    if child.code != 0:
        raise Abort(f"import octmoduli.cli failed: {child.err[-500:]}")
    after, = ctx.measure_host({"interp": 1})["interp"]
    return child.wall, (before + after) / 2


def run_passes(ctx: Context, workload, seconds: float, trace: bool, setup: list | None = None):
    """Timed passes until `seconds` of pass time; with `trace`, alternate
    untraced and traced passes.  Returns (untraced passes, traced passes).

    With a `setup` list, a set-up time is taken after the first pass that ends
    past each sixth of `seconds`, so the set-up samples are spread over the run
    like the passes."""
    untraced, traced = [], []
    spent = 0.0
    index = 0
    next_setup = 0.0
    ctx.sample_host(0.0)
    while spent < seconds or len(untraced) < MIN_PASSES or (trace and len(traced) < MIN_PASSES):
        p = workload.one_pass(ctx, index, False)
        untraced.append(p)
        spent += p.wall
        index += 1
        if setup is not None and spent >= next_setup:
            setup.append(time_setup(ctx))
            next_setup += seconds / 6
        if trace:
            p = workload.one_pass(ctx, index, True)
            p.trace = tracing.merge_summaries([p.trace, ctx.probe()])
            traced.append(p)
            spent += p.wall
            index += 1
    return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = math.ceil(args.seconds) + DEADLINE_MARGIN_S

    def on_deadline(signum, frame):
        raise Abort(f"run exceeded {deadline} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(deadline)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workload = WORKLOADS[args.workload]()
        ctx = Context(args.seed, Path(tmp), workload.kernels)
        # inherited by every process the run starts; see Context.cpus
        os.sched_setaffinity(0, {ctx.cpus[-1]})
        try:
            ctx.start_services()
            pin_code_under_test(ctx)
            workload.start(ctx)
            if args.trace:
                imports = import_times(ctx)
                untraced, traced = run_passes(ctx, workload, args.seconds, True)
                metrics, lines = per_layer([p.trace for p in traced], [p.wall for p in traced],
                                           [p.wall for p in untraced], imports)
                passes = untraced + traced
                units = PER_LAYER_UNITS
            else:
                setup = [time_setup(ctx) for _ in range(SETUP_REPEATS // 2)]
                passes, _ = run_passes(ctx, workload, args.seconds, False, setup)
                while len(setup) < SETUP_REPEATS:
                    setup.append(time_setup(ctx))
                metrics, lines = end_to_end(workload, passes, setup, ctx.reference)
                units = END_TO_END_UNITS
            workload.stop(ctx)
            ctx.stop_services()
        except Abort as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        finally:
            signal.alarm(0)
            ctx.kill_children()

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = ctx.log.ok and failed == 0
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(passes)} passes")
    for line in lines + ctx.notes + ctx.log.lines():
        print(line)
    print(f"note ops_failed_ratio = {failed / attempted!r} ({failed} of {attempted})")
    for error in ctx.errors[:10]:
        print(f"error {error}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
