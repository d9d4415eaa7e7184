"""Span tracer that wraps the public functions of each `octmoduli` layer.

The traced run replaces every binding of a public function (the functions in
`octmoduli.__all__`, plus `cli.main`) in every loaded `octmoduli` module with a
wrapper that records a span: function, parent span, start and end.  Because
all bindings are replaced, calls from `cli` and calls between modules (for
instance `volume` calling `moduli.klein_ideal_vertices` through its own
import) are both caught.  Spans stay in memory; `summary()` reduces them at
the end to calls and self time per function, where self time is a span's
duration minus the durations of its child spans.  Nothing inside `src/` is
changed.

Run as a script, this file is the traced stand-in for `python -m
octmoduli.cli`:

    PYTHONPATH=src python perfbench/tracing.py SUMMARY.json -- gram --deficits 2pi/3,2pi/3,2pi/3

It runs `octmoduli.cli.main` on the arguments after `--`, leaves stdout and
the exit code as the CLI makes them, and writes the summary to SUMMARY.json.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# array elements per sample that the Monte Carlo shard kernel materializes:
# draws u (4), exponential weights w (4), normalized weights (4), Klein points
# (3), squared radius (1) and density f (1); each written once and read once
MC_ELEMENTS_PER_SAMPLE = 4 + 4 + 4 + 3 + 1 + 1
MC_BYTES_PER_SAMPLE = 2 * 8 * MC_ELEMENTS_PER_SAMPLE
DEFAULT_MC_SHARD = 1 << 16


def import_pinned():
    """Import `octmoduli.cli` and fail unless it resolves to this checkout's src/."""
    import octmoduli
    import octmoduli.cli
    where = Path(octmoduli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: octmoduli resolved to {where}, expected it under {SRC}")
    return octmoduli


class Tracer:
    """Record spans of the public functions of `octmoduli` while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        mc_shard = getattr(sys.modules["octmoduli.volume"], "_SHARD_SIZE", DEFAULT_MC_SHARD)
        self._observers = {
            "decomposition.svg_net": lambda out: {
                "decomposition.svg_net.bytes": len(out.encode("utf-8"))},
            "volume.monte_carlo_volume": lambda est: {
                "volume.mc.samples": est.samples,
                "volume.mc.shards": math.ceil(est.samples / mc_shard)},
        }

    def traced_functions(self) -> dict[str, object]:
        """'layer.function' -> function, for the public API and `cli.main`."""
        found = {}
        for name in self.package.__all__:
            fn = getattr(self.package, name)
            if callable(fn) and not isinstance(fn, type):
                found[fn.__module__.rsplit(".", 1)[-1] + "." + fn.__name__] = fn
        found["cli.main"] = sys.modules["octmoduli.cli"].main
        return found

    def _wrap(self, key: str, fn):
        spans = self.spans
        local = self._local
        clock = time.perf_counter
        observe = self._observers.get(key)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, parent, start, end)
            if observe is not None:
                for name, value in observe(out).items():
                    counters[name] = counters.get(name, 0) + value
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of the traced functions; restore them on exit."""
        keys = {id(fn): key for key, fn in self.traced_functions().items()}
        wrappers, patches = {}, []
        try:
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "octmoduli"
                                          or modname.startswith("octmoduli.")):
                    continue
                for attr, value in list(vars(module).items()):
                    key = keys.get(id(value))
                    if key is None:
                        continue
                    if key not in wrappers:
                        wrappers[key] = self._wrap(key, value)
                    setattr(module, attr, wrappers[key])
                    patches.append((module, attr, value))
            yield self
        finally:
            for module, attr, fn in reversed(patches):
                setattr(module, attr, fn)

    def summary(self) -> dict:
        """{'functions': {key: [calls, self_s]}, 'counters': {...}} over all spans."""
        child_time = [0.0] * len(self.spans)
        for key, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        functions: dict[str, list] = {}
        for (key, _, start, end), inner in zip(self.spans, child_time):
            entry = functions.setdefault(key, [0, 0.0])
            entry[0] += 1
            entry[1] += (end - start) - inner
        return {"functions": functions, "counters": dict(self.counters)}


def merge_summaries(parts) -> dict:
    functions: dict[str, list] = {}
    counters: dict[str, float] = {}
    for part in parts:
        for key, (calls, self_s) in part["functions"].items():
            entry = functions.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in part["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"functions": functions, "counters": counters}


# In-process CLI calls made, traced, after every traced pass, so that every
# layer has measured calls on every workload, including the layers a workload
# bypasses.  `{svg}` is replaced by a scratch file path.
PROBE_ARGV = (
    ("dihedral", "--deficits", "2pi/3,2pi/3,2pi/3"),
    ("volume", "--deficits", "pi,pi/2,pi/2", "--mc", "10000", "--seed", "1"),
    ("distance", "--deficits", "2pi/3,2pi/3,2pi/3", "--chart1", "1,1,1,1",
     "--chart2", "2,1,1,1"),
    ("embed", "--vertices", "[[1,0,0],[0,1,0],[0,0,1]]"),
    ("chart", "--deficits", "2pi/3,2pi/3,2pi/3", "--chart", "1,1,1,1", "--svg", "{svg}"),
)


def run_probe(package, svg_path: str) -> dict:
    """Run PROBE_ARGV traced in this process; returns its summary plus CLI output counts."""
    probe = Tracer(package)
    buffer = io.StringIO()
    with probe.installed(), contextlib.redirect_stdout(buffer):
        for argv in PROBE_ARGV:
            argv = [svg_path if a == "{svg}" else a for a in argv]
            code = sys.modules["octmoduli.cli"].main(argv)
            if code != 0:
                raise RuntimeError(f"probe {argv[0]} exited {code}")
    out = probe.summary()
    text = buffer.getvalue()
    out["counters"]["cli.lines_out"] = text.count("\n")
    out["counters"]["cli.bytes_out"] = len(text.encode("utf-8"))
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SUMMARY.json -- CLI-ARGS...", file=sys.stderr)
        return 2
    package = import_pinned()
    tracer = Tracer(package)
    try:
        with tracer.installed():
            code = sys.modules["octmoduli.cli"].main(argv[2:])
    finally:
        sys.stdout.flush()
        Path(argv[0]).write_text(json.dumps(tracer.summary()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
