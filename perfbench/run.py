"""AdaWave benchmark: closed-loop workloads against the public ``repro`` API.

Run from the repository root::

    python3 perfbench/run.py --workload fit-2d-points --seed 1 --seconds 30 --trace 0

One process, one calling thread: each operation starts after the previous one
returned (a closed loop with a single caller), so no queue forms.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics instead.  The
lines before it record the host, the inputs, the sample counts and the raw
wall times.  See ``perfbench/README.md`` for the workloads and the
layer -> metric table.

Times are reported at a reference host speed.  A small program-independent
probe runs between operations; each operation's wall time is scaled by
``REF_PROBE_MS`` over the probes taken around it, so a stretch in which a
shared host runs everything slower does not read as a slower program.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from layers import COUNT_NAMES, LAYER_TARGETS, Tracer, install  # noqa: E402
from workloads import OP_KINDS, WORKLOADS, CheckFailed, make_inputs, make_session  # noqa: E402

#: Fresh processes timed per run for ``setup_s``, by input size; the median
#: is reported.
SETUP_REPEATS = {"full": 3, "tiny": 1}
#: The probe's time when the host runs at full speed (a quiet 2-vCPU Xeon,
#: Sapphire Rapids, under KVM: 0.46-0.49 ms).  Reported times are wall times
#: scaled to this probe time.
REF_PROBE_MS = 0.47
#: The loop probes the host after an op once this many seconds have passed
#: since its last probe.
PROBE_EVERY_S = 0.05
#: An op is scaled by the median of the probes within this many seconds of
#: its end (the host's speed holds for about that long), or by the first
#: probe after it when none is that close.  A median of several probes keeps
#: one probe's own noise out of the tails.
PROBE_WINDOW_S = 0.25
#: Segments a run is cut into; every phase of a session runs in each one, so
#: a short phase's samples spread over the whole run instead of sharing one
#: stretch of the host's load.
SEGMENTS = 10
OUT_DIR = ROOT / ".perfbench"


_PROBE_DATA = np.random.default_rng(0).random(64_000)


def _probe_unit() -> float:
    # About a third Python loop and two thirds numpy sort: on a loaded host
    # the loop slows more than vectorised numpy code, the sort slightly less.
    start = time.perf_counter()
    total = 0
    for i in range(2_000):
        total += i * i % 7
    np.sort(_PROBE_DATA)
    return time.perf_counter() - start


def probe_ms() -> float:
    """A fixed, program-independent CPU probe: a Python loop plus a numpy sort.

    The median of three timings (under 2 ms together), so an interrupt in
    one of them does not count.  It touches no program object, so a change
    to the program cannot change its time, only the host can.
    """
    return statistics.median(_probe_unit() for _ in range(3)) * 1e3


def host_probe_ms() -> float:
    """The median of 15 probes: the host's speed before or after a run."""
    return statistics.median(probe_ms() for _ in range(15))


def speed_scale(probe: float) -> float:
    """Factor from wall time to time at the reference host speed."""
    return REF_PROBE_MS / probe


def host_record() -> dict:
    import scipy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With 20 samples or fewer no sample above the median has ten beyond it;
    the median is reported then.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 20:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def import_repro():
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


# -- set-up --------------------------------------------------------------------


def setup_child(args) -> int:
    """Time import, construction and the first op in this fresh process.

    Probes before and after scale the wall times to the reference speed.
    """
    inputs = make_inputs(args.workload, args.seed, args.size)
    gc.collect()
    before = host_probe_ms()
    start = time.perf_counter()
    import_repro()
    imported = time.perf_counter()
    make_session(inputs).first_op()
    done = time.perf_counter()
    scale = speed_scale((before + host_probe_ms()) / 2)
    print(json.dumps({
        "import_s": (imported - start) * scale,
        "setup_s": (done - start) * scale,
        "wall_setup_s": done - start,
    }))
    return 0


def measure_setup(args, repeats: int) -> dict:
    """Median import and set-up seconds over ``repeats`` fresh processes."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-child", "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size],
            capture_output=True, text=True, timeout=150, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr[-2000:]}")
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# -- the closed loop -----------------------------------------------------------


class Loop:
    """Runs the phases of a session, timing every op and counting failures.

    ``samples`` holds untraced ops' wall seconds and ``ends`` their end
    times; ``traced_samples`` holds traced ops' wall seconds; ``probes``
    holds (time, ms) of every host probe.
    """

    def __init__(self, session, tracer: Tracer) -> None:
        self.session = session
        self.tracer = tracer
        self.samples = defaultdict(list)
        self.ends = defaultdict(list)
        self.traced_samples = defaultdict(list)
        self.probes: list = []
        self._last_probe = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def timed(self, kind, fn, *args):
        self.attempted += 1
        if self.tracer.enabled:
            result, seconds = self.tracer.op(kind, fn, *args)
            self.traced_samples[kind].append(seconds)
        else:
            start = time.perf_counter()
            result = fn(*args)
            end = time.perf_counter()
            self.samples[kind].append(end - start)
            self.ends[kind].append(end)
            if end - self._last_probe >= PROBE_EVERY_S:
                self.probe()
        return result

    def probe(self) -> None:
        self.probes.append((time.perf_counter(), probe_ms()))
        self._last_probe = time.perf_counter()

    def scaled(self, kind: str) -> list:
        """The untraced ``kind`` ops' wall seconds at the reference speed."""
        times = [t for t, _ in self.probes]
        out = []
        for end, seconds in zip(self.ends[kind], self.samples[kind]):
            lo = bisect.bisect_left(times, end - PROBE_WINDOW_S)
            hi = max(bisect.bisect_right(times, end + PROBE_WINDOW_S), lo + 1)
            probe = statistics.median(ms for _, ms in self.probes[lo:hi])
            out.append(seconds * speed_scale(probe))
        return out

    def median_probe_ms(self) -> float:
        """The run's median probe."""
        return statistics.median(ms for _, ms in self.probes)

    def fail(self, error) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(error).__name__}: {error}")

    def round(self, run_round, r: int) -> None:
        """One round; an op that raises or fails its check ends the round as failed."""
        try:
            run_round(r, self.timed)
        except Exception as error:
            self.fail(error)

    def run_for(self, seconds: float, trace_every_other: bool = False) -> None:
        """Run the session's phases in turn, each for its share of every segment.

        Each phase resumes its rounds where its previous segment left them.
        Deadlines count from the start of the run, so a round that overruns
        one stretch shortens the next instead of lengthening the run.
        """
        rounds = [0] * len(self.session.phases)
        start = time.perf_counter()
        done = 0.0
        for _ in range(SEGMENTS):
            for i, (share, run_round, cycle) in enumerate(self.session.phases):
                done += share / SEGMENTS
                deadline = start + done * seconds
                while time.perf_counter() < deadline:
                    r = rounds[i]
                    if trace_every_other:
                        # Alternate traced and untraced rounds.  With an even
                        # cycle, flip the parity every cycle so both halves
                        # see every batch of it.
                        flip = r // cycle if cycle % 2 == 0 else 0
                        self.tracer.enabled = (r + flip) % 2 == 0
                    self.round(run_round, r)
                    rounds[i] = r + 1
                self.tracer.enabled = False
        # Every untraced op then has a probe after it.
        self.probe()


def fresh_session(inputs):
    session = make_session(inputs)
    session.first_op()
    session.verify_first()
    return session


def memory_peak_mb(inputs) -> float:
    """tracemalloc peak over one round (fits) or one cycle (stream), untimed.

    The pass runs ``memory_rounds`` rounds of a fresh session, starting after
    the first ``memory_rounds``: there the stream session keeps no labels for
    scoring, so only the program's own allocations count.
    """
    session = fresh_session(inputs)
    gc.collect()
    tracemalloc.start()
    try:
        for r in range(session.memory_rounds, 2 * session.memory_rounds):
            session.run_round(r, lambda kind, fn, *a: fn(*a))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        session.close()
    return peak / 2**20


def count_pass(inputs, tracer: Tracer) -> dict:
    """Counts over the first ``count_rounds`` rounds of a fresh session's first phase."""
    session = fresh_session(inputs)
    controller = getattr(session, "controller", None)
    tracer.last_swapped = controller.model_ if controller is not None else None
    tracer.counts.clear()
    tracer.enabled = tracer.counting = True
    try:
        for r in range(session.count_rounds):
            session.run_round(r, lambda kind, fn, *a: tracer.op(kind, fn, *a)[0])
    finally:
        tracer.enabled = tracer.counting = False
        session.close()
    return {name: int(tracer.counts[name]) for name in COUNT_NAMES}


# -- metrics -------------------------------------------------------------------


def end_to_end(loop: Loop, setup: dict, peak_mb: float, ami: float) -> dict:
    metrics = {"setup_s": {"value": setup["setup_s"], "unit": "s"}}
    for kind in OP_KINDS:
        # Every op of a kind failing leaves no samples; the run is then
        # already marked incorrect.
        ms = [s * 1e3 for s in loop.scaled(kind)] or [0.0]
        metrics[f"{kind}_ms_p50"] = {"value": statistics.median(ms), "unit": "ms"}
        metrics[f"{kind}_ms_tail"] = {"value": tail(ms)[0], "unit": "ms"}
    metrics["peak_mb"] = {"value": peak_mb, "unit": "MB"}
    metrics["ami"] = {"value": ami, "unit": "1"}
    return metrics


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(loop: Loop, tracer: Tracer, setup: dict, counts: dict) -> dict:
    metrics = {"setup.import_s": {"value": setup["import_s"], "unit": "s"}}
    # Self time per op of each kind, summed over the kinds the layer runs in,
    # at the reference speed by the run's median probe.
    by_layer = defaultdict(float)
    for (kind, name), seconds in tracer.self_s.items():
        by_layer[name] += _share(seconds, len(loop.traced_samples[kind]))
    for name in LAYER_TARGETS:
        metrics[f"{name}_ms"] = {
            "value": by_layer[name] * 1e3 * speed_scale(loop.median_probe_ms()), "unit": "ms",
        }
    for name in COUNT_NAMES:
        metrics[name] = {"value": counts[name], "unit": "count"}
    ratios = {
        "core.survivor_share": _share(counts["core.survivor_cells"], counts["core.transformed_cells"]),
        "tune.winner_share": _share(counts["tune.sweeps"], counts["tune.candidates"]),
        "stream.retune_share": _share(counts["stream.retunes"], counts["stream.checks"]),
        "stream.changed_share": _share(counts["stream.changed"], counts["stream.retunes"]),
    }
    op_total = {k: sum(loop.traced_samples[k]) for k in OP_KINDS}
    uncovered = {k: tracer.self_s.get((k, "op." + k), 0.0) for k in OP_KINDS}
    ratios["trace.coverage"] = 1.0 - _share(sum(uncovered.values()), sum(op_total.values()))
    for kind in OP_KINDS:
        ratios[f"trace.coverage_{kind}"] = 1.0 - _share(uncovered[kind], op_total[kind])
        ratios[f"trace.overhead_{kind}"] = _share(
            statistics.median(loop.traced_samples[kind] or [0.0]),
            statistics.median(loop.samples[kind] or [0.0]),
        )
    fit_self = lambda *names: sum(tracer.self_s.get(("fit", n), 0.0) for n in names)  # noqa: E731
    ratios["split.point_side_share"] = _share(fit_self("grid.quantize", "grid.label"), op_total["fit"])
    ratios["split.grid_side_share"] = _share(
        fit_self("grid.line_gather", "core.transform", "wavelets.kernel"), op_total["fit"]
    )
    for name, value in ratios.items():
        metrics[name] = {"value": value, "unit": "1"}
    return metrics


def layer_table(loop: Loop, tracer: Tracer) -> dict:
    """Self-time share of each layer in each op kind (traced rounds)."""
    table = {}
    for kind in OP_KINDS:
        total = sum(loop.traced_samples[kind])
        table[kind] = {
            name: round(_share(seconds, total), 4)
            for (k, name), seconds in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
            if k == kind
        }
    return table


# -- entry point -----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the smoke test")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run(args) -> dict:
    probe_before = host_probe_ms()
    inputs = make_inputs(args.workload, args.seed, args.size)
    import_repro()
    setup = measure_setup(args, SETUP_REPEATS[args.size])
    tracer = Tracer()
    session = fresh_session(inputs)
    loop = Loop(session, tracer)
    if args.trace:
        install(tracer)
        try:
            counts = count_pass(inputs, tracer)
            repeat = count_pass(inputs, tracer)
            if counts != repeat:
                raise CheckFailed(f"traced counts differ between two passes: {counts} vs {repeat}")
        except Exception as error:
            loop.fail(error)
            counts = {name: 0 for name in COUNT_NAMES}
        tracer.self_s.clear()
        tracer.spans.clear()
    loop.run_for(args.seconds, trace_every_other=bool(args.trace))
    if args.trace:
        metrics = per_layer(loop, tracer, setup, counts)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        print("layers " + json.dumps(layer_table(loop, tracer)))
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        try:
            peak_mb = memory_peak_mb(inputs)
        except Exception as error:
            loop.fail(error)
            peak_mb = 0.0
        metrics = end_to_end(loop, setup, peak_mb, session.ami())
    session.close()
    properties = dict(inputs.properties)
    if hasattr(session, "retunes_per_cycle"):
        properties["retunes_per_cycle"] = session.retunes_per_cycle()
    print("inputs " + json.dumps(properties))
    samples = loop.traced_samples if args.trace else loop.samples
    print("samples " + json.dumps({
        kind: {"count": len(samples[kind]), "tail_percentile": round(tail(samples[kind])[1], 2)}
        for kind in OP_KINDS if samples[kind]
    }))
    wall = {"setup_s": round(setup["wall_setup_s"], 4)}
    for kind in OP_KINDS:
        if loop.samples[kind]:
            ms = [s * 1e3 for s in loop.samples[kind]]
            wall[f"{kind}_ms_p50"] = round(statistics.median(ms), 3)
            wall[f"{kind}_ms_tail"] = round(tail(ms)[0], 3)
    print("wall " + json.dumps(wall))
    host = host_record()
    host["probe_ms_before"] = round(probe_before, 4)
    host["probe_ms_run"] = round(loop.median_probe_ms(), 4)
    host["probes"] = len(loop.probes)
    host["probe_ms_after"] = round(host_probe_ms(), 4)
    host["probe_ms_ref"] = REF_PROBE_MS
    print("host " + json.dumps(host))
    for error in loop.errors:
        print("failure " + error)
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC / 'repro'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
