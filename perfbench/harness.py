"""Closed-loop load: one client, no threads, one request at a time.

Each request goes through ``mindef.cli.run_cli`` (parse, solve, render into
an in-memory buffer); the client waits for the reply, checks it and sends
the next one. A timed phase makes whole passes over the workload's request
list, at least one and as many more as fit in ``--seconds``, so every
request of the list is measured equally often; a hard cap ends a phase
mid-pass if the program becomes very slow.

Latency is send-to-reply time; ``requests_per_s`` divides the requests
completed by the summed send-to-reply time, so the client's own checking is
not charged to the program. A request is *answered* when it exits 0 with a
reply that passes its check. A budget refusal (exit 3) is unanswered but is
not a failure: failures are wrong replies, uncaught exceptions and any other
exit code, and they make the run incorrect.

Speed-normalised times. On a shared host the CPU speed a process gets
swings by tens of percent within a second, far more than the changes the
benchmark is meant to show. Between two requests the client times the
reference work of :mod:`speed`, and each answered request's latency is
rescaled by the mean of the reference times just before and just after it
(:func:`speed.rescaled`). The reported times thus move with the program's
own work, not with the host's. A refusal's latency is the wall-clock budget
the user set, so it is not rescaled. Set-up time is rescaled the same way,
in stretches of ``SETUP_STRETCH_S`` seconds. The wall times are printed
too, as ``wall.*`` lines.
"""

import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

from mindef import _kernels, afp, cli, generators
from mindef.extensions import SearchBudget
from speed import reference_seconds, rescaled
from tracer import LAYERS, Tracer
from workloads import POPULATIONS, WORKLOADS, digest, plain_sets

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 7
SETUP_STRETCH_S = 0.02
# after a request this long, the reference is sampled three times
LONG_S = 5e-3
# phase caps keep a run well inside three minutes if the program slows down
PLAIN_CAP_S = 120.0
TRACED_CAP_S = 60.0

END_TO_END = (
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("requests_per_s", "1/s"),
    ("answered_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("afp.parse.calls", "calls/req"),
    ("afp.parse.self_ms", "ms/req"),
    ("afp.parse.bytes", "B/req"),
    ("extensions.solve.calls", "calls/req"),
    ("extensions.solve.self_ms", "ms/req"),
    ("extensions.solve.space_in", "args/req"),
    ("extensions.solve.candidates", "args/req"),
    ("kernels.dfs.calls", "calls/req"),
    ("kernels.dfs.self_ms", "ms/req"),
    ("kernels.dfs.candidates", "args/req"),
    ("kernels.dfs.forced", "args/req"),
    ("kernels.dfs.leaves", "leaves/req"),
    ("kernels.dfs.kept_ratio", "ratio"),
    ("extensions.minimize.calls", "calls/req"),
    ("extensions.minimize.self_ms", "ms/req"),
    ("extensions.minimize.restricted_in", "args/req"),
    ("extensions.minimize.admissible_checks", "checks/req"),
    ("extensions.minimize.supports", "sets/req"),
    ("extensions.minimize.useful_ratio", "ratio"),
    ("extensions.minimize.budget_refusals", "refusals/req"),
    ("extensions.filter.calls", "calls/req"),
    ("extensions.filter.self_ms", "ms/req"),
    ("extensions.filter.in", "sets/req"),
    ("extensions.filter.out", "sets/req"),
    ("extensions.family.calls", "calls/req"),
    ("extensions.family.self_ms", "ms/req"),
    ("extensions.family.members", "sets/req"),
    ("kernels.scan.calls", "calls/req"),
    ("kernels.scan.self_ms", "ms/req"),
    ("kernels.scan.patterns", "patterns/req"),
    ("kernels.scan.kept", "sets/req"),
    ("cli.render.self_ms", "ms/req"),
    ("cli.render.bytes", "B/req"),
    ("cli.execute.self_ms", "ms/req"),
    ("generators.instance.self_ms", "ms"),
    ("tracing.latency_ms", "ms/req"),
    ("tracing.rps_delta", "1/s"),
    ("tracing.overhead_frac", "ratio"),
)


class SetupClock:
    """Speed-normalised stopwatch for set-up work that calls :meth:`tick`.

    Each stretch of at least ``SETUP_STRETCH_S`` seconds between two
    reference samples is rescaled by the mean of the samples at its ends,
    like a request.
    """

    def __init__(self):
        self.wall = self.scaled = 0.0
        self.ref = reference_seconds(5)
        self.mark = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self.mark >= SETUP_STRETCH_S:
            self._close()

    def _close(self):
        spent = time.perf_counter() - self.mark
        ref = reference_seconds()
        self.wall += spent
        self.scaled += rescaled(spent, self.ref, ref)
        self.ref = ref
        self.mark = time.perf_counter()

    def stop(self):
        self._close()
        return self


def time_import():
    """(wall, speed-normalised) seconds a fresh interpreter takes to import
    mindef, as measured by ``run.py --time-import``."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--time-import"],
        capture_output=True, text=True, timeout=60, check=True)
    wall, scaled = map(float, done.stdout.split())
    return wall, scaled


def send(request):
    """Send one request and wait for the reply: (exit code, reply, seconds).

    The exit code is None when the CLI raised instead of returning one.
    """
    out = io.StringIO()
    started = time.perf_counter()
    try:
        _, code = cli.run_cli(request.solve, out)
    except Exception as exc:  # the CLI promises exit codes; count the crash
        return None, repr(exc), time.perf_counter() - started
    return code, out.getvalue(), time.perf_counter() - started


class Phase:
    """Outcomes of one timed phase."""

    def __init__(self):
        self.latencies = []     # wall seconds, send to reply
        self.refused = []
        self.refs = []          # reference times around the requests
        self.scaled = None      # speed-normalised latencies, see finish()
        self.outcomes = Counter()
        self.reply_bytes = 0
        self.probes = {}        # request id -> (label, exit code, seconds)
        self.examples = []      # first few failure descriptions

    def record(self, rid, request, code, reply, seconds, ref_after):
        self.latencies.append(seconds)
        self.refused.append(code == 3)
        self.refs.append(ref_after)
        if code == 0:
            why = request.check(reply)
            outcome = "answered" if why is None else "wrong"
            self.reply_bytes += len(reply)
        elif code == 3:
            outcome, why = "refused", None
        elif code is None:
            outcome, why = "crashed", reply
        else:
            outcome, why = "bad_exit", f"exit code {code}"
        self.outcomes[outcome] += 1
        if why is not None and len(self.examples) < 5:
            self.examples.append(f"request {rid}: {why}")
        if request.probe and request.probe not in {
                label for label, _, _ in self.probes.values()}:
            self.probes[rid] = (request.probe, code, seconds)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def failed(self):
        return (self.outcomes["wrong"] + self.outcomes["crashed"]
                + self.outcomes["bad_exit"])

    def finish(self):
        refs = numpy.asarray(self.refs)
        scaled = rescaled(numpy.asarray(self.latencies), refs[:-1], refs[1:])
        self.scaled = numpy.where(self.refused, self.latencies, scaled)
        return self

    def requests_per_s(self):
        return self.attempted / float(self.scaled.sum())

    def wall_requests_per_s(self):
        return self.attempted / sum(self.latencies)


def measure(requests, seconds, cap_s, tracer=None, first_id=0):
    """Whole passes over ``requests`` for about ``seconds`` seconds.

    There is at least one pass; another starts only if a pass as long as
    the last one would end within ``seconds``. The phase ends mid-pass once
    ``cap_s`` seconds have gone by.
    """
    phase = Phase()
    rid = first_id
    phase.refs.append(reference_seconds())
    started = time.perf_counter()
    # the CLI prints refusals to standard error
    with contextlib.redirect_stderr(io.StringIO()):
        while True:
            pass_started = time.perf_counter()
            for request in requests:
                if tracer is not None:
                    tracer.request_id = rid
                code, reply, spent = send(request)
                # a longer request is worth a steadier reference
                ref = reference_seconds(1 if spent < LONG_S else 3)
                if tracer is not None:
                    tracer.end_request()
                phase.record(rid, request, code, reply, spent, ref)
                rid += 1
                if time.perf_counter() - started > cap_s:
                    return phase.finish()
            now = time.perf_counter()
            if (now - started) + (now - pass_started) > seconds:
                return phase.finish()


def git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_facts():
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": _kernels.HAVE_NUMBA,
        "kernel_path": "numba" if _kernels.JIT_ENABLED else "fallback",
        "git_commit": git_commit(HERE.parent),
    }


def hd_quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A weighted mean of all order statistics, with weights from the
    Beta((n+1)q, (n+1)(1-q)) distribution. Unlike a single order statistic
    it does not jump when noise swaps neighbouring samples across the gaps
    between request sizes.
    """
    x = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    t = numpy.linspace(0.0, 1.0, 20001)[1:-1]
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    pdf = numpy.exp((a - 1) * numpy.log(t) + (b - 1) * numpy.log1p(-t)
                    - log_norm)
    cdf = numpy.concatenate(([0.0], numpy.cumsum(
        (pdf[1:] + pdf[:-1]) / 2 * (t[1] - t[0]))))
    weights = numpy.diff(numpy.interp(numpy.arange(n + 1) / n, t, cdf))
    return float(weights @ x / weights.sum())


def end_to_end(phase, setup_s):
    lat = phase.scaled
    return {
        "latency_ms.p50": hd_quantile(lat, 0.5) * 1e3,
        "latency_ms.p90": hd_quantile(lat, 0.9) * 1e3,
        "requests_per_s": phase.requests_per_s(),
        "answered_frac": phase.outcomes["answered"] / phase.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, self_times, plain, traced):
    n = traced.attempted
    selfs = Counter()
    for (layer, rid), seconds in self_times.items():
        selfs[layer, rid is None] += seconds
    c = tracer.counts
    values = {name: c[name] / n for name, _ in PER_LAYER}
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = selfs[layer, False] * 1e3 / n
    values["cli.render.bytes"] = traced.reply_bytes / n
    leaves = c["kernels.dfs.sampled_leaves"]
    values["kernels.dfs.leaves"] = (
        leaves / c["kernels.dfs.sampled_requests"] if leaves else 0.0)
    values["kernels.dfs.kept_ratio"] = (
        c["kernels.dfs.sampled_kept"] / leaves if leaves else 0.0)
    checks = c["extensions.minimize.admissible_checks"]
    values["extensions.minimize.useful_ratio"] = (
        c["extensions.minimize.supports"] / checks if checks else 0.0)
    values["generators.instance.self_ms"] = (
        selfs["generators.instance", True] * 1e3)
    values["tracing.latency_ms"] = float(traced.scaled.sum()) * 1e3 / n
    values["tracing.rps_delta"] = (traced.requests_per_s()
                                   - plain.requests_per_s())
    values["tracing.overhead_frac"] = (1.0 - traced.requests_per_s()
                                       / plain.requests_per_s())
    return values


def _layer_breakdown(self_times, rid):
    return {layer: round(seconds * 1e3, 3)
            for (layer, span_rid), seconds in self_times.items()
            if span_rid == rid}


def run(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the result object printed last."""
    build = WORKLOADS[workload]
    digests = json.loads(DIGESTS.read_text())
    facts = machine_facts()
    print(json.dumps({"machine": facts}))
    tracer = Tracer() if trace else None
    if tracer is None:
        # set-up is a fresh interpreter's import plus building the inputs
        imports = [time_import() for _ in range(IMPORT_REPEATS)]
        clocks = []
        for _ in range(SETUP_REPEATS):
            clock = SetupClock()
            requests = build(seed, digests, tiny, clock.tick)
            clocks.append(clock.stop())
        wall_setup_s = (statistics.median(wall for wall, _ in imports)
                        + statistics.median(c.wall for c in clocks))
        setup_s = (statistics.median(scaled for _, scaled in imports)
                   + statistics.median(c.scaled for c in clocks))
        gc.freeze()  # keep the request list out of the program's collections
        phases = [measure(requests, seconds, PLAIN_CAP_S)]
    else:
        with tracer:
            requests = build(seed, digests, tiny)
        gc.freeze()
        plain = measure(requests, seconds / 2, TRACED_CAP_S)
        with tracer:
            traced = measure(requests, seconds / 2, TRACED_CAP_S, tracer,
                             plain.attempted)
        phases = [plain, traced]
        self_times = tracer.self_times()

    for phase in phases:
        for rid, (label, code, spent) in phase.probes.items():
            line = {"probe": label, "exit": code,
                    "latency_ms": round(spent * 1e3, 3),
                    "traced": phase is phases[-1] and tracer is not None}
            if line["traced"]:
                line["self_ms"] = _layer_breakdown(self_times, rid)
            print(json.dumps(line))
    outcomes = sum((p.outcomes for p in phases), Counter())
    examples = [e for p in phases for e in p.examples]
    print(json.dumps({"outcomes": dict(outcomes), "examples": examples}))

    if tracer is None:
        values = end_to_end(phases[0], setup_s)
        units = dict(END_TO_END)
        wall = phases[0].latencies
        for name, value in (
                ("wall.latency_ms.p50", hd_quantile(wall, 0.5) * 1e3),
                ("wall.latency_ms.p90", hd_quantile(wall, 0.9) * 1e3),
                ("wall.requests_per_s", phases[0].wall_requests_per_s()),
                ("wall.setup_s", wall_setup_s),
                ("wall.reference_ms", statistics.median(
                    phases[0].refs) * 1e3)):
            print(f"{name:40s} {value:14.4f}")
    else:
        values = per_layer(tracer, self_times, *phases)
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"{workload}-seed{seed}.spans.jsonl"
        tracer.write(spans, {"machine": facts, "workload": workload,
                             "seed": seed})
        print(f"spans written to {spans.relative_to(HERE.parent)}")
    for name, value in values.items():
        print(f"{name:40s} {value:14.4f} {units[name]}")
    return {
        "correct": all(p.failed == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def record_digests(budget_s):
    """Solve every fixed-population instance once and store its digest.

    Instances still refused after ``budget_s`` seconds get no digest; their
    replies are checked against the semantics predicates only.
    """
    out = {}
    for workload, (population, sem) in POPULATIONS.items():
        table = out.setdefault(workload, {})
        probes, rest = population()
        for key, cfg in probes + rest:
            af, p = generators.random_instance(cfg)
            request = cli.SolveRequest(
                text=afp.serialize_afp(af, p), semantics=sem,
                budget=SearchBudget(wall_clock_seconds=budget_s))
            reply = io.StringIO()
            started = time.perf_counter()
            with contextlib.redirect_stderr(io.StringIO()):
                _, code = cli.run_cli(request, reply)
            sets = plain_sets(reply.getvalue()) if code == 0 else None
            table[key] = digest(sets) if sets else None
            print(f"{workload} {key}: exit {code} "
                  f"{time.perf_counter() - started:.2f}s", flush=True)
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
