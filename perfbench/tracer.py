"""Span tracing of mindef's layers from outside the package.

The tracer rebinds module-level names of mindef at run time (and puts the
originals back afterwards), so no source file changes. Each wrapped call
records a span ``[name, start, end, parent, request_id]`` in memory; counts
are recorded at the same boundaries. Spans are written out once, at the end
of a run.

Layers, the public call each one times, and the end-to-end metric and
workload an optimisation of that layer should move:

================== ================================ ========================
layer              spans                            should move, on
================== ================================ ========================
afp.parse          parse_afp                        latency_ms.p50 on
                                                    small-requests
extensions.solve   the six entry functions          latency_ms.p50 on
                                                    small-requests
kernels.dfs        dfs_enumerate                    requests_per_s on
                                                    wide-families (and its
                                                    preferred n=60 probe)
extensions.minimize minimize_restricted             latency_ms.p90,
                                                    answered_frac on
                                                    mindef-minimize
extensions.filter  filter_maximal                   latency_ms.p50 on
                                                    mindef-minimize
extensions.family  ExtensionFamily(...)             latency_ms.p50,
                                                    peak_rss_mb on
                                                    wide-families
kernels.scan       subset_scan + oracle._scan       latency_ms.p50 on
                                                    small-requests
cli.render         run_cli minus execute            latency_ms.p50 on
                                                    wide-families
cli.execute        execute minus the layers above   latency_ms.p50 on
                                                    small-requests
generators.instance random_instance + serialize_afp setup_s on
                                                    mindef-minimize
================== ================================ ========================

A layer's self time is its spans' durations minus the time their child
spans cover. ``kernels.dfs.leaves`` counts the fallback kernel's recursive
``walk`` calls that reach full depth, on an untimed replay of a sample of
the requests (see :meth:`Tracer.end_request`); a kernel without that helper
reports 0 leaves.
"""

import json
import sys
import time
import types
from collections import Counter, defaultdict

from mindef import _kernels, afp, cli, extensions, generators, oracle
from mindef.errors import BudgetExceeded

ENTRY_POINTS = ("conflict_free_sets", "admissible_sets",
                "restrictedly_admissible_sets", "preferred_extensions",
                "preferred_extensions_on", "min_def_extensions")

# span name -> layer
LAYER_OF = {
    "afp.parse_afp": "afp.parse",
    **{f"extensions.{name}": "extensions.solve" for name in ENTRY_POINTS},
    "_kernels.dfs_enumerate": "kernels.dfs",
    "extensions.minimize_restricted": "extensions.minimize",
    "extensions.filter_maximal": "extensions.filter",
    "extensions.ExtensionFamily": "extensions.family",
    "oracle._scan": "kernels.scan",
    "_kernels.subset_scan": "kernels.scan",
    "cli.run_cli": "cli.render",
    "cli.execute": "cli.execute",
    "generators.random_instance": "generators.instance",
    "afp.serialize_afp": "generators.instance",
}

# every LEAF_SAMPLE-th traced request has its kernel calls replayed to count
# leaves
LEAF_SAMPLE = 4

LAYERS = ("afp.parse", "extensions.solve", "kernels.dfs",
          "extensions.minimize", "extensions.filter", "extensions.family",
          "kernels.scan", "cli.render", "cli.execute")


def _walk_code():
    for const in _kernels._dfs_py.__code__.co_consts:
        if isinstance(const, types.CodeType) and const.co_name == "walk":
            return const
    return None


class Tracer:
    """Records spans and counts while its patches are applied."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.request_id = None
        self._stack = []
        self._patches = []
        self._replays = []

    # -- spans -----------------------------------------------------------

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request_id])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    # -- patching --------------------------------------------------------

    def _set(self, module, attr, value):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def _span(self, module, attr, name, count=None):
        fn = getattr(module, attr)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if count is not None:
                count(args, result)
            return result

        self._set(module, attr, traced)

    def _counter(self, module, attr, count):
        fn = getattr(module, attr)

        def counted(*args, **kwargs):
            count(args)
            return fn(*args, **kwargs)

        self._set(module, attr, counted)

    def __enter__(self):
        c = self.counts
        self._span(cli, "run_cli", "cli.run_cli")
        self._span(cli, "execute", "cli.execute")

        def parsed(args, result):
            c["afp.parse.calls"] += 1
            c["afp.parse.bytes"] += len(args[0])
        self._span(cli, "parse_afp", "afp.parse_afp", parsed)

        def entered(args, result):
            c["extensions.solve.calls"] += 1
        for name in ENTRY_POINTS:
            self._span(extensions, name, f"extensions.{name}", entered)

        def space(args):
            c["extensions.solve.space_in"] += args[1].bit_count()
        self._counter(extensions, "_solve_space", space)
        self._dfs()
        self._minimize()

        def filtered(args, result):
            c["extensions.filter.calls"] += 1
            c["extensions.filter.in"] += len(args[0])
            c["extensions.filter.out"] += len(result)
        self._span(extensions, "filter_maximal", "extensions.filter_maximal",
                   filtered)
        self._span(oracle, "filter_maximal", "extensions.filter_maximal",
                   filtered)
        self._family()

        def scanned(args, result):
            c["kernels.scan.calls"] += 1
            c["kernels.scan.patterns"] += 1 << args[0]
            c["kernels.scan.kept"] += len(result)
        self._span(oracle, "_scan", "oracle._scan")
        self._span(_kernels, "subset_scan", "_kernels.subset_scan", scanned)
        self._span(generators, "random_instance", "generators.random_instance")
        self._span(afp, "serialize_afp", "afp.serialize_afp")
        return self

    def __exit__(self, *exc):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        return False

    def _dfs(self):
        fn = _kernels.dfs_enumerate
        tracer = self
        c = self.counts

        def traced(k, pos_idx, suffix_avail, forced_mask, *rest):
            sid = tracer.open("_kernels.dfs_enumerate")
            try:
                result = fn(k, pos_idx, suffix_avail, forced_mask, *rest)
            finally:
                tracer.close(sid)
            c["kernels.dfs.calls"] += 1
            c["extensions.solve.candidates"] += k
            c["kernels.dfs.candidates"] += len(pos_idx)
            c["kernels.dfs.forced"] += forced_mask.bit_count()
            if tracer.request_id is not None and (
                    tracer.request_id % LEAF_SAMPLE == 0):
                tracer._replays.append(
                    (fn, (k, pos_idx, suffix_avail, forced_mask, *rest)))
            return result

        self._set(_kernels, "dfs_enumerate", traced)

    def end_request(self):
        """Close the current request; replay its sampled kernel calls.

        The replay runs the kernel again, without a deadline and outside
        every span, under a ``sys.settrace`` hook that counts the recursive
        ``walk`` calls reaching full depth. The hook slows the kernel several
        times over, which is why it never runs inside a timed span.
        """
        if self.request_id is not None and self.request_id % LEAF_SAMPLE == 0:
            self.counts["kernels.dfs.sampled_requests"] += 1
        self.request_id = None
        replays, self._replays = self._replays, []
        walk = _walk_code()
        for fn, args in replays if walk is not None else ():
            npos = len(args[1])
            leaves = 0

            def hook(frame, event, arg):
                nonlocal leaves
                if frame.f_code is walk and frame.f_locals["depth"] == npos:
                    leaves += 1

            previous = sys.gettrace()
            sys.settrace(hook)
            try:
                kept = len(fn(*args[:-1], None))
            finally:
                sys.settrace(previous)
            self.counts["kernels.dfs.sampled_leaves"] += leaves
            self.counts["kernels.dfs.sampled_kept"] += kept

    def _minimize(self):
        fn = extensions.minimize_restricted
        tracer = self
        c = self.counts

        def traced(af, p, e, budget=None):
            sid = tracer.open("extensions.minimize_restricted")
            c["extensions.minimize.calls"] += 1
            c["extensions.minimize.restricted_in"] += (
                e.mask & p.restricted.mask).bit_count()
            try:
                result = fn(af, p, e, budget)
            except BudgetExceeded:
                c["extensions.minimize.budget_refusals"] += 1
                raise
            finally:
                tracer.close(sid)
            c["extensions.minimize.supports"] += len(result)
            return result

        def checked(args):
            c["extensions.minimize.admissible_checks"] += 1

        self._set(extensions, "minimize_restricted", traced)
        self._counter(extensions, "is_admissible", checked)

    def _family(self):
        base = extensions.ExtensionFamily
        tracer = self
        c = self.counts

        class TracedFamily(base):
            __slots__ = ()

            def __init__(self, members):
                sid = tracer.open("extensions.ExtensionFamily")
                try:
                    super().__init__(members)
                finally:
                    tracer.close(sid)
                c["extensions.family.calls"] += 1
                c["extensions.family.members"] += len(self)

        self._set(extensions, "ExtensionFamily", TracedFamily)
        self._set(oracle, "ExtensionFamily", TracedFamily)

    # -- reports ---------------------------------------------------------

    def self_times(self):
        """Self seconds per (layer, request id)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, (name, start, end, _, rid) in enumerate(self.spans):
            out[LAYER_OF[name], rid] += end - start - child[sid]
        return out

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for name, start, end, parent, rid in self.spans:
                handle.write(json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "request": rid}) + "\n")
