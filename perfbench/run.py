#!/usr/bin/env python3
"""Request-level benchmark of mindef, end to end and layer by layer.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mindef-minimize --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures half
the time untraced and half traced, and reports per-layer metrics and the
tracing overhead, writing the spans to ``perfbench/out/``. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The package is imported from the
checkout's ``src/`` directory; without it the run exits with code 2.

``--record-digests`` re-solves the fixed instance populations and rewrites
``perfbench/digests.json``, the committed answers replies are checked
against. ``--time-import`` prints the wall and speed-normalised seconds
this interpreter took to import mindef; a run starts it a few times to
measure the import part of ``setup_s``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small requests per workload (smoke test)")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--time-import", action="store_true",
                        help="print the wall and speed-normalised seconds "
                        "this interpreter took to import mindef")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mindef" / "__init__.py").is_file():
        print(f"error: no mindef sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.time_import:
        import speed
        ref_before = speed.reference_seconds(5)
    started = time.perf_counter()
    import mindef
    import_s = time.perf_counter() - started
    if Path(mindef.__file__).resolve().parent != SRC / "mindef":
        print(f"error: imported mindef from {mindef.__file__}", file=sys.stderr)
        return 2
    import harness

    if args.time_import:
        ref_after = speed.reference_seconds(5)
        print(import_s, speed.rescaled(import_s, ref_before, ref_after))
        return 0
    if args.record_digests:
        harness.record_digests(budget_s=60.0)
        return 0
    if args.workload not in harness.WORKLOADS:
        print(f"error: --workload must be one of {sorted(harness.WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), tiny=args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
