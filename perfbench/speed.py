"""The speed reference that the benchmark's times are normalised by.

On a shared host the CPU speed a process gets swings by tens of percent
within a second. :func:`reference` is a fixed piece of pure-Python work of
the kind mindef does (integer bit masks, small dicts and tuples, sorting and
joining names); timing it just before and just after a stretch of the
program's work tells how fast the host ran during that stretch. A time
multiplied by ``REF_NOMINAL_S`` over the reference time is what the work
would take at the speed where the reference takes ``REF_NOMINAL_S``.

This module imports nothing that mindef imports, so that ``run.py
--time-import`` can take a reference sample before importing mindef.
"""

import gc
import time

# time of reference() at the speed the reported times are scaled to
REF_NOMINAL_S = 0.6e-3


def reference():
    """Fixed pure-Python work whose time tracks the speed the host gives us."""
    table = {}
    acc = 0
    m = 0x9E3779B97F4A7C15
    for i in range(400):
        m = (((m << 1) | (m >> 63)) & 0xFFFFFFFFFFFFFFFF) ^ i
        key = (i % 37, m & 0xFF)
        table[key] = table.get(key, 0) | (1 << (m % 200))
        acc += bin(table[key] & m).count("1")
    names = sorted(f"a{v % 997}" for v in table.values())
    return acc + len(",".join(names))


def reference_seconds(repeats=1):
    """Mean time of ``repeats`` calls of :func:`reference`.

    A mean, so that its expected value does not depend on ``repeats``.
    """
    total = 0.0
    gc.disable()  # a collection of the program's garbage is not speed
    try:
        for _ in range(repeats):
            started = time.perf_counter()
            reference()
            total += time.perf_counter() - started
    finally:
        gc.enable()
    return total / repeats


def rescaled(seconds, ref_before, ref_after):
    """``seconds`` of work done between two reference samples, normalised."""
    return seconds * REF_NOMINAL_S * 2 / (ref_before + ref_after)
