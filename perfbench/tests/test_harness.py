"""Smoke tests of the benchmark harness, run in its tiny mode.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from mindef import generators, oracle  # noqa: E402


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = run_tiny(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert any(line.split()[:1] == [m["name"]] and line.endswith(m["unit"])
                   for line in lines[:-1]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reply_is_counted_as_failed(workload, monkeypatch):
    real_send = harness.send
    corrupted = []

    def send(request):
        code, reply, seconds = real_send(request)
        if code == 0 and not corrupted:
            corrupted.append(request)
            reply += "{bogus}\n"
        return code, reply, seconds

    monkeypatch.setattr(harness, "send", send)
    result = harness.run(workload, 5, 0, False, tiny=True)
    assert corrupted
    assert result["failed"] == 1 and not result["correct"]
    frac = result["metrics"]["answered_frac"]["value"]
    assert frac == pytest.approx(1 - 1 / result["attempted"])


def test_runs_without_sources_exit_nonzero_and_print_no_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_latencies_are_rescaled_by_the_reference_around_them():
    nominal = speed.REF_NOMINAL_S
    phase = harness.Phase()
    phase.refs.append(2 * nominal)  # the host runs at half speed, then full
    answered = workloads.Request(None, lambda reply: None)
    phase.record(0, answered, 0, "{}", 0.2, 2 * nominal)
    phase.record(1, answered, 0, "{}", 0.3, nominal)
    phase.record(2, answered, 3, "", 1.0, nominal)
    phase.finish()
    # a refusal keeps its wall time: the budget the user set
    assert list(phase.scaled) == pytest.approx([0.1, 0.2, 1.0])
    assert phase.requests_per_s() == pytest.approx(3 / 1.3)


@pytest.mark.parametrize("seed", range(4))
def test_two_cycle_closed_forms_match_the_oracle(seed):
    af, p, kinds = workloads.two_cycles(4, True, random.Random(seed))
    families = {
        "conflict-free": oracle.oracle_conflict_free(af),
        "admissible": oracle.oracle_admissible(af),
        "preferred": oracle.oracle_preferred(af),
        "restricted-admissible": oracle.oracle_restrictedly_admissible(af, p),
        "min-def": oracle.oracle_min_def(af, p),
    }
    for sem, family in families.items():
        expected = 1
        for kind in kinds:
            expected *= workloads.cycle_count(sem, kind)
        assert len(family) == expected, sem


def test_renaming_keeps_the_index_order():
    af, p = generators.random_instance(
        generators.GeneratorConfig(30, 0.1, 0.7, 0.3, seed=2))
    new_af, new_p, back = workloads._renamed(af, p, random.Random(9))
    assert new_af.attacks == af.attacks
    assert new_p.focus.mask == p.focus.mask
    assert new_p.restricted.mask == p.restricted.mask
    assert [back[name] for name in new_af.names] == list(af.names)
