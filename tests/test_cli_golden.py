"""Golden CLI bytes: the stdout digest and exit code of fixed invocations.

Criterion 11 only pins that two runs agree; this pins what they print.
``data/cli_golden.json`` maps each case to ``[exit code, sha256 of
stdout]``. The cases are the fixtures under every semantics and format,
seeded instances renamed so that name order and declaration order differ
(names such as ``a``, ``a1``, ``a10``, ``Z``, ``_x`` and ``9``), families
whose members span 7 to 129 names (across the 8- and 64-bit boundaries),
and families that hold ``{}``. The error cases (ids starting ``error:``)
map to ``[exit code, stderr]`` instead: input errors and the refusals that
do not depend on the clock.

To re-record after a deliberate change of the output, run from the
repository root::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import io
import json
import pathlib
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

import mindef as md
from mindef.afp import serialize_afp
from mindef.cli import SEMANTICS, main

HERE = pathlib.Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "cli_golden.json"
FIXTURE_DIR = HERE.parent / "fixtures"
FORMATS = ("plain", "structured")
# semantics whose families stay small on wide frameworks of isolated
# arguments (no subset-closed family)
MAXIMAL = ("preferred", "preferred-on-f", "min-def")

# no stem is a prefix of another, so stem + tail is unique
STEMS = ("a", "Z", "_x", "9", "b_", "A")
TAILS = ("", "1", "10", "2", "_", "01", "9", "a", "Z", "_0", "100", "11",
         "0", "b", "3", "20", "x", "_a", "99", "A", "12", "5", "z", "1_")
NAME_POOL = [stem + tail for stem in STEMS for tail in TAILS]
# every seeded instance uses these, so "a" < "a1" < "a10" < "Z" orderings
# and digits-before-letters all show up in its families
TRICKY = ["a", "a1", "a10", "Z", "_x", "9"]


def _afp(names, attacks, focus, restricted):
    af = md.build_framework(names, attacks)
    return serialize_afp(af, md.build_partition(af, focus, restricted))


def _renamed_instance(seed, n, p):
    """A seeded random instance under seed-drawn names from the pool."""
    af, part = md.random_instance(md.GeneratorConfig(n, p, 0.7, 0.4,
                                                     seed=seed))
    rng = random.Random(seed)
    names = TRICKY + rng.sample([x for x in NAME_POOL if x not in TRICKY],
                                n - len(TRICKY))
    rng.shuffle(names)
    return _afp(names, [(names[a], names[b]) for a, b in af.attacks],
                [names[i] for i in part.focus.indices()],
                [names[i] for i in part.restricted.indices()])


def _wide(width, seed):
    """``width`` names: two two-cycles, the rest unattacked.

    The focus leaves out one unattacked name, and the restricted part is
    three unattacked names and one two-cycle member, so min-def drops
    them from its answers.
    """
    names = random.Random(seed).sample(NAME_POOL, width)
    cycles, free = names[:4], names[4:]
    attacks = [(cycles[0], cycles[1]), (cycles[1], cycles[0]),
               (cycles[2], cycles[3]), (cycles[3], cycles[2])]
    return _afp(names, attacks, names[:-1], free[:3] + cycles[:1])


def cases():
    """(case id, AFP text, CLI arguments after the input file)."""
    out = []
    for path in sorted(FIXTURE_DIR.glob("*.afp")):
        text = path.read_text()
        for sem in SEMANTICS:
            for fmt in FORMATS:
                out.append((f"{path.stem} -s {sem} --format {fmt}", text,
                            ["-s", sem, "--format", fmt]))
    for seed, n, p in ((1, 9, 0.2), (2, 10, 0.15), (3, 11, 0.2),
                       (4, 12, 0.12), (5, 13, 0.15), (6, 10, 0.3)):
        text = _renamed_instance(seed, n, p)
        label = f"seeded{seed}-n{n}"
        for sem in SEMANTICS:
            for fmt in FORMATS:
                out.append((f"{label} -s {sem} --format {fmt}", text,
                            ["-s", sem, "--format", fmt]))
        first = text.split("arg(", 1)[1].split(")", 1)[0]
        for query in ("--credulous", "--skeptical"):
            out.append((f"{label} -s preferred {query} {first}", text,
                        ["-s", "preferred", query, first]))
    for width in (7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 129):
        text = _wide(width, seed=width)
        semantics = SEMANTICS if width <= 9 else MAXIMAL
        for sem in semantics:
            for fmt in FORMATS:
                out.append((f"wide{width} -s {sem} --format {fmt}", text,
                            ["-s", sem, "--format", fmt]))
    # an odd cycle: preferred and min-def answer the family {{}}
    odd = _afp(["c", "B", "_a"], [("c", "B"), ("B", "_a"), ("_a", "c")],
               ["c", "B", "_a"], ["B"])
    for sem in SEMANTICS:
        for fmt in FORMATS:
            out.append((f"odd-cycle -s {sem} --format {fmt}", odd,
                        ["-s", sem, "--format", fmt]))
    return out


CASES = cases()


def _isolated(n):
    return "".join(f"arg(x{i}).\n" for i in range(n)).encode()


AF3 = (FIXTURE_DIR / "af3.afp").read_bytes()
# (case id, input bytes, CLI arguments, "{input}" standing for the file)
ERROR_CASES = [
    ("error: undeclared argument in an attack",
     b"arg(a).\natt(a,b).\n", ["solve", "{input}"]),
    ("error: undeclared argument in --set", AF3,
     ["check", "{input}", "--set", "u2,ghost", "--property", "admissible"]),
    ("error: undeclared argument in a query", AF3,
     ["solve", "{input}", "--credulous", "ghost"]),
    ("error: --on with a pointwise property", AF3,
     ["check", "{input}", "--set", "u2", "--property", "admissible",
      "--on", "ghost"]),
    ("error: --on with another semantics", AF3,
     ["solve", "{input}", "-s", "preferred", "--on", "u2"]),
    ("error: non-UTF-8 input", b"arg(a).\xff\n", ["solve", "{input}"]),
    ("error: oracle size cap", _isolated(21),
     ["oracle", "{input}", "-s", "admissible"]),
    ("error: oracle size cap under --budget", _isolated(21),
     ["oracle", "{input}", "-s", "preferred", "--budget", "12"]),
    ("error: 62-argument scan cap", _isolated(63),
     ["oracle", "{input}", "-s", "admissible", "--budget", "100"]),
]


def run_case(tmp_dir, text, args):
    path = pathlib.Path(tmp_dir) / "input.afp"
    path.write_text(text, encoding="utf-8")
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = main(["solve", str(path), *args])
    return [code, hashlib.sha256(stdout.getvalue().encode()).hexdigest()]


def run_error_case(tmp_dir, data, args):
    path = pathlib.Path(tmp_dir) / "input.afp"
    path.write_bytes(data)
    stderr = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        code = main([str(path) if a == "{input}" else a for a in args])
    return [code, stderr.getvalue()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(case_id for case_id, _, _
                                    in CASES + ERROR_CASES)


@pytest.mark.parametrize("case_id,text,args", CASES,
                         ids=[case_id for case_id, _, _ in CASES])
def test_cli_stdout_matches_the_recorded_digest(tmp_path, golden, case_id,
                                                text, args):
    assert run_case(tmp_path, text, args) == golden[case_id]


@pytest.mark.parametrize("case_id,data,args", ERROR_CASES,
                         ids=[case_id for case_id, _, _ in ERROR_CASES])
def test_cli_error_matches_the_recorded_stderr(tmp_path, golden, case_id,
                                               data, args):
    assert run_error_case(tmp_path, data, args) == golden[case_id]


def record(tmp_dir):
    GOLDEN.parent.mkdir(exist_ok=True)
    digests = {case_id: run_case(tmp_dir, text, args)
               for case_id, text, args in CASES}
    digests.update((case_id, run_error_case(tmp_dir, data, args))
                   for case_id, data, args in ERROR_CASES)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(tmp)
