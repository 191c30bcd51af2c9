import contextlib
import functools
import io
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mindef as md
from mindef import _kernels, extensions
from mindef.afp import serialize_afp
from mindef.cli import (QUERIES, SEMANTICS, SolveRequest, _request_from,
                        build_parser, main, run_cli)
from mindef.extensions import SearchBudget

from conftest import (FIXTURE_DIR, FIXTURE_TEXTS, REPO_ROOT, factor_query,
                      instance_stream, jump_after_the_codes,
                      mutated_fixtures, sparse_instance)

AF3 = str(FIXTURE_DIR / "af3.afp")
AF2_TEXT = (FIXTURE_DIR / "af2.afp").read_text()
ABC = str(FIXTURE_DIR / "abc.afp")


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_min_def(capsys):
    code, out, _ = run(capsys, "solve", AF3, "--semantics", "min-def")
    assert code == 0
    assert out == "{r2,u2,u3,u4,u5}\n"


def test_solve_preferred_on_f(capsys):
    code, out, _ = run(capsys, "solve", str(FIXTURE_DIR / "af2.afp"),
                       "--semantics", "preferred-on-f")
    assert code == 0
    assert out == "{r1,r2,r3,u2,u3,u4,u5}\n"


def test_solve_reads_standard_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(AF2_TEXT))
    code, out, _ = run(capsys, "solve", "--semantics", "preferred")
    assert code == 0
    assert out == "{o1,o5,r1,r2,r3,u2,u3,u4,u5}\n"


def test_check_restricted_admissible_answers_no(capsys):
    code, out, _ = run(capsys, "check", AF3, "--set", "u5,r3",
                       "--property", "restricted-admissible")
    assert code == 0
    assert out == "NO\n"


def test_check_the_empty_set(capsys):
    code, out, _ = run(capsys, "check", AF3, "--set", "",
                       "--property", "admissible")
    assert code == 0
    assert out == "YES\n"


def test_check_family_membership(capsys):
    code, out, _ = run(capsys, "check", AF3, "--set", "r2,u2,u3,u4,u5",
                       "--property", "min-def")
    assert code == 0 and out == "YES\n"


def test_credulous_and_skeptical_queries(capsys):
    code, out, _ = run(capsys, "solve", AF3, "--semantics", "preferred",
                       "--credulous", "o1")
    assert (code, out) == (0, "YES\n")
    code, out, _ = run(capsys, "solve", AF3, "--semantics", "preferred",
                       "--skeptical", "r4")
    assert (code, out) == (0, "NO\n")


def test_query_for_undeclared_argument_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", AF3, "--credulous", "ghost")
    assert code == 2 and "ghost" in err


def families_past_2_to_the_63(tmp_path):
    """Two files, each with the semantics whose family passes 2^63
    members: 64 isolated arguments (2^64 conflict-free, admissible and
    restrictedly admissible sets) and 64 two-cycles (at least 2^64 sets
    under every semantics)."""
    isolated = tmp_path / "isolated.afp"
    isolated.write_text("".join(f"arg(x{i}).\n" for i in range(64)))
    cycles = tmp_path / "cycles.afp"
    cycles.write_text("".join(
        f"arg(a{i}).\narg(b{i}).\natt(a{i},b{i}).\natt(b{i},a{i}).\n"
        for i in range(64)))
    return [(str(isolated), ("conflict-free", "admissible",
                             "restricted-admissible")),
            (str(cycles), tuple(SEMANTICS))]


def test_queries_on_families_past_2_to_the_63_members_answer(capsys,
                                                             tmp_path):
    (isolated, _), (cycles, _) = families_past_2_to_the_63(tmp_path)
    for semantics in SEMANTICS:
        # every isolated argument is in the lone preferred (and min-def)
        # extension; no two-cycle member is in all of them
        lone = semantics in ("preferred", "preferred-on-f", "min-def")
        for path, a, skeptical in ((isolated, "x3", "YES\n" if lone
                                    else "NO\n"),
                                   (cycles, "a3", "NO\n")):
            assert run(capsys, "solve", path, "-s", semantics,
                       "--credulous", a)[:2] == (0, "YES\n")
            assert run(capsys, "solve", path, "-s", semantics,
                       "--skeptical", a)[:2] == (0, skeptical)


def test_families_past_2_to_the_63_members_are_refused(capsys, tmp_path):
    # counted from their factors, not by ``len``, which cannot pass 2^63 - 1
    for path, overflowing in families_past_2_to_the_63(tmp_path):
        for semantics in overflowing:
            for fmt in ("plain", "structured"):
                code, out, err = run(capsys, "solve", path, "-s", semantics,
                                     "--format", fmt)
                assert (code, out) == (3, ""), (path, semantics, fmt)
                assert err == (f"error: answer exceeds the cap of "
                               f"{_kernels.MAX_SETS} sets\n")


def test_an_empty_query_argument_is_undeclared(capsys):
    # an empty name is a query for an argument no file declares, not a
    # request to enumerate
    for command in ("solve", "oracle"):
        for flag in ("--credulous", "--skeptical"):
            code, out, err = run(capsys, command, AF3, flag, "")
            assert (code, out) == (2, "")
            assert err == "error: undeclared argument ''\n"


def test_structured_output_fields(capsys):
    code, out, _ = run(capsys, "solve", AF3, "--semantics", "min-def",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["semantics"] == "min-def"
    assert doc["extensions"] == [["r2", "u2", "u3", "u4", "u5"]]
    assert doc["stats"] == {"arguments": 14, "attacks": 9, "focus": 9,
                            "unrestricted": 5, "restricted": 4}


def test_structured_verdict(capsys):
    code, out, _ = run(capsys, "check", AF3, "--set", "u5,r3",
                       "--property", "restricted-admissible",
                       "--format", "structured")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] is False and "extensions" not in doc


def test_on_override(capsys):
    code, out, _ = run(capsys, "solve", ABC, "--semantics", "preferred-on-f",
                       "--on", "b,c")
    assert code == 0
    assert out == "{c}\n"
    code, out, _ = run(capsys, "solve", ABC, "--semantics", "preferred-on-f",
                       "--on", "a,b")
    assert code == 0
    assert out == "{}\n"


def test_on_with_other_semantics_is_an_input_error(capsys):
    code, _, err = run(capsys, "solve", ABC, "--semantics", "preferred",
                       "--on", "a,b")
    assert code == 2 and "preferred-on-f" in err


def test_on_with_a_pointwise_property_is_an_input_error(capsys):
    for prop in ("conflict-free", "admissible", "restricted-admissible"):
        code, out, err = run(capsys, "check", AF3, "--set", "u2",
                             "--property", prop, "--on", "ghost")
        assert code == 2 and out == ""
        assert "--on is only meaningful with preferred-on-f" in err


def test_oracle_subcommand_matches_solver(capsys):
    code_s, out_s, _ = run(capsys, "solve", AF3, "--semantics", "min-def")
    code_o, out_o, _ = run(capsys, "oracle", AF3, "--semantics", "min-def")
    assert code_s == code_o == 0
    assert out_s == out_o


def test_engines_agree_on_random_instances(capsys, tmp_path):
    for k, (cfg, af, p) in enumerate(instance_stream(
            12, base_seed=5200, sizes=(6, 9, 12))):
        path = tmp_path / f"inst{k}.afp"
        path.write_text(serialize_afp(af, p))
        for sem in SEMANTICS:
            for fmt in ("plain", "structured"):
                args = ("solve", str(path), "--semantics", sem, "--format", fmt)
                _, solver_out, _ = run(capsys, *args)
                _, oracle_out, _ = run(capsys, *args, "--engine", "oracle")
                assert solver_out == oracle_out


def test_engine_table_looks_entry_points_up_at_call_time(capsys, monkeypatch):
    # wrappers installed on the modules after import must see every call
    from mindef import extensions, oracle
    seen = []
    for module, name in ((extensions, "min_def_extensions"),
                         (oracle, "oracle_min_def")):
        original = getattr(module, name)

        def spy(*args, original=original, name=name):
            seen.append(name)
            return original(*args)
        monkeypatch.setattr(module, name, spy)
    assert run(capsys, "solve", AF3, "--semantics", "min-def")[0] == 0
    assert run(capsys, "oracle", AF3, "--semantics", "min-def")[0] == 0
    assert seen == ["min_def_extensions", "oracle_min_def"]


def test_plain_output_parses_back_to_the_library_family(capsys, tmp_path):
    for k, (cfg, af, p) in enumerate(instance_stream(6, base_seed=5600)):
        path = tmp_path / f"inst{k}.afp"
        path.write_text(serialize_afp(af, p))
        _, out, _ = run(capsys, "solve", str(path), "--semantics", "admissible")
        printed = set()
        for line in out.splitlines():
            assert line.startswith("{") and line.endswith("}")
            names = [n for n in line[1:-1].split(",") if n]
            printed.add(af.subset(names))
        assert printed == set(md.admissible_sets(af))


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "solve", str(tmp_path / "missing.afp"))
    assert code == 2 and "error:" in err


def test_syntax_error_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.afp"
    path.write_text("arg(a).\nfoo(a).\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2 and "line 2" in err


def test_invalid_utf8_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.afp"
    path.write_bytes(b"arg(a).\xff\n")
    code, _, err = run(capsys, "solve", str(path))
    assert code == 2 and err.startswith("error:")


def test_invalid_utf8_on_standard_input_is_an_input_error(capsys, monkeypatch):
    raw = io.BytesIO(b"arg(a).\xff\n")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
    code, _, err = run(capsys, "solve")
    assert code == 2 and err.startswith("error:")


def test_too_deep_search_exits_3(capsys, tmp_path):
    # 1200 two-cycles a_i <-> b_i chained by b_i -> a_(i+1): 2400 candidates
    # in one component, whose tree search grows about cubically with the
    # chain, so a 1 s ceiling ends it; allowed overshoot: 2 s for parsing,
    # space preparation and the time between two deadline checks
    lines = []
    for i in range(1200):
        lines += [f"arg(a{i}).\n", f"arg(b{i}).\n",
                  f"att(a{i},b{i}).\n", f"att(b{i},a{i}).\n"]
        if i:
            lines.append(f"att(b{i - 1},a{i}).\n")
    path = tmp_path / "deep.afp"
    path.write_text("".join(lines))
    started = time.monotonic()
    code, out, err = run(capsys, "solve", str(path), "--time-limit", "1")
    assert time.monotonic() - started < 1 + 2
    assert code == 3 and out == "" and err.startswith("error:")
    assert "wall-clock ceiling of 1.0s exhausted" in err


def ring(tmp_path, n):
    path = tmp_path / f"ring{n}.afp"
    path.write_text("".join(f"arg(c{i}).\natt(c{i},c{(i + 1) % n}).\n"
                            for i in range(n)))
    return str(path)


def test_preferred_answers_on_a_long_even_cycle(capsys, tmp_path):
    # one component of 1200 candidates, far deeper than the recursion limit
    code, out, _ = run(capsys, "solve", ring(tmp_path, 1200))
    assert code == 0
    evens = ",".join(sorted(f"c{i}" for i in range(0, 1200, 2)))
    odds = ",".join(sorted(f"c{i}" for i in range(1, 1200, 2)))
    assert out.splitlines() == sorted(["{%s}" % evens, "{%s}" % odds],
                                      key=lambda line: line[1:-1].split(","))


def test_preferred_answers_on_a_long_odd_cycle(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", ring(tmp_path, 2401))
    assert code == 0 and out == "{}\n"


def test_oracle_honours_the_time_limit(capsys, tmp_path, monkeypatch):
    # blocks of 16 patterns: the deadline is read between them
    monkeypatch.setattr(_kernels, "_SCAN_CHUNK", 1 << 4)
    path = tmp_path / "ten.afp"
    path.write_text("".join(f"arg(x{i}).\n" for i in range(10)))
    code, out, err = run(capsys, "oracle", str(path), "-s", "admissible",
                         "--time-limit", "0")
    assert code == 3 and out == ""
    assert err == "error: wall-clock ceiling of 0.0s exhausted\n"


def test_budget_exhaustion_exits_3(capsys, tmp_path):
    path = tmp_path / "big.afp"
    path.write_text("".join(f"arg(x{i}).\n" for i in range(25)))
    code, _, err = run(capsys, "oracle", str(path), "--semantics", "admissible")
    assert code == 3 and "error:" in err


def test_oracle_refuses_spaces_wider_than_its_scan(capsys, tmp_path):
    # the scan's int64 patterns hold 62 arguments, whatever --budget allows
    path = str(tmp_path / "g70.afp")
    assert run(capsys, "generate", "-n", "70", "-p", "0.05", "--seed", "1",
               "-o", path)[0] == 0
    code, out, err = run(capsys, "oracle", path, "--budget", "80",
                         "--time-limit", "2", "-s", "admissible")
    assert code == 3 and out == ""
    assert err == ("error: exhaustive scan over 70 arguments exceeds "
                   "the cap of 62\n")


def test_answers_past_the_output_cap_exit_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(_kernels, "MAX_SETS", 100)
    path = tmp_path / "isolated.afp"
    path.write_text("".join(f"arg(x{i}).\n" for i in range(12)))
    for args in (["solve", "-s", "conflict-free"],
                 ["solve", "-s", "admissible", "--format", "structured"],
                 ["oracle", "-s", "conflict-free"]):
        code, out, err = run(capsys, args[0], str(path), *args[1:])
        assert code == 3 and out == ""
        assert err == "error: answer exceeds the cap of 100 sets\n"
    # a query reads the 4096 sets' factors and builds nothing
    assert run(capsys, "solve", str(path), "-s", "conflict-free",
               "--credulous", "x0")[:2] == (0, "YES\n")


def test_nan_or_negative_time_limit_exits_2(capsys):
    for value in ("nan", "-3", "-0.5"):
        code, out, err = run(capsys, "solve", AF3, "--time-limit", value)
        assert code == 2 and out == ""
        assert f"argument --time-limit: expected a non-negative number, " \
               f"got '{value}'" in err
    # zero is a ceiling that has already passed, not an input error
    assert run(capsys, "oracle", AF3, "--time-limit", "0")[0] == 3


def test_negative_budget_exits_2(capsys):
    code, out, err = run(capsys, "oracle", AF3, "--budget", "-3")
    assert code == 2 and out == ""
    assert "argument --budget: expected a non-negative number, got '-3'" in err
    assert run(capsys, "oracle", AF3, "--budget", "0")[0] == 3


def test_time_limit_exhaustion_exits_3(capsys, tmp_path):
    names = [f"x{i}" for i in range(28)]
    lines = [f"arg({n}).\n" for n in names]
    for i in range(0, 28, 2):
        lines += [f"att(x{i},x{i+1}).\n", f"att(x{i+1},x{i}).\n"]
    path = tmp_path / "cycles.afp"
    path.write_text("".join(lines))
    code, _, err = run(capsys, "solve", str(path), "--semantics", "admissible",
                       "--time-limit", "0.02")
    assert code == 3


def test_generate_is_deterministic_and_parseable(capsys, tmp_path):
    args = ("generate", "-n", "8", "-p", "0.25", "--seed", "11",
            "--focus-fraction", "0.75", "--restricted-fraction", "0.5")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    af, p = md.parse_afp(first)
    assert len(af) == 8 and len(p.focus) == 6 and len(p.restricted) == 3
    out_file = tmp_path / "inst.afp"
    code = main([*args, "-o", str(out_file)])
    assert code == 0 and out_file.read_text() == first


def test_generate_rejects_bad_fractions(capsys):
    code, _, err = run(capsys, "generate", "-n", "5", "-p", "2.0")
    assert code == 2 and "error:" in err


def test_generate_refuses_an_instance_with_an_empty_focus(capsys, tmp_path):
    # 0.1 of 4 arguments rounds to an empty focus, which AFP text cannot
    # hold: it would parse back with every argument in the focus
    args = ("generate", "-n", "4", "-p", "0.3", "--focus-fraction", "0.1",
            "--seed", "2")
    af, p = md.random_instance(md.GeneratorConfig(4, 0.3, 0.1, seed=2))
    assert len(af) == 4 and len(p.focus) == 0
    target = tmp_path / "inst.afp"
    for extra in ((), ("-o", str(target))):
        code, out, err = run(capsys, *args, *extra)
        assert code == 2 and out == ""
        assert err == "error: an empty focus has no AFP form\n"
    assert not target.exists()


def test_generate_to_an_unwritable_path_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "inst.afp"
    code, out, err = run(capsys, "generate", "-n", "5", "-o", str(target))
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not target.parent.exists()


def test_an_unknown_mode_exits_2(capsys):
    request = SolveRequest(source=AF3, mode="enumerate-all")
    assert run_cli(request) == (None, 2)
    assert capsys.readouterr().err == (
        "error: unknown mode 'enumerate-all'\n")


def readme_examples():
    """The README's ``mindef`` commands that a ``# output`` line follows,
    as (arguments, output) pairs."""
    lines = (REPO_ROOT / "README.md").read_text().splitlines()
    return [(shlex.split(line)[1:], after[2:])
            for line, after in zip(lines, lines[1:])
            if line.startswith("mindef ") and after.startswith("# ")]


def test_the_readme_examples_print_their_documented_output():
    # run as documented, from the repository root, through ``python -m``
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))
    examples = readme_examples()
    assert len(examples) == 4
    for args, output in examples:
        done = subprocess.run([sys.executable, "-m", "mindef", *args],
                              cwd=REPO_ROOT, env=env, capture_output=True,
                              text=True)
        assert (done.returncode, done.stdout, done.stderr) == (
            0, output + "\n", ""), args


def test_bad_flags_exit_2(capsys):
    assert run(capsys, "solve", AF3, "--semantics", "nonsense")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0


def test_run_cli_returns_result_and_exit_code():
    request = SolveRequest(text=AF2_TEXT, semantics="min-def")
    buffer = io.StringIO()
    result, code = run_cli(request, out=buffer)
    assert code == 0
    assert buffer.getvalue() == "{r1,r2,r3,u2,u3,u4,u5}\n"
    assert result.stats["arguments"] == 14
    assert result.verdict is None and len(result.family) == 1


def test_execute_reports_timing():
    buffer = io.StringIO()
    result, _ = run_cli(SolveRequest(text=AF2_TEXT, semantics="preferred"),
                        out=buffer)
    assert result.elapsed_ms >= 0.0
    assert buffer.getvalue() == "{o1,o5,r1,r2,r3,u2,u3,u4,u5}\n"


def test_oracle_preferred_exits_3_at_the_ceiling(capsys, tmp_path):
    # ten two-cycles: the oracle's maximality pass over 3^10 admissible
    # sets reads the request's deadline; allowed overshoot as in the
    # library test, plus parsing
    lines = []
    for i in range(10):
        lines += [f"arg(a{i}).\n", f"arg(b{i}).\n",
                  f"att(a{i},b{i}).\n", f"att(b{i},a{i}).\n"]
    path = tmp_path / "ten.afp"
    path.write_text("".join(lines))
    started = time.monotonic()
    code, out, err = run(capsys, "oracle", str(path), "-s", "preferred",
                         "--time-limit", "0.5")
    assert time.monotonic() - started < 0.5 + 1.5
    assert code == 3 and out == ""
    assert err == "error: wall-clock ceiling of 0.5s exhausted\n"


def test_an_oracle_family_past_the_ceiling_prints_nothing(capsys, tmp_path):
    # twenty unattacked arguments: 2^20 conflict-free sets, which take
    # seconds to map back, order and print; the ceiling stops the mapping
    path = tmp_path / "twenty.afp"
    path.write_text("".join(f"arg(x{i}).\n" for i in range(20)))
    code, out, err = run(capsys, "solve", str(path), "--engine", "oracle",
                         "-s", "conflict-free", "--time-limit", "0.5")
    assert code == 3 and out == ""
    assert err == "error: wall-clock ceiling of 0.5s exhausted\n"


def test_the_oracle_cap_defaults_to_the_search_budget(capsys):
    default = SearchBudget.max_arguments_for_exhaustive
    ns = build_parser().parse_args(["solve", "--time-limit", "2"])
    assert _request_from(ns).budget == SearchBudget(default, 2.0)
    code, out, _ = run(capsys, "solve", "--help")
    assert code == 0 and f"(default {default})" in " ".join(out.split())


def fourteen_two_cycles(tmp_path):
    lines = []
    for i in range(14):
        lines += [f"arg(a{i}).\n", f"arg(b{i}).\n",
                  f"att(a{i},b{i}).\n", f"att(b{i},a{i}).\n"]
    path = tmp_path / "fourteen.afp"
    path.write_text("".join(lines))
    return str(path)


def test_ordering_past_the_ceiling_prints_nothing(capsys, tmp_path):
    # the search answers at once; ordering the 3^14 members is what the
    # ceiling stops, before the first line is written
    path = fourteen_two_cycles(tmp_path)
    for fmt in ("plain", "structured"):
        code, out, err = run(capsys, "solve", path, "-s", "admissible",
                             "--format", fmt, "--time-limit", "0.05")
        assert code == 3 and out == ""
        assert err == "error: wall-clock ceiling of 0.05s exhausted\n"


def test_a_refusal_inside_the_ordering_prints_no_block(capsys, tmp_path,
                                                      clock_skew,
                                                      monkeypatch):
    # 3^4 members in blocks of 16: the clock jumps 10 s, past the 5 s
    # ceiling, once the ordering's codes are built; its read after the
    # sort refuses, before the structured prefix or any block is written
    monkeypatch.setattr(extensions, "_RENDER_BLOCK", 16)
    path = tmp_path / "four.afp"
    path.write_text("".join(f"arg(a{i}).\narg(b{i}).\natt(a{i},b{i}).\n"
                            f"att(b{i},a{i}).\n" for i in range(4)))
    for fmt in ("plain", "structured"):
        code, out, _ = run(capsys, "solve", str(path), "-s", "admissible",
                           "--format", fmt, "--time-limit", "5")
        assert code == 0 and out.count("a0") == 27
    jump_after_the_codes(clock_skew, monkeypatch)
    for fmt in ("plain", "structured"):
        code, out, err = run(capsys, "solve", str(path), "-s", "admissible",
                             "--format", fmt, "--time-limit", "5")
        assert code == 3 and out == ""
        assert err == "error: wall-clock ceiling of 5.0s exhausted\n"


def test_no_ceiling_never_refuses(clock_skew):
    # the clock jumps 10^9 s; a request without a ceiling still answers
    requests = [SolveRequest(text=AF2_TEXT, semantics=semantics,
                             engine=engine, output=fmt)
                for semantics in SEMANTICS for engine in ("solver", "oracle")
                for fmt in ("plain", "structured")]
    want = []
    for request in requests:
        out = io.StringIO()
        assert run_cli(request, out=out)[1] == 0
        want.append(out.getvalue())
    clock_skew[0] += 1e9
    for request, text in zip(requests, want):
        request.budget = SearchBudget()
        out = io.StringIO()
        assert run_cli(request, out=out)[1] == 0
        assert out.getvalue() == text


def test_an_unknown_semantics_is_an_input_error(capsys):
    # library callers can name any semantics; the CLI's choices cannot
    for mode, extra in (("enumerate", {}), ("credulous", {"argument": "a"}),
                        ("check", {"check_set": ("a",)})):
        for engine in ("solver", "oracle"):
            request = SolveRequest(text="arg(a).\n", semantics="grounded",
                                   mode=mode, engine=engine, **extra)
            assert run_cli(request) == (None, 2)
            out = capsys.readouterr()
            assert out.out == ""
            assert out.err == "error: unknown semantics 'grounded'\n"


def test_the_ceiling_covers_the_parse(capsys, clock_skew, monkeypatch):
    # the parse moves the fake clock 2 s, past the 1 s ceiling
    parse = md.cli.parse_afp
    taken = [2.0]

    def slow_parse(text, deadline):
        clock_skew[0] += taken[0]
        return parse(text, deadline)

    monkeypatch.setattr(md.cli, "parse_afp", slow_parse)
    for args in ((), ("-s", "min-def"), ("--credulous", "u2")):
        code, out, err = run(capsys, "solve", AF3, "--time-limit", "1",
                             *args)
        assert code == 3 and out == ""
        assert err == "error: wall-clock ceiling of 1.0s exhausted\n"
    # a parse that takes 0.6 s of a 1.0 s ceiling leaves the solve 0.4 s
    taken[0] = 0.6
    preferred = extensions.preferred_extensions
    left = []

    def timed_preferred(af, budget):
        left.append(budget.left())
        return preferred(af, budget)

    monkeypatch.setattr(extensions, "preferred_extensions", timed_preferred)
    code, out, _ = run(capsys, "solve", AF3, "--time-limit", "1")
    assert code == 0 and out
    assert len(left) == 1 and 0.3 < left[0] <= 0.4
    # the oracle's scan reads the same started ceiling, under its size cap
    scan = _kernels.subset_scan
    left.clear()

    def timed_scan(k, layout, deadline):
        left.append(deadline.left())
        return scan(k, layout, deadline)

    monkeypatch.setattr(_kernels, "subset_scan", timed_scan)
    for args in (("oracle", AF3), ("oracle", AF3, "--credulous", "u2"),
                 ("check", AF3, "--engine", "oracle", "--property",
                  "preferred", "--set", "u2")):
        code, out, _ = run(capsys, *args, "--time-limit", "1")
        assert code == 0 and out
    assert len(left) == 3 and all(0.3 < s <= 0.4 for s in left)


def test_queries_and_checks_on_fourteen_two_cycles_read_factors(capsys,
                                                                tmp_path):
    # 3^14 admissible and 2^14 preferred sets; none is built
    path = fourteen_two_cycles(tmp_path)
    every_a = ",".join(f"a{i}" for i in range(14))
    started = time.monotonic()
    assert run(capsys, "solve", path, "-s", "admissible",
               "--credulous", "a3")[:2] == (0, "YES\n")
    assert run(capsys, "solve", path, "-s", "preferred",
               "--skeptical", "a3")[:2] == (0, "NO\n")
    assert run(capsys, "check", path, "--property", "preferred",
               "--set", every_a)[:2] == (0, "YES\n")
    assert run(capsys, "check", path, "--property", "preferred-on-f",
               "--set", "a0,b0")[:2] == (0, "NO\n")
    # allowed: a loaded host; building either family takes seconds
    assert time.monotonic() - started < 1.0


def test_the_oracle_keeps_its_size_cap_under_a_time_limit(capsys, tmp_path):
    def isolated(n):
        path = tmp_path / f"isolated{n}.afp"
        path.write_text("".join(f"arg(x{i}).\n" for i in range(n)))
        return str(path)

    for n, budget, cap in ((21, (), 20), (13, ("--budget", "12"), 12)):
        code, out, err = run(capsys, "oracle", isolated(n), "-s",
                             "preferred", "--time-limit", "30", *budget)
        assert code == 3 and out == ""
        assert err == (f"error: exhaustive scan over {n} arguments exceeds "
                       f"the cap of {cap}\n")
    assert run(capsys, "oracle", isolated(13), "-s", "preferred", "--budget",
               "13", "--time-limit", "30", "--credulous", "x4")[:2] == (
        0, "YES\n")


def test_a_skeptical_preferred_query_searches_one_group(capsys, tmp_path,
                                                        monkeypatch):
    # fourteen groups, of which only a3's two-cycle is searched
    path = fourteen_two_cycles(tmp_path)
    search = _kernels.dfs_enumerate
    sizes = []

    def counted(*args):
        sizes.append(args[0])
        return search(*args)

    monkeypatch.setattr(_kernels, "dfs_enumerate", counted)
    assert run(capsys, "solve", path, "-s", "preferred",
               "--skeptical", "a3")[:2] == (0, "NO\n")
    assert sizes == [2]


def test_non_min_def_queries_never_build_a_family(capsys, tmp_path,
                                                 monkeypatch):
    # every answer is read first: from the factor-reading reference where
    # it answers under a small set cap, else from what the semantics
    # implies (the empty set qualifies; credulous admissible is credulous
    # preferred); credulous restricted-admissible on the sparse file, whose
    # reference refuses, is only checked to answer
    af, p = sparse_instance(300)
    sparse = tmp_path / "sparse.afp"
    sparse.write_text(serialize_afp(af, p))
    fourteen = md.parse_afp(Path(fourteen_two_cycles(tmp_path)).read_text())
    cases = []
    for path, (af, p), names in ((sparse, (af, p), af.names[::25]),
                                 (tmp_path / "fourteen.afp", fourteen,
                                  ("a3", "b7"))):
        preferred = factor_query(af, p, "preferred")
        for semantics in QUERIES:
            try:
                with monkeypatch.context() as small:
                    small.setattr(_kernels, "MAX_SETS", 1 << 14)
                    want = factor_query(af, p, semantics)
            except md.BudgetExceeded:
                want = {"conflict-free": lambda mode, a: (
                            mode == "credulous"
                            and a not in af.attackers_of(a).names),
                        "admissible": lambda mode, a: (
                            mode == "credulous"
                            and preferred(mode, a)),
                        "restricted-admissible": lambda mode, a: (
                            None if mode == "credulous" else False),
                        }[semantics]
            cases += [(str(path), semantics, mode, a, want(mode, a))
                      for mode in ("credulous", "skeptical") for a in names]

    def refuse(*args):
        raise AssertionError("a family was built")

    monkeypatch.setattr(md.ExtensionFamily, "_product_of", refuse)
    for path, semantics, mode, a, want in cases:
        code, out, _ = run(capsys, "solve", path, "-s", semantics,
                           f"--{mode}", a)
        assert code == 0 and out in ("YES\n", "NO\n")
        assert want is None or out == ("YES\n" if want else "NO\n")
    assert len(cases) == 5 * 2 * (12 + 2)
    assert sum(want is None for *_, want in cases) == 12
    assert sum(want is True for *_, want in cases) >= 20


# the steps of a solver query that read the request's ceiling, each with
# queries that reach it: (AFP file, solve flags); the file "fourteen" is
# fourteen_two_cycles
QUERY_CLOCK_STAGES = {
    "preparation": ((extensions, "_prepare_space"), [
        ("fourteen", ("-s", "admissible", "--credulous", "a3")),
        ("fourteen", ("-s", "preferred", "--skeptical", "a3")),
        (AF3, ("-s", "restricted-admissible", "--credulous", "r2"))]),
    "defender walks": ((extensions, "_parity_reachable"), [
        (AF3, ("-s", "restricted-admissible", "--credulous", "r2")),
        (AF3, ("-s", "restricted-admissible", "--credulous", "u4"))]),
    "witness search": ((_kernels, "dfs_enumerate"), [
        ("fourteen", ("-s", "admissible", "--credulous", "a3")),
        ("fourteen", ("-s", "preferred-on-f", "--skeptical", "b3")),
        (AF3, ("-s", "restricted-admissible", "--credulous", "r2"))]),
}


@pytest.mark.parametrize("stage", QUERY_CLOCK_STAGES)
def test_a_query_past_the_ceiling_exits_3(stage, capsys, tmp_path,
                                          clock_skew, monkeypatch):
    # the stage moves the clock 10 s, past the 5 s ceiling, as it starts
    (module, name), queries = QUERY_CLOCK_STAGES[stage]
    files = {AF3: AF3, "fourteen": fourteen_two_cycles(tmp_path)}
    step = getattr(module, name)
    reached = []

    def jumping(*args):
        reached.append(name)
        clock_skew[0] += 10.0
        return step(*args)

    for path, flags in queries:
        code, out, _ = run(capsys, "solve", files[path], *flags,
                           "--time-limit", "5")
        assert code == 0 and out in ("YES\n", "NO\n")
    monkeypatch.setattr(module, name, jumping)
    for path, flags in queries:
        reached.clear()
        code, out, err = run(capsys, "solve", files[path], *flags,
                             "--time-limit", "5")
        assert reached and (code, out) == (3, ""), flags
        assert err == "error: wall-clock ceiling of 5.0s exhausted\n"


def test_an_undeclared_argument_exits_2_before_any_search(capsys,
                                                          monkeypatch):
    def refuse(*args):
        raise AssertionError("a search ran")

    for module, name in ((extensions, "_prepare_space"),
                         (extensions, "_parity_reachable"),
                         (_kernels, "dfs_enumerate"),
                         (md.oracle, "_scan")):
        monkeypatch.setattr(module, name, refuse)
    for command in ("solve", "oracle"):
        for semantics in SEMANTICS:
            for flag in ("--credulous", "--skeptical"):
                code, out, err = run(capsys, command, AF3, "-s", semantics,
                                     flag, "ghost")
                assert (code, out) == (2, "")
                assert err == "error: undeclared argument 'ghost'\n"


# fuzzing: the CLI promises exit codes 0, 2 and 3 and nothing else
FUZZ_SETTINGS = settings(max_examples=400, derandomize=True, database=None,
                         deadline=None)


def assert_exits_0_2_or_3(request):
    """Run one request under a small budget: it answers with nothing on
    stderr, or exits 2 or 3 with an ``error:`` line."""
    request.budget = SearchBudget(20, 2.0)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        _, code = run_cli(request, out=io.StringIO())
    assert code in (0, 2, 3)
    assert err.getvalue() == "" if code == 0 else (
        err.getvalue().startswith("error:"))


@FUZZ_SETTINGS
@given(mutated_fixtures(), st.sampled_from(SEMANTICS),
       st.sampled_from(("solver", "oracle")))
def test_mutated_fixture_text_exits_0_2_or_3(text, semantics, engine):
    assert_exits_0_2_or_3(SolveRequest(text=text, semantics=semantics,
                                       engine=engine))


@FUZZ_SETTINGS
@given(st.one_of(st.binary(max_size=300),
                 st.sampled_from(FIXTURE_TEXTS).map(str.encode).flatmap(
                     lambda raw: st.binary(max_size=40).map(
                         lambda tail: raw[:len(raw) // 2] + tail))),
       st.sampled_from(SEMANTICS))
def test_arbitrary_bytes_in_a_file_exit_0_2_or_3(tmp_path_factory, raw,
                                                 semantics):
    path = tmp_path_factory.getbasetemp() / "fuzzed.afp"
    path.write_bytes(raw)
    assert_exits_0_2_or_3(SolveRequest(source=str(path), semantics=semantics))


# the first law of statement order: the parser owns it, so the CLI bytes of
# a file are those of any reordering of its statements, repeats included
@functools.lru_cache(maxsize=2048)
def answer(text, semantics, output, engine):
    out = io.StringIO()
    _, code = run_cli(SolveRequest(text=text, semantics=semantics,
                                   output=output, engine=engine), out=out)
    return code, out.getvalue()


@st.composite
def small_afp_files(draw):
    """A fixture file, or a generated one of at most 14 arguments."""
    if draw(st.booleans()):
        return draw(st.sampled_from(FIXTURE_TEXTS))
    return serialize_afp(*md.random_instance(md.GeneratorConfig(
        draw(st.integers(0, 14)), draw(st.sampled_from((0.1, 0.25, 0.5))),
        0.75, 0.5, seed=draw(st.integers(0, 2 ** 32)))))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(small_afp_files(), st.data())
def test_statement_order_and_repeats_never_change_an_answer(text, data):
    lines = text.splitlines()
    lines += data.draw(st.lists(st.sampled_from(lines), max_size=6)
                       if lines else st.just([]))
    shuffled = "\n".join(data.draw(st.permutations(lines))) + "\n"
    for semantics in SEMANTICS:
        for output in ("plain", "structured"):
            for engine in ("solver", "oracle"):
                want = answer(text, semantics, output, engine)
                assert want[0] == 0
                assert answer(shuffled, semantics, output, engine) == want
