import random
import tracemalloc

import pytest
from hypothesis import given, settings

import mindef as md
from mindef import (AfpSyntaxError, ArgumentationFramework, BudgetExceeded,
                    MindefError, UndeclaredArgument, _kernels, afp,
                    build_framework, parse_afp, serialize_afp)
from mindef.cli import SolveRequest, run_cli

from conftest import (FIXTURE_DIR, FIXTURE_TEXTS, instance_stream,
                      line_by_line_parse_afp, mutated_fixtures,
                      pair_set_build_framework, splitlines_parse_afp,
                      two_pass_parse_afp)


class TestParse:
    def test_af3_fixture_file(self, af1, p3):
        text = (FIXTURE_DIR / "af3.afp").read_text()
        statements = [ln.split("#")[0].strip() for ln in text.splitlines()]
        statements = [s for s in statements if s]
        assert sum(s.startswith("arg(") for s in statements) == 14
        assert sum(s.startswith("att(") for s in statements) == 9
        assert sum(s.startswith(("focus(", "restricted(")) for s in statements) == 9
        af, p = parse_afp(text)
        assert af.names == af1.names
        assert af.attacks == af1.attacks
        assert p.unrestricted.names == p3.unrestricted.names
        assert p.restricted.names == p3.restricted.names

    def test_empty_file(self):
        af, p = parse_afp("")
        assert len(af) == 0
        assert p.focus == af.full_set() and not p.restricted

    def test_undeclared_attack_reports_the_line(self):
        with pytest.raises(UndeclaredArgument) as err:
            parse_afp("att(a,b).\n")
        assert err.value.line == 1

    def test_declaration_order_does_not_matter(self):
        af, _ = parse_afp("att(a,b).\narg(a).\narg(b).\n")
        assert af.attacks == ((0, 1),)

    def test_comments_blanks_and_whitespace(self):
        af, p = parse_afp(
            "# header\n"
            "\n"
            "  arg( a ).   # trailing comment\n"
            "arg(b).\n"
            "  att( a , b )  .\n"
            "restricted( a ).\n")
        assert af.attacks == ((0, 1),)
        assert p.focus.names == ("a",) and p.restricted.names == ("a",)

    def test_restricted_implies_focus(self):
        _, p = parse_afp("arg(a).\narg(b).\nfocus(b).\nrestricted(a).\n")
        assert p.focus.names == ("a", "b")
        assert p.unrestricted.names == ("b",)

    def test_no_partition_statements_mean_focus_is_everything(self):
        af, p = parse_afp("arg(a).\narg(b).\n")
        assert p.focus == af.full_set() and not p.restricted

    def test_unknown_statement_is_a_hard_error(self):
        with pytest.raises(AfpSyntaxError) as err:
            parse_afp("arg(a).\nattack(a,a).\n")
        assert err.value.line == 2

    def test_att_arity_is_checked(self):
        with pytest.raises(AfpSyntaxError):
            parse_afp("arg(a).\natt(a).\n")
        with pytest.raises(AfpSyntaxError):
            parse_afp("arg(a).\nfocus(a,a).\n")

    def test_missing_final_dot_is_an_error(self):
        with pytest.raises(AfpSyntaxError):
            parse_afp("arg(a)\n")

    def test_duplicate_statements_are_idempotent(self):
        af, p = parse_afp("arg(a).\narg(a).\nfocus(a).\nfocus(a).\n")
        assert af.names == ("a",)
        assert p.focus.names == ("a",)

    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_the_whole_text_check_keeps_no_state_per_line(self, end):
        # with a greedy repeat over the lines the peak is ~4.3 MB here
        forms = ("arg(a{0}).", "att( a{0} ,a{1} ) . # c", "", "focus(a{1}).")
        text = end.join(forms[i % 4].format(i, i + 1) for i in range(20000))
        tracemalloc.start()
        try:
            assert afp._TEXT.fullmatch(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_the_compaction_table_holds_every_whitespace_character(self):
        space = [c for c in range(0x110000) if chr(c).isspace()]
        assert set(afp._WHITESPACE) == set(space)
        assert set(afp._WHITESPACE.values()) == {None}
        text = "".join(map(chr, space))
        for s in (text, "a" + "b".join(text) + "c"):
            assert s.translate(afp._WHITESPACE) == "".join(s.split())


class CountingCeiling(_kernels.Ceiling):
    """A ceiling that counts its reads, and refuses from the ``refuse_at``-th
    on (never by default)."""

    def __init__(self, refuse_at=None):
        super().__init__(1.0)
        self.reads = 0
        self.refuse_at = refuse_at

    def check(self):
        self.reads += 1
        if self.refuse_at is not None and self.reads >= self.refuse_at:
            raise BudgetExceeded("wall-clock ceiling of 1.0s exhausted")


def attack_text(count):
    """``count`` attacks among ``count`` arguments, in the serializer's
    form."""
    return "".join([f"arg(a{i}).\n" for i in range(count)]
                   + [f"att(a{i},a{(7 * i + 1) % count}).\n"
                      for i in range(count)])


class TestTheParseReadsTheCeiling:
    def test_a_long_parse_reads_it_at_every_step(self):
        text = attack_text(20000)
        ceiling = CountingCeiling()
        af, _ = parse_afp(text, ceiling)
        assert len(af.attacks) == 20000
        # after the check, after the kind sort, and before each of the
        # framework build's five blocks of 4096 attacks
        assert ceiling.reads >= 5
        for k in range(1, ceiling.reads + 1):
            with pytest.raises(BudgetExceeded):
                parse_afp(text, CountingCeiling(refuse_at=k))

    def test_an_expired_ceiling_refuses_inside_the_parse(self, capsys):
        text = attack_text(300)
        ceiling = CountingCeiling(refuse_at=1)
        with pytest.raises(BudgetExceeded):
            parse_afp(text, ceiling)
        assert ceiling.reads == 1
        expired = _kernels.Ceiling(1.0, left=-1.0)
        assert run_cli(SolveRequest(text=text, semantics="min-def",
                                    budget=expired)) == (None, 3)
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: wall-clock ceiling of 1.0s exhausted\n"


class TestSerialize:
    def test_round_trip_of_af1_is_structurally_equal(self, af1):
        af, p = parse_afp(serialize_afp(af1))
        assert af.names == af1.names
        assert af.attacks == af1.attacks

    def test_double_round_trip_is_byte_identical(self):
        for _, af, p in instance_stream(15, base_seed=2400):
            text = serialize_afp(af, p)
            again = serialize_afp(*parse_afp(text))
            assert again == text

    def test_round_trip_preserves_partitions(self):
        for _, af, p in instance_stream(15, base_seed=2500):
            af2, p2 = parse_afp(serialize_afp(af, p))
            assert af2.names == af.names and af2.attacks == af.attacks
            assert p2.focus.names == p.focus.names
            assert p2.restricted.names == p.restricted.names

    def test_empty_framework_serializes_to_a_header_comment(self):
        af, p = parse_afp("")
        text = serialize_afp(af, p)
        assert text.startswith("#")
        assert [ln for ln in text.splitlines() if not ln.startswith("#")] == []

    def test_vacuous_partition_emits_no_partition_lines(self, af1):
        text = serialize_afp(af1, None)
        assert "focus(" not in text and "restricted(" not in text

    def test_an_empty_focus_over_arguments_is_refused(self, af1):
        # it would parse back as the vacuous partition, every argument in
        # the focus; over no arguments the two partitions are the same
        empty = md.Partition(af1, af1.empty_set(), af1.empty_set())
        with pytest.raises(md.PreconditionViolated, match="empty focus"):
            serialize_afp(af1, empty)
        af, p = parse_afp("")
        assert serialize_afp(af, md.Partition(af, af.empty_set(),
                                              af.empty_set())) == (
            serialize_afp(af, p))

    def test_scenario_fixture_files_parse_and_solve(self):
        expected = {
            "discussion": "d1,d2,v1",
            "mafia": "e1,e2,w1",
            "warplane": "comms,flight,jammer,radar",
        }
        for stem, names in expected.items():
            af, p = parse_afp((FIXTURE_DIR / f"{stem}.afp").read_text())
            fam = md.min_def_extensions(af, p)
            assert fam.members == (af.subset(names.split(",")),)


def parsed(parse, text):
    """What ``parse`` makes of ``text``: the framework's names, pairs and
    both mask tables and the partition's masks; or the class, message and
    line of the error it raises."""
    try:
        af, p = parse(text)
    except MindefError as exc:
        return type(exc), str(exc), exc.line
    return (af.names, af.attacks, af.attacker_masks, af.target_masks,
            p.focus.mask, p.restricted.mask, p.unrestricted.mask)


def assert_parses_as_before(text):
    want = parsed(two_pass_parse_afp, text)
    assert parsed(line_by_line_parse_afp, text) == want
    assert parsed(splitlines_parse_afp, text) == want
    assert parsed(parse_afp, text) == want
    return want


def reordered(text, seed):
    """The statements of ``text`` in a seeded order, some of them twice."""
    rng = random.Random(seed)
    lines = text.splitlines()
    lines += rng.sample(lines, min(len(lines), 5))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


# generated instances from n=8 to n=400: the mindef-minimize probes, some
# of its n = 100..300 configurations, and smaller and acyclic ones
GENERATED = (
    [md.GeneratorConfig(n, p, 0.7, 0.3, seed=1)
     for n, p in ((300, 0.007), (400, 0.007), (400, 0.005))]
    + [md.GeneratorConfig(n, 2.0 / n, 0.7, 0.3, seed=7000 + n)
       for n in range(100, 301, 40)]
    + [md.GeneratorConfig(n, p, 0.75, 0.5, seed=n, acyclic_only=n % 2 == 0)
       for n, p in ((8, 0.25), (9, 0.5), (14, 0.3), (30, 0.1), (61, 0.05))])


class TestAgainstTheTwoPassParser:
    """The parser against the three it replaced, kept in
    ``conftest.two_pass_parse_afp``, ``conftest.line_by_line_parse_afp``
    and ``conftest.splitlines_parse_afp``: the same framework and
    partition, or the same error, message and line."""

    @pytest.mark.parametrize("text", FIXTURE_TEXTS)
    def test_fixture_files(self, text):
        assert_parses_as_before(text)
        for seed in range(5):
            assert_parses_as_before(reordered(text, seed))

    @pytest.mark.parametrize("cfg", GENERATED,
                             ids=lambda c: f"n={c.argument_count}")
    def test_generated_instances(self, cfg):
        text = serialize_afp(*md.random_instance(cfg))
        assert assert_parses_as_before(text)[0][0] == "a0"
        assert_parses_as_before(reordered(text, cfg.seed))

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(mutated_fixtures())
    def test_mutated_fixture_texts(self, text):
        assert_parses_as_before(text)

    @pytest.mark.parametrize("text", [
        "",
        "arg(a).\natt(a,a).",
        "# only\n\n   # comments\n#\n",
        "arg(a). arg(b).\n",
        "arg(a).\natt(a,\ra).\n",
        "arg(a).\r\natt(a,a)\r.\n",
        "arg(a#b).\narg(a).\n",
        "arg(a).\natt(a,a#).\n",
        "arg(a).\x0barg(b).\x1catt(a,b).\x85focus(b).\x0c",
        "\xa0arg(a)\xa0.\t# tail\narg(\x1fb ).\n",
        "arg(é).\n",
        "arg(a).\natt(a,b).\nrestricted(c).\n",
        "arg(a).\narg(a,b).\n",
        "arg(a).\nfocus(a,a).\n",
        "arg(a).\nrestricted(a,a).\n",
        "arg(a).\natt(a).\n",
        "arg(a).\rarg(b).\ratt(a,b).\r",
        "arg(a).\r",
        "\r",
        "arg(a).\r\r\n\natt(a,a).",
        "arg(a). # note\r\narg(b).\r\n#\r\natt(b,a).\r\n",
        "arg(a). # note\r\natt(a,b).\r\n",
        "arg(a).\u2028arg(b).\u2029att(a,b).\x1dfocus(b).\x1e",
        "arg(a).\u2028att(a,\u2029a).\n",
        "arg(a).# c\x85arg(b).#\x85att(a,b).\x85",
        "arg(a\x1fb).\n",
        "arg(\x1fa\x1f)\x1f.\natt(\u3000a,\u3000a\u3000)\u3000.\n",
        "\u3000arg(a)\u3000.\x1f# x\n",
        "arg(a). # ). att(a,a). att(\narg(b).#att(b,b).\n",
        "arg(a). # att(b,c).\natt(a,a).\n",
        "arg(a).\natt(a,a) # ).\n",
    ], ids=["empty", "no final newline", "only comments", "two on a line",
            "broken by cr", "dot after cr", "hash in a name",
            "hash in a target", "other separators", "other whitespace",
            "non-ascii name", "undeclared after a good prefix",
            "arg of two", "focus of two", "restricted of two", "att of one",
            "lone cr ends", "lone cr at the end", "only a cr",
            "cr cr lf lf", "crlf ends a comment", "crlf after an undeclared",
            "u2028 u2029 x1d x1e ends", "u2029 inside an attack",
            "x85 after a comment", "x1f splits a name",
            "x1f and u3000 inside statements", "u3000 and x1f around",
            "comment holding ). and att(", "comment holding an attack",
            "comment after an unfinished attack"])
    def test_edge_texts(self, text):
        assert_parses_as_before(text)

    @pytest.mark.parametrize("text, name, line", [
        # attacks in file order, the attacker before the target
        ("att(x,y).\n", "x", 1),
        ("arg(a).\natt(a,y).\natt(x,a).\n", "y", 2),
        ("arg(a).\natt(x,a).\natt(a,y).\n", "x", 2),
        # then focus, then restricted statements, whatever their lines
        ("arg(a).\nfocus(z).\natt(a,y).\n", "y", 3),
        ("restricted(r).\nfocus(f).\natt(q,a).\narg(a).\n", "q", 3),
        ("arg(a).\nrestricted(r).\nfocus(f).\n", "f", 3),
        ("arg(a).\natt(a,a).\nrestricted(r).\nfocus(a).\n", "r", 3),
    ])
    def test_undeclared_names_keep_their_precedence(self, text, name, line):
        assert assert_parses_as_before(text) == (
            UndeclaredArgument, f"undeclared argument {name!r} (line {line})",
            line)

    def test_a_syntax_error_comes_before_any_undeclared_name(self):
        assert assert_parses_as_before("att(x,y).\nfocus(z).\nbad.\n") == (
            AfpSyntaxError, "line 3: unrecognized statement 'bad.'", 3)

    def test_repeated_and_late_declared_attacks(self):
        text = "att(b,a).\natt(b,a).\natt(a,b).\narg(b).\narg(a).\narg(b).\n"
        names, attacks = assert_parses_as_before(text)[:2]
        assert names == ("b", "a") and attacks == ((0, 1), (1, 0))

    def test_build_framework_collapses_repeated_pairs(self):
        rng = random.Random(12)
        for _ in range(200):
            n = rng.randint(1, 12)
            names = [f"v{i}" for i in range(n)]
            index_pairs = [(rng.randrange(n), rng.randrange(n))
                           for _ in range(rng.randint(0, 3 * n))]
            index_pairs += rng.sample(index_pairs, len(index_pairs) // 2)
            rng.shuffle(index_pairs)
            name_pairs = [(names[a], names[b]) for a, b in index_pairs]
            want = pair_set_build_framework(names, name_pairs)
            for af in (build_framework(names, name_pairs),
                       ArgumentationFramework(tuple(names), index_pairs)):
                assert af.attacks == tuple(sorted(set(index_pairs)))
                assert af.attacker_masks == want.attacker_masks
                assert af.target_masks == want.target_masks
