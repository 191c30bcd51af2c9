"""Command-line surface: solve, check, oracle, and generate.

Exit codes: 0 for any answered request (YES and NO verdicts both count as
answered), 2 for input problems (unreadable or non-UTF-8 files, syntax
errors, undeclared arguments, bad flag combinations), 3 for an exhausted
search budget (an oracle space over the size cap, or the wall-clock
ceiling).
"""

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

from . import extensions, oracle
from .afp import parse_afp, serialize_afp
from .errors import BudgetExceeded, MindefError, PreconditionViolated
from .extensions import ExtensionFamily, SearchBudget
from .generators import GeneratorConfig, random_instance
from .semantics import (is_admissible, is_conflict_free,
                        is_restrictedly_admissible)

# semantics -> (solver call, oracle call), each taking (af, p, x, budget)
# where x is the base set of preferred-on-f; the lambdas look the entry
# points up at call time, so wrappers set on the modules see every call
FAMILIES = {
    "conflict-free": (
        lambda af, p, x, b: extensions.conflict_free_sets(af, None, b),
        lambda af, p, x, b: oracle.oracle_conflict_free(af, None, b)),
    "admissible": (
        lambda af, p, x, b: extensions.admissible_sets(af, None, b),
        lambda af, p, x, b: oracle.oracle_admissible(af, None, b)),
    "preferred": (
        lambda af, p, x, b: extensions.preferred_extensions(af, b),
        lambda af, p, x, b: oracle.oracle_preferred(af, b)),
    "preferred-on-f": (
        lambda af, p, x, b: extensions.preferred_extensions_on(af, x, b),
        lambda af, p, x, b: oracle.oracle_preferred_on(af, x, b)),
    "restricted-admissible": (
        lambda af, p, x, b: extensions.restrictedly_admissible_sets(af, p, b),
        lambda af, p, x, b: oracle.oracle_restrictedly_admissible(af, p, b)),
    "min-def": (
        lambda af, p, x, b: extensions.min_def_extensions(af, p, b),
        lambda af, p, x, b: oracle.oracle_min_def(af, p, b)),
}
SEMANTICS = tuple(FAMILIES)

# semantics -> (search mode, restricted) of the solver's acceptance queries,
# answered by extensions.accepted without a family: ``restricted`` queries
# search the focus under the partition's restricted obligations, the others
# the base set of preferred-on-f or else every argument; min-def queries
# read its family's factors
QUERIES = {
    "conflict-free": (extensions.CONFLICT_FREE, False),
    "admissible": (extensions.ADMISSIBLE_ALL, False),
    "preferred": (extensions.ADMISSIBLE_MAX, False),
    "preferred-on-f": (extensions.ADMISSIBLE_MAX, False),
    "restricted-admissible": (extensions.ADMISSIBLE_ALL, True),
}

# semantics `check` tests by predicate rather than by family membership
PREDICATES = {
    "conflict-free": lambda af, p, s: is_conflict_free(af, s),
    "admissible": lambda af, p, s: is_admissible(af, s),
    "restricted-admissible": is_restrictedly_admissible,
}


@dataclass
class SolveRequest:
    """One CLI-level job: where the input is and what to compute on it."""

    source: str | None = None          # file path; None or "-" reads stdin
    text: str | None = None            # inline input, overrides source
    semantics: str = "preferred"
    mode: str = "enumerate"            # enumerate | credulous | skeptical | check
    argument: str | None = None        # acceptance queries
    check_set: tuple | None = None     # membership / property checks
    output: str = "plain"              # plain | structured
    engine: str = "solver"             # solver | oracle
    on: tuple | None = None            # explicit X for preferred-on-f
    budget: SearchBudget | None = None


@dataclass
class SolveResult:
    """One request's answer.

    ``stats`` holds the instance's sizes: arguments, attacks, the focus and
    its two parts. :func:`execute` hands over the parsed ``instance``
    (framework, partition) instead, and the sizes are counted from it when
    ``stats`` is first read; plain output never reads them.
    """

    semantics: str
    family: ExtensionFamily | None
    verdict: bool | None
    elapsed_ms: float
    _stats: dict | None = None
    instance: tuple | None = field(default=None, repr=False)

    @property
    def stats(self) -> dict:
        if self._stats is None:
            af, p = self.instance
            self._stats = {
                "arguments": len(af),
                "attacks": sum(m.bit_count() for m in af.target_masks),
                "focus": len(p.focus),
                "unrestricted": len(p.unrestricted),
                "restricted": len(p.restricted),
            }
        return self._stats


def _read_input(request: SolveRequest) -> str:
    if request.text is not None:
        return request.text
    if request.source in (None, "-"):
        return sys.stdin.read()
    with open(request.source, encoding="utf-8") as handle:
        return handle.read()


def _base_set(af, p, request: SolveRequest):
    """The base set of preferred-on-f; ``--on`` is an error elsewhere."""
    if request.semantics == "preferred-on-f":
        return af.subset(request.on) if request.on is not None else p.focus
    if request.on is not None:
        raise PreconditionViolated("--on is only meaningful with preferred-on-f")
    return None


def _enumerate_family(af, p, request: SolveRequest,
                      deadline) -> ExtensionFamily:
    # both engines share the request's started ceiling, which also carries
    # the oracle's size cap
    x = _base_set(af, p, request)
    solver, brute_force = FAMILIES[request.semantics]
    engine = brute_force if request.engine == "oracle" else solver
    return engine(af, p, x, deadline)


def _decide(af, p, request: SolveRequest, deadline) -> bool:
    """A credulous or skeptical query's verdict. ``--on``, then the
    argument, are resolved before any search; the solver answers through
    :func:`extensions.accepted`, except for min-def, whose queries, like the
    oracle's, read the family's factors."""
    skeptical = request.mode == "skeptical"
    x = _base_set(af, p, request)
    a = af.index(request.argument)
    if request.engine == "solver" and request.semantics in QUERIES:
        mode, restricted = QUERIES[request.semantics]
        space = p.focus if restricted else af.full_set() if x is None else x
        return extensions.accepted(af, space.mask, mode, a, skeptical,
                                   deadline, p if restricted else None)
    accept = (extensions.skeptical_accepted if skeptical
              else extensions.credulous_accepted)
    return accept(af, _enumerate_family(af, p, request, deadline), a)


def execute(request: SolveRequest) -> SolveResult:
    """Run one request end to end; raises package errors on bad input.

    The request's wall-clock ceiling starts before the input is read, so
    reading and parsing it count against the limit too.
    """
    if request.semantics not in FAMILIES:
        raise PreconditionViolated(
            f"unknown semantics {request.semantics!r}")
    deadline = (request.budget or extensions.DEFAULT_BUDGET).deadline()
    af, p = parse_afp(_read_input(request), deadline)
    deadline.check()
    started = time.perf_counter()
    family = None
    verdict = None
    if request.mode == "enumerate":
        family = _enumerate_family(af, p, request, deadline)
    elif request.mode in ("credulous", "skeptical"):
        verdict = _decide(af, p, request, deadline)
    elif request.mode == "check":
        s = af.subset(request.check_set or ())
        if request.semantics in PREDICATES:
            _base_set(af, p, request)
            verdict = PREDICATES[request.semantics](af, p, s)
        else:
            verdict = s in _enumerate_family(af, p, request, deadline)
    else:
        raise PreconditionViolated(f"unknown mode {request.mode!r}")
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return SolveResult(request.semantics, family, verdict, elapsed_ms,
                       instance=(af, p))


def _json_piece(name):
    return json.dumps(name) + ", "


def _plain_piece(name):
    return name + ","


def _render(result: SolveResult, request: SolveRequest, out) -> None:
    # a family is written a block of members at a time, each block as one
    # string; every name's piece ends in a separator, and one replace per
    # block drops each member's last one (AFP names are letters, digits
    # and underscores, so ",}" and ", ]" occur nowhere else)
    family = result.family
    if request.output == "structured":
        doc = {"semantics": result.semantics}
        if family is None:
            doc["verdict"] = result.verdict
            doc["stats"] = result.stats
            out.write(json.dumps(doc) + "\n")
            return
        # ordered here, so that a refusal comes before the prefix
        blocks = family.fragment_blocks(_json_piece)
        out.write(json.dumps(doc)[:-1] + ', "extensions": [')
        separator = ""
        for block in blocks:
            out.write(separator + ("[" + "], [".join(map("".join, block))
                                   + "]").replace(", ]", "]"))
            separator = ", "
        out.write('], "stats": ' + json.dumps(result.stats) + "}\n")
        return
    if family is None:
        out.write("YES\n" if result.verdict else "NO\n")
        return
    for block in family.fragment_blocks(_plain_piece):
        out.write(("{" + "}\n{".join(map("".join, block))
                   + "}\n").replace(",}", "}"))


def run_cli(request: SolveRequest, out=None) -> tuple:
    """Execute a request, print its outcome, and map errors to exit codes."""
    out = out or sys.stdout
    try:
        result = execute(request)
        # a family is ordered whole, under what the request's ceiling has
        # left, before its first block is written; a refusal prints nothing
        _render(result, request, out)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 3
    except (MindefError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    return result, 0


def _names(raw: str) -> tuple:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _non_negative(kind):
    """An argparse type: a ``kind`` value that is neither negative nor NaN."""
    def parse(raw):
        value = kind(raw)
        if not value >= 0:
            raise argparse.ArgumentTypeError(
                f"expected a non-negative number, got {raw!r}")
        return value
    parse.__name__ = kind.__name__  # for argparse's "invalid float value"
    return parse


def _add_common(sub, with_engine=True):
    sub.add_argument("input", nargs="?", default="-",
                     help="AFP file to read ('-' or omitted: standard input)")
    sub.add_argument("--format", choices=("plain", "structured"),
                     default="plain", help="output rendering")
    if with_engine:
        sub.add_argument("--engine", choices=("solver", "oracle"),
                         default="solver",
                         help="tree-search solver or exhaustive oracle")
    sub.add_argument("--on", metavar="NAMES",
                     help="comma-separated base set for preferred-on-f "
                          "(default: the file's focus)")
    sub.add_argument("--budget", type=_non_negative(int), metavar="N",
                     default=SearchBudget.max_arguments_for_exhaustive,
                     help="cap on exhaustive search spaces "
                          "(default %(default)s)")
    sub.add_argument("--time-limit", type=_non_negative(float),
                     metavar="SECONDS",
                     help="wall-clock ceiling for the request")


def _add_solve(sub):
    sub.add_argument("--semantics", "-s", choices=SEMANTICS,
                     default="preferred")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--credulous", metavar="ARG",
                       help="is ARG in some extension?")
    group.add_argument("--skeptical", metavar="ARG",
                       help="is ARG in every extension?")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mindef",
        description="Solve partitioned argumentation frameworks.")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="enumerate extensions or query acceptance")
    _add_solve(solve)
    _add_common(solve)

    check = subs.add_parser("check", help="test one set against a property")
    check.add_argument("--set", required=True, metavar="NAMES",
                       help="comma-separated member names (empty for the empty set)")
    check.add_argument("--property", required=True, choices=SEMANTICS,
                       dest="semantics")
    _add_common(check)

    orc = subs.add_parser("oracle", help="like solve, forced onto the oracle engine")
    _add_solve(orc)
    _add_common(orc, with_engine=False)
    orc.set_defaults(engine="oracle")

    gen = subs.add_parser("generate", help="emit a seeded random instance as AFP")
    gen.add_argument("--arguments", "-n", type=int, required=True)
    gen.add_argument("--attack-probability", "-p", type=float, default=0.25)
    gen.add_argument("--focus-fraction", type=float, default=1.0)
    gen.add_argument("--restricted-fraction", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--acyclic", action="store_true",
                     help="restrict attacks to a random topological order")
    gen.add_argument("--output", "-o", metavar="FILE",
                     help="write here instead of standard output")
    return parser


def _request_from(ns) -> SolveRequest:
    mode, argument, check_set = "enumerate", None, None
    if ns.command == "check":
        mode, check_set = "check", _names(ns.set)
    elif ns.credulous is not None:
        mode, argument = "credulous", ns.credulous
    elif ns.skeptical is not None:
        mode, argument = "skeptical", ns.skeptical
    return SolveRequest(
        source=ns.input,
        semantics=ns.semantics,
        mode=mode,
        argument=argument,
        check_set=check_set,
        output=ns.format,
        engine=ns.engine,
        on=_names(ns.on) if ns.on is not None else None,
        budget=SearchBudget(ns.budget, ns.time_limit))


def main(argv=None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if ns.command == "generate":
        try:
            cfg = GeneratorConfig(
                argument_count=ns.arguments,
                attack_probability=ns.attack_probability,
                focus_fraction=ns.focus_fraction,
                restricted_fraction=ns.restricted_fraction,
                seed=ns.seed,
                acyclic_only=ns.acyclic)
            text = serialize_afp(*random_instance(cfg))
        except (ValueError, MindefError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if ns.output:
            try:
                with open(ns.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.write(text)
        return 0
    _, code = run_cli(_request_from(ns))
    return code


if __name__ == "__main__":
    sys.exit(main())
