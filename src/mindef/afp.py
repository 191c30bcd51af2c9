"""The AFP text format: prolog-style facts for partitioned frameworks.

Grammar, one statement per line::

    arg(NAME).            declare an argument
    att(NAME,NAME).       attacker, target
    focus(NAME).          the selected agent owns NAME
    restricted(NAME).     NAME is a restricted focus argument (implies focus)

``NAME`` matches ``[A-Za-z0-9_]+``. ``#`` starts a comment running to the
end of the line; blank lines are skipped; whitespace is tolerated inside
and around statements. Statements may appear in any order. A file with no
focus/restricted statements denotes the vacuous partition: the focus is the
whole argument universe, with nothing restricted. Repeated statements are
idempotent; any other statement form is a hard error.

Each attack name is looked up once, in one dict of the declared names, and
the index pairs go to the framework, which holds the relation only as
masks; its ``attacks`` is a sorted, duplicate-free view derived from them.
"""

import re

from .errors import AfpSyntaxError, UndeclaredArgument
from .model import ArgumentationFramework, Partition, build_partition

_STATEMENT = re.compile(
    r"^(?P<kind>arg|att|focus|restricted)\s*\(\s*(?P<first>[A-Za-z0-9_]+)"
    r"\s*(?:,\s*(?P<second>[A-Za-z0-9_]+)\s*)?\)\s*\.$")


def parse_afp(text: str) -> tuple:
    """Parse AFP text into a framework and partition.

    Syntax problems raise :class:`AfpSyntaxError`; a name never declared
    anywhere in the file raises :class:`UndeclaredArgument`, checked in
    the attacks in file order (attacker first), then the focus, then the
    restricted statements. Both carry the offending line number.
    """
    index_of = {}  # declared names, in declaration order
    attacks = []   # (line, a, b)
    focus = []     # (line, name)
    restricted = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _STATEMENT.match(line)
        if m is None:
            raise AfpSyntaxError(f"unrecognized statement {line!r}", lineno)
        kind, first, second = m.group("kind", "first", "second")
        if kind == "att":
            if second is None:
                raise AfpSyntaxError("att needs two arguments", lineno)
            attacks.append((lineno, first, second))
            continue
        if second is not None:
            raise AfpSyntaxError(f"{kind} takes a single argument", lineno)
        if kind == "arg":
            index_of.setdefault(first, len(index_of))
        elif kind == "focus":
            focus.append((lineno, first))
        else:
            restricted.append((lineno, first))
    pairs = []  # each attack name is looked up once
    for lineno, a, b in attacks:
        i, j = index_of.get(a), index_of.get(b)
        if i is None or j is None:
            raise UndeclaredArgument(a if i is None else b, line=lineno)
        pairs.append((i, j))
    for lineno, name in focus + restricted:
        if name not in index_of:
            raise UndeclaredArgument(name, line=lineno)
    af = ArgumentationFramework(tuple(index_of), pairs)
    if focus or restricted:
        return af, build_partition(af, [name for _, name in focus],
                                   [name for _, name in restricted])
    return af, Partition(af, af.full_set(), af.empty_set())


def serialize_afp(af: ArgumentationFramework, p: Partition = None) -> str:
    """Emit canonical AFP text.

    Arguments appear in index order, attacks sorted by name pair, then
    focus statements for the unrestricted part and restricted statements
    for the restricted part (both name-sorted). A vacuous partition (no
    partition, or focus = everything with nothing restricted) emits no
    partition statements at all, which is what it parses back from.
    """
    attacks = af.attacks
    lines = [f"# {len(af.names)} arguments, {len(attacks)} attacks"]
    for name in af.names:
        lines.append(f"arg({name}).")
    for a, b in sorted((af.names[a], af.names[b]) for a, b in attacks):
        lines.append(f"att({a},{b}).")
    vacuous = p is None or (p.focus.mask == af.full_mask
                            and not p.restricted.mask)
    if not vacuous:
        for name in sorted(p.unrestricted.names):
            lines.append(f"focus({name}).")
        for name in sorted(p.restricted.names):
            lines.append(f"restricted({name}).")
    return "\n".join(lines) + "\n"
