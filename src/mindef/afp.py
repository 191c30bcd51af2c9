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

A text is parsed in two bulk steps, with no Python loop over its lines:

1. **One check of the whole text.** ``_TEXT`` matches the text as it
   came, once; no copy of it is made, but for a text holding U+2028 or
   U+2029, whose two line boundaries are first made ``"\\n"``. The pattern
   repeats one line's grammar, an optional statement then an optional
   comment, with one of the other line boundaries of ``str.splitlines``
   (``_EOL``) after each line but the last. A ``"\\r\\n"`` reads as a
   ``"\\r"`` then an empty line, which accepts the same texts and tests one
   class per line end. Whitespace within a line and a comment's text are
   written as classes that leave every line boundary out, so no statement
   can span two lines and a line is valid exactly when its stripped,
   comment-free part is empty or one statement. A line matches in one way
   only, so every repeat is possessive: giving nothing back changes
   nothing that matches, while a greedy repeat over the lines would keep
   one backtrack entry per line in the regex engine, a few hundred bytes
   each. A line first tries the branches of a statement written without
   whitespace or comment, as :func:`serialize_afp` writes it, which take
   fewer steps.
2. **String operations that run in C read the checked text.** One
   ``sub`` cuts the comments (when the text has a ``#``), one
   ``str.translate`` over the table of the 29 ``str.isspace`` characters
   (``_WHITESPACE``) removes the whitespace, and the statements are split
   at ``")."``. A stable sort on their second letters groups them by kind,
   each group in file order, and each group is joined and split into its
   names. The arguments are numbered in declaration order through
   ``dict.fromkeys``, all attack endpoints are resolved by one ``map`` over
   that dict, and the focus and restricted names through it into the
   partition's masks. The framework keeps the dict as its own
   ``index_of``.

The request's started ceiling is read after the check, after the kind
sort, and before each block of 4096 attacks while the framework's masks
are built (:meth:`ArgumentationFramework._indexed`).

Errors take a separate walk. When the check fails, or a name was never
declared, :func:`_first_error` reads the lines one at a time with the
statement pattern and returns the first error: syntax errors in file
order, then undeclared names in the attacks in file order (attacker
first), then in the focus statements, then in the restricted ones. It
builds no framework, and only error reports pay for it.
"""

import re
from bisect import bisect_left
from operator import itemgetter

from . import _kernels
from .errors import AfpSyntaxError, PreconditionViolated, UndeclaredArgument
from .model import ArgumentationFramework, ArgumentSet, Partition

# the line boundaries of ``str.splitlines`` up to U+00FF, as a regex class
# body. U+2028 and U+2029 are made "\n" before the check instead: each
# class naming a character past U+00FF compiles into a table of 256-bit
# chunks, and the 16 classes here took 3.4 against 1.1 ms to compile
_EOL = r"\n\r\x0b\x0c\x1c\x1d\x1e\x85"
_WIDE_EOL = str.maketrans("\u2028\u2029", "\n\n")
_S = rf"[^\S{_EOL}]*+"  # whitespace within a line
_NAME = r"[A-Za-z0-9_]++"
# a statement written without whitespace or comment, as ``serialize_afp``
# writes it: a line tries these branches first, as they take fewer steps
_BARE = (rf"att\({_NAME},{_NAME}\)\.|arg\({_NAME}\)\.|focus\({_NAME}\)\."
         rf"|restricted\({_NAME}\)\.")
# any line: an optional statement with whitespace between its tokens, then
# an optional comment
_SPACED = (rf"{_S}(?:att{_S}\({_S}{_NAME}{_S},{_S}{_NAME}{_S}\){_S}\.{_S}"
           rf"|(?:arg|focus|restricted){_S}\({_S}{_NAME}{_S}\){_S}\.{_S}|)"
           rf"(?:#[^{_EOL}]*+|)")
_LINE = rf"(?:{_BARE}|{_SPACED})"
_TEXT = re.compile(rf"(?:{_LINE}[{_EOL}])*+{_LINE}")
_COMMENT = re.compile(rf"#[^{_EOL}]*+")
# the characters for which ``str.isspace`` holds, each mapped to nothing
_WHITESPACE = str.maketrans(
    "", "", "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001"
    "\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029"
    "\u202f\u205f\u3000")

# one stripped, comment-free line, as the error walk reads it; compiled
# (and cached by ``re``) on the first error report
_STATEMENT = (
    r"^(?P<kind>arg|att|focus|restricted)\s*\(\s*(?P<first>[A-Za-z0-9_]+)"
    r"\s*(?:,\s*(?P<second>[A-Za-z0-9_]+)\s*)?\)\s*\.$")

_SECOND = itemgetter(1)


def parse_afp(text: str, deadline=_kernels.UNBOUNDED) -> tuple:
    """Parse AFP text into a framework and partition.

    Syntax problems raise :class:`AfpSyntaxError`; a name never declared
    anywhere in the file raises :class:`UndeclaredArgument`, checked in
    the attacks in file order (attacker first), then the focus, then the
    restricted statements. Both carry the offending line number. The
    started ceiling ``deadline`` is read between the parse's steps, and
    refuses with :class:`~mindef.errors.BudgetExceeded`.
    """
    if "\u2028" in text or "\u2029" in text:
        text = text.translate(_WIDE_EOL)
    if _TEXT.fullmatch(text) is None:
        raise _first_error(text)
    deadline.check()
    args, ends, focus, restricted = _statements(text, deadline)
    names = tuple(dict.fromkeys(args))
    index_of = dict(zip(names, range(len(names))))
    try:
        ends = list(map(index_of.__getitem__, ends))
        focus_mask = _mask(focus, index_of)
        restricted_mask = _mask(restricted, index_of)
    except KeyError:
        raise _first_error(text) from None
    af = ArgumentationFramework._indexed(names, index_of, ends, deadline)
    if focus or restricted:
        # restricted names are implicitly part of the focus
        return af, Partition(af, ArgumentSet(af, focus_mask | restricted_mask),
                             ArgumentSet(af, restricted_mask))
    return af, Partition(af, af.full_set(), af.empty_set())


def _mask(names, index_of) -> int:
    """The mask of ``names``; a ``KeyError`` for an undeclared one."""
    mask = 0
    for i in map(index_of.__getitem__, names):
        mask |= 1 << i
    return mask


def _statements(text: str, deadline) -> tuple:
    """The names in text that ``_TEXT`` accepts: declared arguments in
    file order (with repeats), attack endpoints (attacker, target,
    attacker, ...), focus names and restricted names. The started ceiling
    ``deadline`` is read once the statements are sorted."""
    if "#" in text:
        text = _COMMENT.sub("", text)
    compact = text.translate(_WHITESPACE)
    statements = compact.split(").")
    statements.pop()  # the empty rest after the last statement
    # the second letters of restricted, focus, arg and att sort in that
    # order, and the sort is stable: one group per kind, each in file order
    statements.sort(key=_SECOND)
    deadline.check()
    r, f, a = (bisect_left(statements, letter, key=_SECOND)
               for letter in "ort")
    return ("".join(statements[f:a]).split("arg(")[1:],
            "".join(statements[a:]).replace("att(", ",").split(",")[1:],
            "".join(statements[r:f]).split("focus(")[1:],
            "".join(statements[:r]).split("restricted(")[1:])


def _first_error(text: str) -> Exception:
    """The error that ``text`` is reported with: the first syntax error in
    file order, else the first undeclared name among the attacks in file
    order (attacker first), then the focus, then the restricted
    statements. Called only for a text that has one."""
    declared = set()
    attacks = []   # (line, a, b)
    focus = []     # (line, name)
    restricted = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(_STATEMENT, line)
        if m is None:
            return AfpSyntaxError(f"unrecognized statement {line!r}", lineno)
        kind, first, second = m.group("kind", "first", "second")
        if kind == "att":
            if second is None:
                return AfpSyntaxError("att needs two arguments", lineno)
            attacks.append((lineno, first, second))
            continue
        if second is not None:
            return AfpSyntaxError(f"{kind} takes a single argument", lineno)
        if kind == "arg":
            declared.add(first)
        elif kind == "focus":
            focus.append((lineno, first))
        else:
            restricted.append((lineno, first))
    for lineno, a, b in attacks:
        for name in (a, b):
            if name not in declared:
                return UndeclaredArgument(name, line=lineno)
    for lineno, name in focus + restricted:
        if name not in declared:
            return UndeclaredArgument(name, line=lineno)
    raise AssertionError("_first_error called on a text without an error")


def serialize_afp(af: ArgumentationFramework, p: Partition = None) -> str:
    """Emit canonical AFP text.

    Arguments appear in index order, attacks sorted by name pair, then
    focus statements for the unrestricted part and restricted statements
    for the restricted part (both name-sorted). A vacuous partition (no
    partition, or focus = everything with nothing restricted) emits no
    partition statements at all, which is what it parses back from. An
    empty focus over a nonempty framework would parse back as the vacuous
    partition, so it raises :class:`PreconditionViolated`.
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
        if not p.focus.mask:
            raise PreconditionViolated("an empty focus has no AFP form")
        for name in sorted(p.unrestricted.names):
            lines.append(f"focus({name}).")
        for name in sorted(p.restricted.names):
            lines.append(f"restricted({name}).")
    return "\n".join(lines) + "\n"
