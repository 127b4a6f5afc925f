"""Formula ASTs for the two modal languages, concrete syntax, and substitutions.

The base language L has a relational box `[]` and a universal box `[u]`;
the hybrid language H2 has the relational box, a second box `[h]`, and
nominals.  Derived connectives (or, implication, iff, diamonds) are kept
as distinct AST nodes so the printer can reproduce the input, and every
semantic pass reads them directly.
"""

from __future__ import annotations

import collections
import enum
import itertools
import operator
import re
from collections.abc import Iterable, Iterator

from .errors import LanguageError, ParseError


class Modality(enum.Enum):
    REL = "rel"    # ordinary box over the accessibility relation R
    UNIV = "univ"  # universal box: quantifies over every point
    HYB = "hyb"    # second box over the relation S of hybrid frames

    # each member is one object, so identity hashing is equality's hash;
    # Enum's own __hash__ is a Python call inside every modal node's key
    __hash__ = object.__hash__


class Formula:
    """Base class of the hash-consed formula nodes.

    Every constructor call goes through one process-wide table keyed by
    class and fields, so structurally equal formulas are one object:
    equality and hashing are identity, and a formula is a DAG whose size is
    its number of structurally distinct subterms.  The table holds its
    nodes strongly, for the life of the process: a lookup must cost less
    than the node it saves (Filliatre and Conchon 2006), and a weak table
    looks up through a Python method and gives each node a weak reference
    with a callback.  A run builds a few thousand distinct nodes, so the
    table stays small.

    `args` holds the formula children, left to right.  `flags` records,
    once per node, which of the language-defining symbols (UNIV_BOX,
    HYB_BOX, NOMINAL) occur in the subterm, and whether any variable
    (VARIABLE) or any variable or nominal (SYMBOL) does.
    """

    __slots__ = ("args", "flags")
    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        key = (cls,) + fields
        node = _interned.get(key)
        if node is None:
            if len(fields) != len(cls._fields):
                raise TypeError("%s takes %d arguments" % (cls.__name__, len(cls._fields)))
            node = object.__new__(cls)
            args, flags = [], 0
            for name, value in zip(cls._fields, fields):
                object.__setattr__(node, name, value)
                if isinstance(value, Formula):
                    args.append(value)
                    flags |= value.flags
            object.__setattr__(node, "args", tuple(args))
            object.__setattr__(node, "flags", flags | node._own_flags())
            _interned[key] = node
        return node

    def _own_flags(self) -> int:
        """The flags this node adds to its children's; raises ValueError
        on an invalid field."""
        return 0

    def __setattr__(self, name, value):
        raise AttributeError("formula nodes are immutable")

    def __repr__(self):
        return "parse(%r)" % pretty(self)


UNIV_BOX, HYB_BOX, NOMINAL, SYMBOL, VARIABLE = 1, 2, 4, 8, 16

_interned: dict[tuple, Formula] = {}


class Var(Formula):
    __slots__ = ("index",)
    _fields = ("index",)

    def _own_flags(self) -> int:
        if self.index < 1:
            raise ValueError("variable index must be >= 1")
        return SYMBOL | VARIABLE


class Nominal(Formula):
    __slots__ = ("index",)
    _fields = ("index",)

    def _own_flags(self) -> int:
        if self.index < 1:
            raise ValueError("nominal index must be >= 1")
        return SYMBOL | NOMINAL


class Top(Formula):
    __slots__ = ()


class Bot(Formula):
    __slots__ = ()


class Not(Formula):
    __slots__ = ("sub",)
    _fields = ("sub",)


class _Binary(Formula):
    __slots__ = ("left", "right")
    _fields = ("left", "right")


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Iff(_Binary):
    __slots__ = ()


class _Modal(Formula):
    __slots__ = ("modality", "sub")
    _fields = ("modality", "sub")

    def _own_flags(self) -> int:
        return _MODALITY_FLAG[self.modality]


class Box(_Modal):
    __slots__ = ()


class Diamond(_Modal):
    __slots__ = ()


_MODALITY_FLAG = {Modality.REL: 0, Modality.UNIV: UNIV_BOX, Modality.HYB: HYB_BOX}

TOP = Top()
BOT = Bot()

L = "L"
H2 = "H2"


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty input gives true."""
    parts = list(parts)
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty input gives false."""
    parts = list(parts)
    if not parts:
        return BOT
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def postorder(root, children=operator.attrgetter("args")):
    """Each distinct node reachable from `root`, once, children before their
    parents and left to right: the order in which a memoized recursive walk
    finishes its nodes, without recursion.  `children(node)` is called when
    the walk first reaches the node and may return a lazy iterable.  The
    default follows the `args` of formula nodes (and of decision.NF)."""
    seen = {root}
    stack = [(root, iter(children(root)))]
    # bound once: this loop runs for every node of every pass
    push, pop, see = stack.append, stack.pop, seen.add
    while stack:
        node, pending = stack[-1]
        for child in pending:
            if child not in seen:
                see(child)
                push((child, iter(children(child))))
                break
        else:
            pop()
            yield node


def variables(phi: Formula) -> set[int]:
    return {f.index for f in postorder(phi) if isinstance(f, Var)}


def nominals(phi: Formula) -> set[int]:
    return {f.index for f in postorder(phi) if isinstance(f, Nominal)}


def size(phi: Formula) -> int:
    """Number of distinct subterms (DAG size)."""
    return sum(1 for _ in postorder(phi))


def language_of(phi: Formula) -> str | None:
    """L, H2, or None when the formula fits both (no U-box, H-box or nominal)."""
    flags = phi.flags
    if flags & UNIV_BOX:
        if flags & (HYB_BOX | NOMINAL):
            raise LanguageError("formula mixes the universal box with hybrid syntax")
        return L
    if flags & (HYB_BOX | NOMINAL):
        return H2
    return None


def check_language(phi: Formula, language: str | None) -> None:
    """Raise LanguageError unless phi is a well-formed formula of `language`,
    or of either language when `language` is None."""
    if language not in (L, H2, None):
        raise ValueError("language must be %r, %r or None" % (L, H2))
    actual = language_of(phi)
    if language is not None and actual is not None and actual != language:
        if language == L:
            raise LanguageError("nominals and [h] are not part of the base language")
        raise LanguageError("[u] is not part of the hybrid language")


def _rebuild(f: Formula, args: tuple[Formula, ...]) -> Formula:
    """The node of f's class and fields, with `args` as its children."""
    if isinstance(f, _Modal):
        return type(f)(f.modality, *args)
    return type(f)(*args)


class Substitution:
    """Finite map from variable indices to formulas; nominals are never touched."""

    def __init__(self, mapping: dict[int, Formula] | None = None):
        self.mapping: dict[int, Formula] = dict(mapping or {})

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __repr__(self):
        return "parse_substitution(%r)" % self.serialize()

    def get(self, index: int) -> Formula:
        return self.mapping.get(index, Var(index))

    def apply(self, phi: Formula) -> Formula:
        """Homomorphic replacement of variables.  Visits each distinct
        subterm with a variable once, and returns every variable-free
        subterm, and every subterm that the replacement leaves as it was,
        as it is, without a constructor call."""
        memo: dict[Formula, Formula] = {}
        for f in postorder(phi, lambda g: [a for a in g.args if a.flags & VARIABLE]):
            if type(f) is Var:
                memo[f] = self.mapping.get(f.index, f)
            else:
                args = tuple(memo.get(g, g) for g in f.args)
                memo[f] = f if args == f.args else _rebuild(f, args)
        return memo[phi]

    def serialize(self) -> str:
        """One `p<k> := <formula>` line per variable, after the `$k := ...`
        lines that name the subterms shared within or between the images."""
        items = sorted(self.mapping.items())
        lines, texts = _dag_text([f for _, f in items])
        lines += ["p%d := %s" % (k, text) for (k, _), text in zip(items, texts)]
        return "".join(line + "\n" for line in lines)


def parse_substitution(text: str, language: str = L) -> Substitution:
    """Inverse of Substitution.serialize; lines starting with `#` are
    comments."""
    # blanked, not removed, so error positions still point into `text`
    p = _Parser(re.sub(r"(?m)^[ \t]*#.*$", lambda m: " " * len(m.group()), text))
    mapping = p.definitions(("ref", "var"))
    if p.peek() is not None:
        raise p.error("a line 'p<k> := <formula>' or '$<k> := <formula>'")
    for phi in mapping.values():
        check_language(phi, language)
    return Substitution(mapping)


def apply_subst(sigma: Substitution, phi: Formula) -> Formula:
    return sigma.apply(phi)


def ground_substitutions(var_indices: Iterable[int]) -> Iterator[Substitution]:
    """All maps from the given variables into {false, true}.

    Deterministic order: variables ascending, and the assignments run in
    lexicographic order with false before true, so the first substitution
    maps everything to false and the last maps everything to true.
    """
    order = sorted(set(var_indices))
    for values in itertools.product((BOT, TOP), repeat=len(order)):
        yield Substitution(dict(zip(order, values)))


def surrogate_exists(phi: Formula) -> Formula:
    """<h>(n1 & <h> phi): behaves like a universal diamond where the
    nominal-agreement constraints on n1 hold."""
    check_language(phi, H2)
    return Diamond(Modality.HYB, And(Nominal(1), Diamond(Modality.HYB, phi)))


# --- concrete syntax ---------------------------------------------------------
#
# text := (name ":=" formula)* formula ; name := "$" INT ;
# formula := iff ; iff := imp ("<->" imp)* ; imp := or ("->" or)* ;
# or := and ("|" and)* ; and := unary ("&" unary)* ;
# unary := "~" unary | "[]" unary | "<>" unary | "[u]" unary | "<u>" unary
#        | "[h]" unary | "<h>" unary | atom ;
# atom := "true" | "false" | "p" INT | "n" INT | name | "(" formula ")" .
#
# `->` and `<->` are right-associative, `&` and `|` left-associative.  A
# name stands for the formula it was defined as on an earlier line; the
# printer names the subterms a DAG shares, so its text stays linear in
# the DAG size (the let-binding of SMT-LIB, written one binding per line).

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<binary><->|->|&|\|)|(?P<prefix>~|\[[uh]?\]|<[uh]?>)|(?P<lp>\()"
    r"|(?P<rp>\))|(?P<const>(?:true|false)\b)|(?P<var>p\d+)|(?P<nom>n\d+)"
    r"|(?P<ref>\$\d+)|(?P<def>:=))"
)

# Precedence, loosest first: <->, ->, |, &, the prefix operators, atoms.
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = range(6)

# text -> (class, precedence, right-associative)
_BINARY = {
    "<->": (Iff, _PREC_IFF, True),
    "->": (Implies, _PREC_IMP, True),
    "|": (Or, _PREC_OR, False),
    "&": (And, _PREC_AND, False),
}
_BINARY_TEXT = {cls: text for text, (cls, _, _) in _BINARY.items()}

# text -> constructor and modality
_PREFIX = {
    "~": (Not,),
    "[]": (Box, Modality.REL), "<>": (Diamond, Modality.REL),
    "[u]": (Box, Modality.UNIV), "<u>": (Diamond, Modality.UNIV),
    "[h]": (Box, Modality.HYB), "<h>": (Diamond, Modality.HYB),
}
_PREFIX_TEXT = {ctor: text for text, ctor in _PREFIX.items()}


class _Parser:
    """Formula grammar over the token stream of one input text.  A subclass
    may read other spellings: it names its token pattern, and its tokens
    carry the text of the formula syntax they stand for."""

    token_re = _TOKEN_RE
    token_name = "a formula token"

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = self.token_re.match(text, pos)
            if m is None or m.lastgroup is None:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                raise ParseError(len(text) - len(stripped), self.token_name, text)
            self.tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.i = 0
        self.names: dict[str, Formula] = {}

    def peek(self, ahead: int = 0) -> str | None:
        i = self.i + ahead
        return self.tokens[i][0] if i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, expected: str) -> ParseError:
        pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
        return ParseError(pos, expected, self.text)

    def parse_all(self, rule, what: str):
        """Run the grammar rule over the whole input, which must be nonempty."""
        if not self.tokens:
            raise ParseError(0, what, self.text)
        out = rule()
        if self.i != len(self.tokens):
            raise self.error("end of input")
        return out

    def text_formula(self) -> Formula:
        self.definitions(("ref",))
        return self.formula()

    def definitions(self, heads: tuple[str, ...]) -> dict[int, Formula]:
        """`head := formula` entries for as long as they continue.  A `$k`
        head names its formula for the entries after it; the `p<k>` entries
        are returned as {k: formula}.  Each head may be defined once."""
        out: dict[int, Formula] = {}
        while self.peek() in heads and self.peek(1) == "def":
            kind, head, _ = self.tokens[self.i]
            if kind == "ref" and head in self.names:
                raise self.error("a name that is not defined yet")
            if kind == "var" and int(head[1:]) < 1:
                raise self.error("an index of at least 1")
            if kind == "var" and int(head[1:]) in out:
                raise self.error("a variable that is not defined yet")
            self.i += 2
            phi = self.formula()
            if kind == "ref":
                self.names[head] = phi
            else:
                out[int(head[1:])] = phi
        return out

    def formula(self) -> Formula:
        """Operator precedence over an explicit stack: `ops` holds the prefix
        operators, open parentheses and binary connectives still waiting
        for their right operand, `operands` the formulas read so far."""
        operands: list[Formula] = []
        ops: list[str] = []
        open_groups = 0
        while True:
            while self.peek() in ("prefix", "lp"):
                text = self.next()[1]
                ops.append(text)
                open_groups += text == "("
            operands.append(self.atom())
            while True:
                while ops and ops[-1] in _PREFIX:
                    ctor, *modality = _PREFIX[ops.pop()]
                    operands.append(ctor(*modality, operands.pop()))
                if not (open_groups and self.peek() == "rp"):
                    break
                self.next()
                self._reduce(operands, ops, _PREC_IFF, False)
                ops.pop()
                open_groups -= 1
            if self.peek() != "binary":
                if open_groups:
                    raise self.error("')'")
                self._reduce(operands, ops, _PREC_IFF, False)
                return operands[0]
            text = self.next()[1]
            _, prec, right_assoc = _BINARY[text]
            self._reduce(operands, ops, prec, right_assoc)
            ops.append(text)

    @staticmethod
    def _reduce(operands: list[Formula], ops: list[str], prec: int, right_assoc: bool) -> None:
        """Apply the pending binary connectives that bind tighter than a
        connective of precedence `prec` arriving next (or as tight, when it
        associates to the left); stops at an open parenthesis."""
        while ops and ops[-1] in _BINARY:
            ctor, top, _ = _BINARY[ops[-1]]
            if top < prec or (top == prec and right_assoc):
                break
            ops.pop()
            right = operands.pop()
            operands.append(ctor(operands.pop(), right))

    def atom(self) -> Formula:
        kind = self.peek()
        if kind not in ("const", "var", "nom", "ref"):
            raise self.error("an atom, '~', a box or a diamond")
        text = self.tokens[self.i][1]
        if kind == "ref" and text not in self.names:
            raise self.error("a name defined on an earlier line")
        if kind in ("var", "nom") and int(text[1:]) < 1:
            raise self.error("an index of at least 1")
        self.next()
        if kind == "const":
            return TOP if text == "true" else BOT
        if kind == "ref":
            return self.names[text]
        return (Var if kind == "var" else Nominal)(int(text[1:]))


def parse(text: str, language: str | None = L) -> Formula:
    p = _Parser(text)
    out = p.parse_all(p.text_formula, "a formula")
    check_language(out, language)
    return out


def pretty(phi: Formula) -> str:
    """Minimal-parenthesis rendering; parse(pretty(phi)) is phi.

    A non-atomic subterm with two or more references is written once, on a
    line `$k := <formula>` before the lines that use it (k counts in
    post-order); the last line is phi.  Without such subterms the text is
    one line.
    """
    lines, texts = _dag_text([phi])
    return "\n".join(lines + texts)


def _dag_text(roots: list[Formula],
              spelling: dict[str, str] = {}) -> tuple[list[str], list[str]]:
    """The `$k := ...` lines for the subterms the roots share, and the text
    of each root over those names.  `spelling` maps tokens of the formula
    syntax (`p`, `[u]`, `false`, ...) to the text written in their place."""
    top = tuple(roots)
    nodes = [f for f in postorder(top, lambda f: f if f is top else f.args) if f is not top]
    refs = collections.Counter(roots)
    for f in nodes:
        refs.update(f.args)
    names: dict[Formula, str] = {}
    lines = []
    for f in nodes:
        if f.args and refs[f] > 1:
            # rendered before f gets its own name, which only its uses print
            lines.append("$%d := %s" % (len(names) + 1, _inline(f, names, spelling)))
            names[f] = "$%d" % (len(names) + 1)
    return lines, [names.get(f) or _inline(f, names, spelling) for f in roots]


def _inline(phi: Formula, names: dict[Formula, str], spelling: dict[str, str]) -> str:
    """phi written out down to atoms and named subterms."""
    out: list[str] = []
    stack: list = [(phi, _PREC_IFF)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(spelling.get(item, item))
            continue
        f, min_prec = item
        name = names.get(f)
        if name is not None:
            out.append(name)
            continue
        prec, parts = _layout(f)
        if prec < min_prec:
            parts = ["("] + parts + [")"]
        stack.extend(reversed(parts))
    return "".join(out)


def _layout(f: Formula) -> tuple[int, list]:
    """Precedence of f's top connective and its text: strings, and
    (child, least precedence the child may have without parentheses)."""
    if isinstance(f, (Var, Nominal)):
        return _PREC_ATOM, ["p" if isinstance(f, Var) else "n", str(f.index)]
    if not f.args:
        return _PREC_ATOM, ["true" if f is TOP else "false"]
    if isinstance(f, _Binary):
        text = _BINARY_TEXT[type(f)]
        _, prec, right_assoc = _BINARY[text]
        return prec, [(f.left, prec + right_assoc), " %s " % text,
                      (f.right, prec + (not right_assoc))]
    prefix = _PREFIX_TEXT[(Not,) if isinstance(f, Not) else (type(f), f.modality)]
    return _PREC_UNARY, [prefix, (f.sub, _PREC_UNARY)]
