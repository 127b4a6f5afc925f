"""Formula ASTs for the two modal languages, concrete syntax, and substitutions.

The base language L has a relational box `[]` and a universal box `[u]`;
the hybrid language H2 has the relational box, a second box `[h]`, and
nominals.  Derived connectives (or, implication, iff, diamonds) are kept
as distinct AST nodes so the printer can reproduce the input; semantic
code normalizes them away with `desugar`.
"""

from __future__ import annotations

import enum
import itertools
import re
import weakref
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .errors import LanguageError, ParseError


class Modality(enum.Enum):
    REL = "rel"    # ordinary box over the accessibility relation R
    UNIV = "univ"  # universal box: quantifies over every point
    HYB = "hyb"    # second box over the relation S of hybrid frames


class Formula:
    """Base class of the hash-consed formula nodes.

    Every constructor call goes through one process-wide table keyed by
    class and fields, so structurally equal formulas are one object:
    equality and hashing are identity, and a formula is a DAG whose size is
    its number of structurally distinct subterms.  The table holds nodes
    weakly, so a formula no one references is freed as usual.

    `flags` records, once per node, which of the language-defining symbols
    (UNIV_BOX, HYB_BOX, NOMINAL) and whether any variable or nominal
    (SYMBOL) occur in the subterm.
    """

    __slots__ = ("flags", "__weakref__")
    _fields: Tuple[str, ...] = ()

    def __new__(cls, *args):
        key = (cls,) + args
        node = _interned.get(key)
        if node is None:
            if len(args) != len(cls._fields):
                raise TypeError("%s takes %d arguments" % (cls.__name__, len(cls._fields)))
            node = object.__new__(cls)
            flags = 0
            for name, value in zip(cls._fields, args):
                object.__setattr__(node, name, value)
                if isinstance(value, Formula):
                    flags |= value.flags
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
        return "%s(%s)" % (self.__class__.__name__,
                           ", ".join(repr(getattr(self, f)) for f in self._fields))

    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


UNIV_BOX, HYB_BOX, NOMINAL, SYMBOL = 1, 2, 4, 8

_interned = weakref.WeakValueDictionary()


class Var(Formula):
    __slots__ = ("index",)
    _fields = ("index",)

    def _own_flags(self) -> int:
        if self.index < 1:
            raise ValueError("variable index must be >= 1")
        return SYMBOL


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


def iter_subformulas(phi: Formula) -> Iterator[Formula]:
    """Every distinct subterm of the DAG rooted at phi, once each."""
    seen = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if f in seen:
            continue
        seen.add(f)
        yield f
        if isinstance(f, _Binary):
            stack.append(f.left)
            stack.append(f.right)
        elif isinstance(f, (Not, _Modal)):
            stack.append(f.sub)


def variables(phi: Formula) -> Set[int]:
    return {f.index for f in iter_subformulas(phi) if isinstance(f, Var)}


def nominals(phi: Formula) -> Set[int]:
    return {f.index for f in iter_subformulas(phi) if isinstance(f, Nominal)}


def size(phi: Formula) -> int:
    """Number of distinct subterms (DAG size)."""
    return sum(1 for _ in iter_subformulas(phi))


def modal_depth(phi: Formula) -> int:
    memo: Dict[Formula, int] = {}

    def depth(f: Formula) -> int:
        r = memo.get(f)
        if r is not None:
            return r
        if isinstance(f, Not):
            r = depth(f.sub)
        elif isinstance(f, (And, Or, Implies, Iff)):
            r = max(depth(f.left), depth(f.right))
        elif isinstance(f, (Box, Diamond)):
            r = 1 + depth(f.sub)
        else:
            r = 0
        memo[f] = r
        return r

    return depth(phi)


def language_of(phi: Formula) -> Optional[str]:
    """L, H2, or None when the formula fits both (no U-box, H-box or nominal)."""
    flags = phi.flags
    if flags & UNIV_BOX:
        if flags & (HYB_BOX | NOMINAL):
            raise LanguageError("formula mixes the universal box with hybrid syntax")
        return L
    if flags & (HYB_BOX | NOMINAL):
        return H2
    return None


def check_language(phi: Formula, language: str) -> None:
    """Raise LanguageError unless phi is a well-formed formula of `language`."""
    if language not in (L, H2):
        raise ValueError("language must be %r or %r" % (L, H2))
    actual = language_of(phi)
    if actual is not None and actual != language:
        if language == L:
            raise LanguageError("nominals and [h] are not part of the base language")
        raise LanguageError("[u] is not part of the hybrid language")


def desugar(phi: Formula) -> Formula:
    """Rewrite derived connectives into var/nominal/true/false/~/&/boxes.

    Visits each distinct subterm once.
    """
    memo: Dict[Formula, Formula] = {}

    def go(f: Formula) -> Formula:
        r = memo.get(f)
        if r is not None:
            return r
        if isinstance(f, (Var, Nominal, Top, Bot)):
            r = f
        elif isinstance(f, Not):
            r = Not(go(f.sub))
        elif isinstance(f, And):
            r = And(go(f.left), go(f.right))
        elif isinstance(f, Or):
            r = Not(And(Not(go(f.left)), Not(go(f.right))))
        elif isinstance(f, Implies):
            r = Not(And(go(f.left), Not(go(f.right))))
        elif isinstance(f, Iff):
            a, b = go(f.left), go(f.right)
            r = And(Not(And(a, Not(b))), Not(And(b, Not(a))))
        elif isinstance(f, Box):
            r = Box(f.modality, go(f.sub))
        elif isinstance(f, Diamond):
            r = Not(Box(f.modality, Not(go(f.sub))))
        else:
            raise TypeError("not a formula: %r" % (f,))
        memo[f] = r
        return r

    return go(phi)


class Substitution:
    """Finite map from variable indices to formulas; nominals are never touched."""

    def __init__(self, mapping: Optional[Dict[int, Formula]] = None):
        self.mapping: Dict[int, Formula] = dict(mapping or {})

    def __eq__(self, other):
        return isinstance(other, Substitution) and self.mapping == other.mapping

    def __repr__(self):
        items = ", ".join("p%d -> %s" % (k, pretty(v)) for k, v in sorted(self.mapping.items()))
        return "Substitution{%s}" % items

    def get(self, index: int) -> Formula:
        return self.mapping.get(index, Var(index))

    def apply(self, phi: Formula) -> Formula:
        """Homomorphic replacement of variables; visits each distinct subterm once."""
        memo: Dict[Formula, Formula] = {}

        def go(f: Formula) -> Formula:
            r = memo.get(f)
            if r is not None:
                return r
            if isinstance(f, Var):
                r = self.mapping.get(f.index, f)
            elif isinstance(f, (Nominal, Top, Bot)):
                r = f
            elif isinstance(f, Not):
                r = Not(go(f.sub))
            elif isinstance(f, And):
                r = And(go(f.left), go(f.right))
            elif isinstance(f, Or):
                r = Or(go(f.left), go(f.right))
            elif isinstance(f, Implies):
                r = Implies(go(f.left), go(f.right))
            elif isinstance(f, Iff):
                r = Iff(go(f.left), go(f.right))
            elif isinstance(f, Box):
                r = Box(f.modality, go(f.sub))
            elif isinstance(f, Diamond):
                r = Diamond(f.modality, go(f.sub))
            else:
                raise TypeError("not a formula: %r" % (f,))
            memo[f] = r
            return r

        return go(phi)

    def compose(self, inner: "Substitution") -> "Substitution":
        """(self . inner)(p) = self.apply(inner(p)), applied right-to-left."""
        out = {k: self.apply(v) for k, v in inner.mapping.items()}
        for k, v in self.mapping.items():
            out.setdefault(k, v)
        return Substitution(out)

    def serialize(self) -> str:
        return "".join("p%d := %s\n" % (k, pretty(v)) for k, v in sorted(self.mapping.items()))


def parse_substitution(text: str, language: str = L) -> Substitution:
    mapping: Dict[int, Formula] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = re.match(r"^p(\d+)\s*:=\s*(.*)$", line)
        if m is None:
            raise ParseError(0, "a line of the form 'p<k> := <formula>'", line)
        mapping[int(m.group(1))] = parse(m.group(2), language)
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


def surrogate_exists(phi: Formula, nominal_index: int) -> Formula:
    """<h>(n & <h> phi): behaves like a universal diamond where the
    nominal-agreement constraints hold."""
    check_language(phi, H2)
    return Diamond(Modality.HYB, And(Nominal(nominal_index), Diamond(Modality.HYB, phi)))


# --- concrete syntax ---------------------------------------------------------
#
# formula := iff ; iff := imp ("<->" imp)* ; imp := or ("->" or)* ;
# or := and ("|" and)* ; and := unary ("&" unary)* ;
# unary := "~" unary | "[]" unary | "<>" unary | "[u]" unary | "<u>" unary
#        | "[h]" unary | "<h>" unary | atom ;
# atom := "true" | "false" | "p" INT | "n" INT | "(" formula ")" .
#
# `->` and `<->` are right-associative, `&` and `|` left-associative.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<iff><->)|(?P<imp>->)|(?P<boxu>\[u\])|(?P<diau><u>)"
    r"|(?P<boxh>\[h\])|(?P<diah><h>)|(?P<box>\[\])|(?P<dia><>)"
    r"|(?P<and>&)|(?P<or>\|)|(?P<not>~)|(?P<lp>\()|(?P<rp>\))"
    r"|(?P<true>true\b)|(?P<false>false\b)|(?P<var>p\d+)|(?P<nom>n\d+))"
)

_UNARY_TOKENS = {
    "not": None,
    "box": (Box, Modality.REL),
    "dia": (Diamond, Modality.REL),
    "boxu": (Box, Modality.UNIV),
    "diau": (Diamond, Modality.UNIV),
    "boxh": (Box, Modality.HYB),
    "diah": (Diamond, Modality.HYB),
}


class _Tokens:
    """Token stream over one input text, shared by the formula and the term
    parsers; a subclass names its token pattern and adds the grammar."""

    token_re: "re.Pattern[str]"
    token_name: str

    def __init__(self, text: str):
        self.text = text
        self.tokens: List[Tuple[str, str, int]] = []
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

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> Tuple[str, str, int]:
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


class _Parser(_Tokens):
    token_re = _TOKEN_RE
    token_name = "a formula token"

    def parse_formula(self) -> Formula:
        return self.parse_iff()

    def parse_iff(self) -> Formula:
        parts = [self.parse_imp()]
        while self.peek() == "iff":
            self.next()
            parts.append(self.parse_imp())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Iff(p, out)
        return out

    def parse_imp(self) -> Formula:
        parts = [self.parse_or()]
        while self.peek() == "imp":
            self.next()
            parts.append(self.parse_or())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Implies(p, out)
        return out

    def parse_or(self) -> Formula:
        out = self.parse_and()
        while self.peek() == "or":
            self.next()
            out = Or(out, self.parse_and())
        return out

    def parse_and(self) -> Formula:
        out = self.parse_unary()
        while self.peek() == "and":
            self.next()
            out = And(out, self.parse_unary())
        return out

    def parse_unary(self) -> Formula:
        kind = self.peek()
        if kind in _UNARY_TOKENS:
            self.next()
            sub = self.parse_unary()
            if kind == "not":
                return Not(sub)
            ctor, mod = _UNARY_TOKENS[kind]
            return ctor(mod, sub)
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        kind = self.peek()
        if kind == "true":
            self.next()
            return TOP
        if kind == "false":
            self.next()
            return BOT
        if kind == "var":
            _, text, _ = self.next()
            return Var(int(text[1:]))
        if kind == "nom":
            _, text, _ = self.next()
            return Nominal(int(text[1:]))
        if kind == "lp":
            self.next()
            out = self.parse_formula()
            if self.peek() != "rp":
                raise self.error("')'")
            self.next()
            return out
        raise self.error("an atom, '~', a box or a diamond")


def parse(text: str, language: str = L) -> Formula:
    p = _Parser(text)
    out = p.parse_all(p.parse_formula, "a formula")
    check_language(out, language)
    return out


# Printer precedence, tightest first: unary, &, |, ->, <->.
_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY, _PREC_ATOM = range(6)

_MOD_BOX = {Modality.REL: "[]", Modality.UNIV: "[u]", Modality.HYB: "[h]"}
_MOD_DIA = {Modality.REL: "<>", Modality.UNIV: "<u>", Modality.HYB: "<h>"}


def pretty(phi: Formula) -> str:
    """Minimal-parenthesis rendering; parse(pretty(phi)) == phi."""
    out: List[str] = []

    def go(f: Formula, min_prec: int) -> None:
        prec, render = _render_info(f)
        if prec < min_prec:
            out.append("(")
            render()
            out.append(")")
        else:
            render()

    def _render_info(f: Formula):
        if isinstance(f, Var):
            return _PREC_ATOM, lambda: out.append("p%d" % f.index)
        if isinstance(f, Nominal):
            return _PREC_ATOM, lambda: out.append("n%d" % f.index)
        if isinstance(f, Top):
            return _PREC_ATOM, lambda: out.append("true")
        if isinstance(f, Bot):
            return _PREC_ATOM, lambda: out.append("false")
        if isinstance(f, Not):
            def render():
                out.append("~")
                go(f.sub, _PREC_UNARY)
            return _PREC_UNARY, render
        if isinstance(f, Box):
            def render():
                out.append(_MOD_BOX[f.modality])
                go(f.sub, _PREC_UNARY)
            return _PREC_UNARY, render
        if isinstance(f, Diamond):
            def render():
                out.append(_MOD_DIA[f.modality])
                go(f.sub, _PREC_UNARY)
            return _PREC_UNARY, render
        if isinstance(f, And):
            def render():
                go(f.left, _PREC_AND)
                out.append(" & ")
                go(f.right, _PREC_AND + 1)
            return _PREC_AND, render
        if isinstance(f, Or):
            def render():
                go(f.left, _PREC_OR)
                out.append(" | ")
                go(f.right, _PREC_OR + 1)
            return _PREC_OR, render
        if isinstance(f, Implies):
            def render():
                go(f.left, _PREC_IMP + 1)
                out.append(" -> ")
                go(f.right, _PREC_IMP)
            return _PREC_IMP, render
        if isinstance(f, Iff):
            def render():
                go(f.left, _PREC_IFF + 1)
                out.append(" <-> ")
                go(f.right, _PREC_IFF)
            return _PREC_IFF, render
        raise TypeError("not a formula: %r" % (f,))

    go(phi, _PREC_IFF)
    return "".join(out)
