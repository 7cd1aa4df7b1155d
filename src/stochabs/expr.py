"""Arithmetic expression sublanguage for drift and diffusion entries.

Grammar (standard precedence, unary minus binds tightest, then * /,
then + -, all binary operators left-associative)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | atom
    atom   := number | var | fn '(' expr ')' | 'pow' '(' expr ',' int ')'
            | '(' expr ')'
    var    := ('x'|'u'|'w') digits          (1-based index)
    fn     := 'sin' | 'cos' | 'tanh' | 'exp'

Evaluation is plain IEEE double arithmetic, left to right, and accepts
numpy arrays for the variable values so that ensembles evaluate in one
pass.  Parsing and evaluation recurse, so deeper than MAX_DEPTH is refused.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExprEvalError, ParseError

_FUNCTIONS = ("sin", "cos", "tanh", "exp")

#: Deepest accepted tree (each operator, call or pow one level) and nesting
#: of parentheses: far above hand-written terms, far below the recursion limit.
MAX_DEPTH = 100

_TOKEN_RE = re.compile(
    r"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/(),])
  | (?P<ws>\s+)
""",
    re.VERBOSE,
)


class Expr:
    """Base class of expression nodes (immutable)."""

    def eval(self, x, u, w):
        raise NotImplementedError


@dataclass(frozen=True)
class Var(Expr):
    kind: str  # 'x', 'u' or 'w'
    index: int  # 1-based

    def eval(self, x, u, w):
        vec = {"x": x, "u": u, "w": w}[self.kind]
        return vec[self.index - 1]


@dataclass(frozen=True)
class Lit(Expr):
    value: float

    def eval(self, x, u, w):
        return self.value


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr

    def eval(self, x, u, w):
        return -self.arg.eval(x, u, w)


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # '+', '-', '*', '/'
    lhs: Expr
    rhs: Expr

    def eval(self, x, u, w):
        a = self.lhs.eval(x, u, w)
        b = self.rhs.eval(x, u, w)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if np.any(b == 0):
            raise ExprEvalError("division by zero", source=to_source(self))
        return a / b


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr

    def eval(self, x, u, w):
        a = self.arg.eval(x, u, w)
        return getattr(np, self.fn)(a)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    power: int

    def eval(self, x, u, w):
        a = self.base.eval(x, u, w)
        if self.power < 0 and np.any(a == 0):
            raise ExprEvalError("zero raised to a negative power", source=to_source(self))
        return a ** self.power


def tokenize(text, line=1, col_offset=0):
    """Split text into (kind, text, line, col) tuples; col is 1-based."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col_offset + pos + 1)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), line, col_offset + pos + 1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens, line, end_col, dims=None):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.end_col = end_col
        self.dims = dims  # (n, m, p) or None to skip index validation
        self.open = 0  # parentheses, calls and unary minus being parsed

    def _deeper(self, depth, tok):
        """depth + 1 (of a node over its children, or of open constructs), refused
        past MAX_DEPTH at tok.  expr, term, factor and atom return (node, depth)."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", tok[2], tok[3])
        return depth + 1

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression", self.line, self.end_col)
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, got {tok[1]!r}", tok[2], tok[3])
        return tok

    def parse(self):
        e, _ = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2], tok[3])
        return e

    def expr(self):
        e, d = self.term()
        while (tok := self.peek()) is not None and tok[1] in "+-":
            self.next()
            rhs, rd = self.term()
            e, d = Bin(tok[1], e, rhs), self._deeper(max(d, rd), tok)
        return e, d

    def term(self):
        e, d = self.factor()
        while (tok := self.peek()) is not None and tok[1] in "*/":
            self.next()
            rhs, rd = self.factor()
            e, d = Bin(tok[1], e, rhs), self._deeper(max(d, rd), tok)
        return e, d

    def factor(self):
        tok = self.peek()
        if tok is not None and tok[1] == "-":
            self.next()
            self.open = self._deeper(self.open, tok)
            arg, d = self.factor()
            self.open -= 1
            return Neg(arg), self._deeper(d, tok)
        return self.atom()

    def atom(self):
        tok = self.next()
        kind, text, line, col = tok
        if kind == "num":
            return Lit(float(text)), 1
        if text == "(":
            self.open = self._deeper(self.open, tok)
            e, d = self.expr()
            self.expect(")")
            self.open -= 1
            return e, d
        if kind == "ident":
            if text in _FUNCTIONS or text == "pow":
                self.open = self._deeper(self.open, tok)
                self.expect("(")
                arg, d = self.expr()
                if text == "pow":
                    self.expect(",")
                    node = Pow(arg, self._int_literal())
                else:
                    node = Call(text, arg)
                self.expect(")")
                self.open -= 1
                return node, self._deeper(d, tok)
            m = re.fullmatch(r"([xuw])(\d+)", text)
            if m:
                return self._var(m.group(1), int(m.group(2)), line, col), 1
            raise ParseError(f"unknown identifier {text!r}", line, col)
        raise ParseError(f"unexpected token {text!r}", line, col)

    def _int_literal(self):
        tok = self.next()
        sign = 1
        if tok[1] == "-":
            sign = -1
            tok = self.next()
        if tok[0] != "num" or not re.fullmatch(r"\d+", tok[1]):
            raise ParseError(f"expected integer exponent, got {tok[1]!r}", tok[2], tok[3])
        return sign * int(tok[1])

    def _var(self, kind, index, line, col):
        if self.dims is not None:
            limit = {"x": self.dims[0], "u": self.dims[1], "w": self.dims[2]}[kind]
            if not 1 <= index <= limit:
                raise ParseError(
                    f"variable index out of range: {kind}{index} (declared {kind}-dimension is {limit})",
                    line,
                    col,
                )
        elif index < 1:
            raise ParseError(f"variable index out of range: {kind}{index}", line, col)
        return Var(kind, index)


def parse_expr(text, dims=None, line=1, col_offset=0):
    """Parse an expression string into an AST.

    dims, when given, is (n, m, p) and variable indices are validated
    against it.  line/col_offset position error messages within a larger
    file.
    """
    tokens = tokenize(text, line, col_offset)
    if not tokens:
        raise ParseError("empty expression", line, col_offset + 1)
    return _Parser(tokens, line, col_offset + len(text) + 1, dims).parse()


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_NEG, _LEVEL_ATOM = 1, 2, 3, 4


def _level(e: Expr) -> int:
    if isinstance(e, Bin):
        return _LEVEL_ADD if e.op in "+-" else _LEVEL_MUL
    if isinstance(e, Neg):
        return _LEVEL_NEG
    return _LEVEL_ATOM


def to_source(e: Expr) -> str:
    """Render e as parseable text; parse(to_source(e)) reproduces e exactly."""
    if isinstance(e, Var):
        return f"{e.kind}{e.index}"
    if isinstance(e, Lit):
        return repr(e.value)
    if isinstance(e, Neg):
        inner = to_source(e.arg)
        if _level(e.arg) < _LEVEL_NEG:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        lhs = to_source(e.lhs)
        rhs = to_source(e.rhs)
        lvl = _level(e)
        if _level(e.lhs) < lvl:
            lhs = f"({lhs})"
        if _level(e.rhs) <= lvl:  # strict: binary ops are left-associative
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    if isinstance(e, Call):
        return f"{e.fn}({to_source(e.arg)})"
    if isinstance(e, Pow):
        return f"pow({to_source(e.base)}, {e.power})"
    raise TypeError(f"not an expression node: {e!r}")


def free_vars(e: Expr):
    """Yield every Var node in e (with repeats)."""
    if isinstance(e, Var):
        yield e
    elif isinstance(e, Neg):
        yield from free_vars(e.arg)
    elif isinstance(e, Bin):
        yield from free_vars(e.lhs)
        yield from free_vars(e.rhs)
    elif isinstance(e, Call):
        yield from free_vars(e.arg)
    elif isinstance(e, Pow):
        yield from free_vars(e.base)
