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

Expressions are evaluated only compiled: compile_array turns a model's
entries into one generated Python function that fills an array, one
expression per entry with the numpy operations of a walk over its tree
in the same order, so arithmetic is plain IEEE double, left to right.
Each operation writes in place into the entry or a scratch buffer, so
an evaluation allocates its result and a few buffers, not one array per
node.  Variables may be numpy arrays, so ensembles evaluate in one pass.
affine_degrees decides from the tree alone whether an entry is affine.
Parsing and compiling recurse, so deeper than MAX_DEPTH is refused.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Var(Expr):
    kind: str  # 'x', 'u' or 'w'
    index: int  # 1-based


@dataclass(frozen=True)
class Lit(Expr):
    value: float


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # '+', '-', '*', '/'
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    power: int


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
            if not math.isfinite(float(text)):
                raise ParseError(f"number {text} is not finite", line, col)
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


def affine_degrees(e: Expr):
    """The degrees in (x, u, w) of e's monomials, a subset of {0, 1}, when e's
    tree alone shows it affine; else None.  A zero literal has no monomial,
    a subtree with no variable has degree 0, a product may have one factor
    that is not constant, and a divisor must be constant; any other
    function or power of a variable is refused."""
    if isinstance(e, Var):
        return frozenset({1})
    if isinstance(e, Lit):
        return frozenset({0}) if e.value != 0 else frozenset()
    if isinstance(e, Neg):
        return affine_degrees(e.arg)
    if next(free_vars(e), None) is None:
        return frozenset({0})
    if isinstance(e, Pow) and e.power in (0, 1):
        return affine_degrees(e.base) if e.power else frozenset({0})
    if not isinstance(e, Bin):
        return None
    lhs, rhs = affine_degrees(e.lhs), affine_degrees(e.rhs)
    if lhs is None or rhs is None:
        return None
    if e.op in "+-":
        return lhs | rhs
    if e.op == "/":
        return lhs if rhs <= {0} else None
    degrees = frozenset(i + j for i in lhs for j in rhs)
    return degrees if degrees <= {0, 1} else None


# ---------------------------------------------------------------------------
# compilation


def _div(a, b, source):
    if np.any(b == 0):
        raise ExprEvalError("division by zero", source=source)
    return a / b


def _neg_pow(a, power, source):
    if np.any(a == 0):
        raise ExprEvalError("zero raised to a negative power", source=source)
    return a ** power


def _code(e: Expr, consts: list) -> str:
    """Python source of e, fully parenthesized: operands evaluate left to
    right and each node runs its numpy operation, as a walk over the tree
    does, and each intermediate is freed once its parent has used it."""
    if isinstance(e, Var) and e.kind in ("x", "u", "w"):
        return f"{e.kind}[{e.index - 1:d}]"
    if isinstance(e, Lit):
        consts.append(e.value)  # a table, not repr: 1e999 is inf
        return f"c[{len(consts) - 1}]"
    if isinstance(e, Neg):
        return f"(-{_code(e.arg, consts)})"
    if isinstance(e, Bin) and e.op in ("+", "-", "*"):
        return f"({_code(e.lhs, consts)} {e.op} {_code(e.rhs, consts)})"
    if isinstance(e, Bin) and e.op == "/":
        return f"_div({_code(e.lhs, consts)}, {_code(e.rhs, consts)}, {to_source(e)!r})"
    if isinstance(e, Call) and e.fn in _FUNCTIONS:
        return f"np.{e.fn}({_code(e.arg, consts)})"
    if isinstance(e, Pow) and e.power < 0:
        return f"_neg_pow({_code(e.base, consts)}, {e.power:d}, {to_source(e)!r})"
    if isinstance(e, Pow):
        return f"({_code(e.base, consts)} ** {e.power:d})"
    raise TypeError(f"not a compilable expression node: {e!r}")  # no other text reaches the source


def _operand(e: Expr) -> bool:
    """Whether e enters its parent as _code text: a leaf, a subtree with no
    x/u/w leaf, a division or an integer power (numpy's ** has fast paths
    of its own, so those keep their operator)."""
    return isinstance(e, (Var, Lit, Pow)) or (isinstance(e, Bin) and e.op == "/") or next(free_vars(e), None) is None


_UFUNCS = {"+": "np.add", "-": "np.subtract", "*": "np.multiply"}


def compile_array(entries: dict, lead: tuple, args: str):
    """One generated function of args ("x, u, w" or "x") that reads x as a
    float array and returns the (*lead, *x.shape[1:]) array holding
    entries[index] at each index of entries and zero elsewhere.

    Each tree is written into its entry in place: a node runs its numpy
    operation with out= on the entry's view (out[i, ...], an array even
    when x is 1-D), its left operand computed there first and a right
    operand that is not _code text in the scratch buffer of its nesting
    level.  A function never writes over its own argument.  Results are
    those of a left-to-right walk over each tree, bit for bit, with no
    temporary per node."""
    consts, body = [], []
    levels = temps = 0  # scratch buffers used, operands bound to names

    def emit(e, t, level):
        """Statements that write e into the array t, using scratch s{level} and deeper."""
        nonlocal levels, temps
        levels = max(levels, level)
        if isinstance(e, (Neg, Call)):
            fn = "np.negative" if isinstance(e, Neg) else f"np.{e.fn}"
            if _operand(e.arg):
                arg = _code(e.arg, consts)
            elif isinstance(e, Neg):
                emit(e.arg, t, level)
                arg = t
            else:
                arg = f"s{level}"
                emit(e.arg, arg, level + 1)
            body.append(f"{fn}({arg}, out={t})")
        elif isinstance(e, Bin) and e.op in _UFUNCS:
            left_in_t = not _operand(e.lhs)
            if left_in_t:
                emit(e.lhs, t, level)
                lhs = t
            else:
                lhs = _code(e.lhs, consts)
                if not isinstance(e.lhs, (Var, Lit)) and not _operand(e.rhs):  # evaluated before rhs
                    temps += 1
                    body.append(f"v{temps} = {lhs}")
                    lhs = f"v{temps}"
            if _operand(e.rhs):
                rhs = _code(e.rhs, consts)
            elif left_in_t:
                rhs = f"s{level}"
                emit(e.rhs, rhs, level + 1)
            else:
                rhs = t
                emit(e.rhs, t, level)
            body.append(f"{_UFUNCS[e.op]}({lhs}, {rhs}, out={t})")
        else:
            raise TypeError(f"not a compilable expression node: {e!r}")

    for index, e in entries.items():
        target = f"out[{''.join(f'{i:d}, ' for i in index)}...]"
        if _operand(e):
            body.append(f"{target} = {_code(e, consts)}")
        else:
            body.append(f"t = {target}")
            emit(e, "t", 0)
    shape = "".join(f"{d:d}, " for d in lead)
    fill = "empty" if len(entries) == math.prod(lead) else "zeros"
    scratch = [f"s{k} = empty(x.shape[1:])" for k in range(levels)]
    source = "\n    ".join([f"def compiled({args}):", "x = asarray(x, float)",
                            f"out = {fill}(({shape}*x.shape[1:]))", *scratch, *body, "return out"])
    namespace = dict(np=np, asarray=np.asarray, empty=np.empty, zeros=np.zeros, _div=_div, _neg_pow=_neg_pow,
                     c=tuple(consts))
    exec(compile(source, "<compiled expressions>", "exec"), namespace)
    return namespace["compiled"]
