import numpy as np
import pytest

from stochabs.errors import ExprEvalError, ParseError
from stochabs.expr import (
    MAX_DEPTH,
    Bin,
    Call,
    Lit,
    Neg,
    Pow,
    Var,
    compile_array,
    free_vars,
    parse_expr,
    to_source,
)

DIMS = (3, 2, 2)


def evaluate(e, x, u, w):
    """e at x, u, w through the compiled function of a one-entry array."""
    return compile_array({(0,): e}, (1,), "x, u, w")(x, u, w)[0]


def test_left_associative_sum():
    e = parse_expr("-x1 + u1 + w1", dims=(1, 1, 1))
    assert e == Bin("+", Bin("+", Neg(Var("x", 1)), Var("u", 1)), Var("w", 1))


def test_precedence():
    e = parse_expr("sin(x1)*x2", dims=(2, 0, 0))
    assert e == Bin("*", Call("sin", Var("x", 1)), Var("x", 2))
    e2 = parse_expr("x1 + x2 * x3", dims=DIMS)
    assert e2 == Bin("+", Var("x", 1), Bin("*", Var("x", 2), Var("x", 3)))
    # unary minus binds tighter than *
    e3 = parse_expr("-x1*x2", dims=DIMS)
    assert e3 == Bin("*", Neg(Var("x", 1)), Var("x", 2))


def test_index_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse_expr("x0 + u1", dims=(2, 1, 0))
    with pytest.raises(ParseError, match="out of range"):
        parse_expr("x3", dims=(2, 0, 0))
    with pytest.raises(ParseError, match="out of range"):
        parse_expr("w1", dims=(2, 0, 0))


def test_eval_examples():
    e = parse_expr("-x1 + u1 + w1", dims=(1, 1, 1))
    assert evaluate(e, [2.0], [1.0], [0.5]) == -0.5
    assert evaluate(parse_expr("pow(x1,2)", dims=(1, 0, 0)), [-3.0], [], []) == 9.0


def test_division_guard():
    e = parse_expr("x1 / x2", dims=(2, 0, 0))
    with pytest.raises(ExprEvalError) as exc:
        evaluate(e, [1.0, 0.0], [], [])
    assert "x1 / x2" in str(exc.value)
    with pytest.raises(ExprEvalError) as exc:
        evaluate(parse_expr("pow(x1,-1)", dims=(1, 0, 0)), [0.0], [], [])
    assert "pow(x1, -1)" in str(exc.value)


def test_positioned_errors():
    bad = ["", "1 +", "sin(x1", "x1 ** 2", "pow(x1)", "foo(x1)", "(x1))", "x1 @ 2"]
    for text in bad:
        with pytest.raises(ParseError) as exc:
            parse_expr(text, dims=DIMS)
        assert exc.value.line is not None


def test_non_finite_literal_is_refused():
    # it overflowed to inf and reached certify as a nan margin
    with pytest.raises(ParseError, match="line 3, col 6: number 1e999 is not finite"):
        parse_expr("x1 + 1e999*x1", dims=DIMS, line=3)


def random_expr(rng, depth=0):
    pick = rng.random()
    if depth >= 5 or pick < 0.35:
        if rng.random() < 0.5:
            kind = "xuw"[rng.integers(3)]
            limit = {"x": DIMS[0], "u": DIMS[1], "w": DIMS[2]}[kind]
            return Var(kind, int(rng.integers(1, limit + 1)))
        return Lit(float(np.round(rng.uniform(0, 10), 4)))
    if pick < 0.45:
        return Neg(random_expr(rng, depth + 1))
    if pick < 0.80:
        op = "+-*/"[rng.integers(4)]
        return Bin(op, random_expr(rng, depth + 1), random_expr(rng, depth + 1))
    if pick < 0.92:
        fn = ("sin", "cos", "tanh", "exp")[rng.integers(4)]
        return Call(fn, random_expr(rng, depth + 1))
    return Pow(random_expr(rng, depth + 1), int(rng.integers(-3, 4)))


@pytest.mark.parametrize(
    "deepest, deeper, col",
    [
        (" + ".join(["x1"] * MAX_DEPTH), " + ".join(["x1"] * (MAX_DEPTH + 1)), 5 * MAX_DEPTH - 1),
        ("-" * (MAX_DEPTH - 1) + "x1", "-" * MAX_DEPTH + "x1", 1),
        ("(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH, "(" * (MAX_DEPTH + 1) + "x1" + ")" * (MAX_DEPTH + 1),
         MAX_DEPTH + 1),
        ("sin(" * (MAX_DEPTH - 1) + "x1" + ")" * (MAX_DEPTH - 1), "sin(" * MAX_DEPTH + "x1" + ")" * MAX_DEPTH,
         1),
    ],
    ids=["sum", "unary-minus", "parentheses", "calls"],
)
def test_depth_limit(deepest, deeper, col):
    # a too-deep tree is refused at the operator that tops it, too-deep
    # parentheses at the one that opens a level too many
    e = parse_expr(deepest, dims=DIMS)
    assert parse_expr(to_source(e), dims=DIMS) == e
    assert np.isfinite(evaluate(e, np.array([0.5, 0, 0]), np.zeros(2), np.zeros(2)))
    with pytest.raises(ParseError, match=f"line 1, col {col}: expression nested deeper than {MAX_DEPTH}"):
        parse_expr(deeper, dims=DIMS)


def test_roundtrip_500():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        e = random_expr(rng)
        assert parse_expr(to_source(e), dims=DIMS) == e


ENV_FNS = {
    "sin": np.sin,
    "cos": np.cos,
    "tanh": np.tanh,
    "exp": np.exp,
    "pow": lambda a, b: a**b,
}


def interpret(e, x, u, w):
    """e at x, u, w (sequences of scalars or arrays) by the host interpreter on to_source(e)."""
    env = {f"{kind}{i + 1}": v[i] for kind, v in (("x", x), ("u", u), ("w", w)) for i in range(len(v))}
    return eval(to_source(e), {"__builtins__": {}}, {**env, **ENV_FNS})


def test_independent_interpreter_agreement():
    # The compiled function against a direct translation to Python
    # source, evaluated by the host interpreter with the same numpy scalar
    # ops: results must coincide exactly when the operation order is
    # identical.
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 1000:
        e = random_expr(rng)
        x = [np.float64(v) for v in rng.uniform(-3, 3, DIMS[0])]
        u = [np.float64(v) for v in rng.uniform(-3, 3, DIMS[1])]
        w = [np.float64(v) for v in rng.uniform(-3, 3, DIMS[2])]
        try:
            with np.errstate(all="ignore"):
                mine = evaluate(e, x, u, w)
                theirs = interpret(e, x, u, w)
        except (ExprEvalError, ZeroDivisionError, OverflowError):
            continue
        if not (np.isfinite(mine) and np.isfinite(theirs)):
            continue
        assert mine == theirs, to_source(e)
        checked += 1


def _constant_expr(rng):
    while next(free_vars(e := random_expr(rng)), None) is not None:
        pass
    return e


@pytest.mark.parametrize(
    "cells, vector_inputs",
    [((), False), ((9,), False), ((9,), True), ((2, 9), False)],
    ids=["1-D x", "RK4 cells", "cells, one input vector", "EM configs x paths"],
)
def test_independent_interpreter_agreement_on_arrays(cells, vector_inputs):
    # A (2, 2) array of a random entry, a constant-only entry, another
    # random entry and a missing one, compiled in one function and fed x
    # of shape (3, *cells) with u and w as the RK4 flow ((m, cells)) and
    # the EM groups ((m, configs, paths)) pass them, or as single vectors:
    # every element matches the host interpreter on arrays, and the
    # missing entry is zero.
    rng = np.random.default_rng(len(cells) * 2 + vector_inputs)
    checked = 0
    while checked < 300:
        entries = {(0, 0): random_expr(rng), (0, 1): _constant_expr(rng), (1, 1): random_expr(rng)}
        x = rng.uniform(-3, 3, (DIMS[0], *cells))
        u, w = (rng.uniform(-3, 3, (dim, *(() if vector_inputs else cells))) for dim in DIMS[1:])
        try:
            with np.errstate(all="ignore"):
                mine = compile_array(entries, (2, 2), "x, u, w")(x, u, w)
                theirs = {index: interpret(e, x, u, w) for index, e in entries.items()}
        except (ExprEvalError, ZeroDivisionError, OverflowError):
            continue
        assert mine.shape == (2, 2, *cells)
        for index, e in entries.items():
            np.testing.assert_array_equal(mine[index], np.broadcast_to(theirs[index], cells), to_source(e))
        assert not mine[1, 0].any()
        checked += 1
