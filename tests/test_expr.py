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
    parse_expr,
    to_source,
)

DIMS = (3, 2, 2)


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
    assert e.eval([2.0], [1.0], [0.5]) == -0.5
    assert parse_expr("pow(x1,2)", dims=(1, 0, 0)).eval([-3.0], [], []) == 9.0


def test_division_guard():
    e = parse_expr("x1 / x2", dims=(2, 0, 0))
    with pytest.raises(ExprEvalError) as exc:
        e.eval([1.0, 0.0], [], [])
    assert "x1 / x2" in str(exc.value)
    with pytest.raises(ExprEvalError):
        parse_expr("pow(x1,-1)", dims=(1, 0, 0)).eval([0.0], [], [])


def test_positioned_errors():
    bad = ["", "1 +", "sin(x1", "x1 ** 2", "pow(x1)", "foo(x1)", "(x1))", "x1 @ 2"]
    for text in bad:
        with pytest.raises(ParseError) as exc:
            parse_expr(text, dims=DIMS)
        assert exc.value.line is not None


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
    assert np.isfinite(e.eval(np.array([0.5, 0, 0]), np.zeros(2), np.zeros(2)))
    with pytest.raises(ParseError, match=f"line 1, col {col}: expression nested deeper than {MAX_DEPTH}"):
        parse_expr(deeper, dims=DIMS)


def test_roundtrip_500():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        e = random_expr(rng)
        assert parse_expr(to_source(e), dims=DIMS) == e


def test_independent_interpreter_agreement():
    # Direct translation to Python source, evaluated by the host
    # interpreter with the same numpy scalar ops: results must coincide
    # exactly when the operation order is identical.
    rng = np.random.default_rng(99)
    env_fns = {
        "sin": np.sin,
        "cos": np.cos,
        "tanh": np.tanh,
        "exp": np.exp,
        "pow": lambda a, b: a**b,
    }
    checked = 0
    while checked < 1000:
        e = random_expr(rng)
        x = [np.float64(v) for v in rng.uniform(-3, 3, DIMS[0])]
        u = [np.float64(v) for v in rng.uniform(-3, 3, DIMS[1])]
        w = [np.float64(v) for v in rng.uniform(-3, 3, DIMS[2])]
        env = {f"x{i+1}": x[i] for i in range(DIMS[0])}
        env.update({f"u{i+1}": u[i] for i in range(DIMS[1])})
        env.update({f"w{i+1}": w[i] for i in range(DIMS[2])})
        env.update(env_fns)
        try:
            with np.errstate(all="ignore"):
                mine = e.eval(x, u, w)
                theirs = eval(to_source(e), {"__builtins__": {}}, env)
        except (ExprEvalError, ZeroDivisionError, OverflowError):
            continue
        if not (np.isfinite(mine) and np.isfinite(theirs)):
            continue
        assert mine == theirs, to_source(e)
        checked += 1
