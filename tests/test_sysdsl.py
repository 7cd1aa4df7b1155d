import dataclasses

import numpy as np
import pytest

from stochabs.errors import ModelError, ParseError
from stochabs.expr import Bin, Neg, Var
from stochabs.sysdsl import (
    check_equilibrium,
    check_regularity,
    parse_network,
    parse_system,
)
from tests.conftest import DATA

SCALAR_TEXT = (DATA / "scalar.sys").read_text()


def test_parse_scalar(scalar_model):
    m = scalar_model
    assert (m.name, m.n, m.m, m.p, m.r) == ("scalar1", 1, 1, 1, 1)
    assert m.domain == ((-1.0, 1.0),)
    assert m.input_box == ((-0.1, 0.1),)
    assert m.dist_box == ((-1.0, 1.0),)
    assert (m.lf, m.lsigma, m.growth_k) == (1.0, 0.5, 4.0)
    assert m.cert_kappa == 0.875
    assert m.cert_p == ((1.0,),)
    assert m.drift[0] == Bin("+", Bin("+", Neg(Var("x", 1)), Var("u", 1)), Var("w", 1))
    assert m.input_lipschitz == 1.0 and m.dist_lipschitz == 1.0


def test_drift_eval_broadcast(scalar_model):
    x = np.array([[2.0, -1.0]])
    u = np.array([[1.0, 0.0]])
    w = np.array([[0.5, 0.0]])
    out = scalar_model.drift_eval(x, u, w)
    assert out.shape == (1, 2)
    assert out[0, 0] == -0.5 and out[0, 1] == 1.0
    sig = scalar_model.diffusion_eval(np.array([2.0]))
    assert sig.shape == (1, 1) and sig[0, 0] == 1.0


def test_missing_sections():
    with pytest.raises(ParseError, match="missing 'dims'"):
        parse_system("system s\nconst Lf=1 Lsigma=1 K=1\n")
    with pytest.raises(ParseError, match="missing drift"):
        parse_system(
            "system s\ndims n=1 m=0 p=0 r=1\ndomain x1 in [0,1]\nconst Lf=1 Lsigma=1 K=1\n"
        )
    with pytest.raises(ParseError, match="missing domain box"):
        parse_system(
            "system s\ndims n=1 m=0 p=0 r=1\ndrift x1' = -x1\nconst Lf=1 Lsigma=1 K=1\n"
        )


def test_diffusion_state_only():
    text = SCALAR_TEXT.replace("diff sigma[1][1] = 0.5*x1", "diff sigma[1][1] = 0.5*u1")
    with pytest.raises(ParseError, match="state only"):
        parse_system(text)


def test_positioned_syntax_error():
    text = SCALAR_TEXT.replace("drift x1' = -x1 + u1 + w1", "drift x1' = -x1 + + w1")
    with pytest.raises(ParseError) as exc:
        parse_system(text)
    assert exc.value.line is not None and exc.value.col is not None


def test_duplicate_and_range_errors():
    with pytest.raises(ParseError, match="duplicate box"):
        parse_system(
            "system s\ndims n=1 m=0 p=0 r=1\ndomain x1 in [0,1]\ndomain x1 in [0,2]\n"
            "drift x1' = -x1\nconst Lf=1 Lsigma=1 K=1\n"
        )
    with pytest.raises(ParseError, match="empty interval"):
        parse_system(
            "system s\ndims n=1 m=0 p=0 r=1\ndomain x1 in [1,0]\n"
            "drift x1' = -x1\nconst Lf=1 Lsigma=1 K=1\n"
        )
    with pytest.raises(ParseError, match="out of range"):
        parse_system(
            "system s\ndims n=1 m=0 p=0 r=1\ndomain x1 in [0,1]\n"
            "drift x1' = -x1\ndiff sigma[2][1] = x1\nconst Lf=1 Lsigma=1 K=1\n"
        )


def test_network_parse(pair_net):
    spec = pair_net
    assert spec.node_names == ("a", "b")
    assert spec.tau == 0.5
    assert spec.edges == frozenset({(0, 1), (1, 0)})
    assert spec.eps == (8.0, 8.0)
    # dist boxes are derived from the neighbour's domain
    assert spec.nodes[0].dist_box == ((-1.0, 1.0),)
    assert spec.neighbors(0) == (1,) and spec.neighbors(1) == (0,)


def test_network_self_loop():
    text = (DATA / "pair.net").read_text().replace("edge 2 -> 1", "edge 1 -> 1")
    with pytest.raises(ParseError, match="self-loop"):
        parse_network(text, base_dir=DATA)


def test_network_compatibility():
    # dropping an edge starves node b of its declared disturbance input
    text = (DATA / "pair.net").read_text().replace("edge 2 -> 1\n", "")
    with pytest.raises(ModelError, match="neighbours supply"):
        parse_network(text, base_dir=DATA)


@pytest.mark.parametrize(
    "attrs",
    ["eps=0", "eps=-1", "eps=8 eta=0", "eps=8 eta=-0.5", "eps=8 omega=0", "eps=8 omega=-1"],
)
def test_network_node_values_must_be_positive(attrs):
    text = (DATA / "pair.net").read_text().replace("node b file=node.sys eps=8", f"node b file=node.sys {attrs}")
    with pytest.raises(ParseError, match=r"line 5: \w+ must be positive"):
        parse_network(text, base_dir=DATA)


PAIR_TEXT = (DATA / "pair.net").read_text()


def _parse_pair(text):
    return parse_network(text, base_dir=DATA)


@pytest.mark.parametrize(
    "parse, text, old, new, where",
    [
        (parse_system, SCALAR_TEXT, "K=4", "K=4 Lf=0.001", "line 9: Lf"),
        (parse_system, SCALAR_TEXT, "P=[1]", "P=[1] kappa=5", "line 10: kappa"),
        (_parse_pair, PAIR_TEXT, "tau=0.5", "tau=0.5 tau=2", "line 3: tau"),
        (_parse_pair, PAIR_TEXT, "node b file=node.sys eps=8", "node b file=node.sys eps=-1 eps=8", "line 5: eps"),
    ],
    ids=["sys-const", "sys-cert", "net-tau", "net-node"],
)
def test_repeated_key_is_parse_error(parse, text, old, new, where):
    with pytest.raises(ParseError, match=rf"{where}= is given twice"):
        parse(text.replace(old, new, 1))


def test_equilibrium_check(scalar_model):
    check_equilibrium(scalar_model)
    shifted = SCALAR_TEXT.replace("drift x1' = -x1 + u1 + w1", "drift x1' = -x1 + u1 + w1 + 1")
    with pytest.raises(ModelError, match="origin"):
        check_equilibrium(parse_system(shifted))


def test_regularity_scalar_passes(scalar_model):
    # analytic: |f| <= |x|+|u|+|w| and 4(1+x^2) dominates on these boxes
    rep = check_regularity(scalar_model, samples=3000, seed=1)
    assert rep.passed
    assert rep.worst_f_ratio <= 1.0 + 1e-12
    assert rep.worst_growth_ratio <= 1.0


def test_regularity_refutes_bad_lf(scalar_model):
    bad = dataclasses.replace(scalar_model, lf=0.5)
    rep = check_regularity(bad, samples=3000, seed=1)
    assert not rep.passed
    assert not rep.lipschitz_f_ok
    assert rep.witness is not None and rep.witness[0] == "lipschitz_f"
    # the witness pair itself violates the declared constant
    _, x, x2, u, u2, w, w2 = rep.witness
    lhs = abs(bad.drift_eval(np.array(x), np.array(u), np.array(w))[0]
              - bad.drift_eval(np.array(x2), np.array(u2), np.array(w2))[0])
    rhs = 0.5 * (abs(x[0] - x2[0]) + abs(u[0] - u2[0]) + abs(w[0] - w2[0]))
    assert lhs > rhs


def test_regularity_zero_sigma(scalar_det_model):
    # sigma == 0 satisfies any nonnegative Lipschitz declaration
    rep = check_regularity(scalar_det_model, samples=1000, seed=2)
    assert rep.lipschitz_sigma_ok
    zero = dataclasses.replace(scalar_det_model, lsigma=0.0)
    assert check_regularity(zero, samples=1000, seed=2).lipschitz_sigma_ok
