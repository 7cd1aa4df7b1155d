import dataclasses
import itertools
import math

import numpy as np
import pytest

from stochabs import bisimcheck, certify, gridabs, netcomp, sysdsl
from stochabs.bisimcheck import vector_metric
from stochabs.errors import CertificateError, ModelError, ParameterError
from tests.conftest import DATA, table
from tests.test_bisimcheck import _oracle_check


@pytest.fixture(scope="module")
def tri_net():
    return sysdsl.load(DATA / "tri.net")


@pytest.fixture(scope="module")
def tri_parts(tri_net):
    res = netcomp.synthesize_params(tri_net)
    assert res.feasible
    etas = res.etas()
    omegas = {i: nd.omega for i, nd in enumerate(res.nodes)}
    return [netcomp.build_node_abstraction(tri_net, i, etas, omegas) for i in range(3)]


def test_neighbors_chain(tri_net):
    # edges: a->b, a->c, b->c
    assert tri_net.neighbors(0) == ()
    assert tri_net.neighbors(1) == (0,)
    assert tri_net.neighbors(2) == (0, 1)


def test_neighbors_of_set(tri_net):
    assert netcomp.neighbors_of_set(tri_net, {1, 2}) == (0,)
    assert netcomp.neighbors_of_set(tri_net, {0, 1, 2}) == ()
    assert netcomp.neighbors_of_set(tri_net, {2}) == (0, 1)
    with pytest.raises(ModelError):
        netcomp.neighbors_of_set(tri_net, {7})


def test_build_wtilde_products(tri_net):
    etas = {0: (0.25,), 1: (0.5,), 2: (0.5,)}
    sym1, blocks1, nodes1 = netcomp.build_wtilde(tri_net, 1, etas)
    assert len(sym1) == 5 and blocks1 == (1,) and nodes1 == ("a",)
    sym2, blocks2, nodes2 = netcomp.build_wtilde(tri_net, 2, etas)
    # lexicographic product: a-block (5 points) slow, b-block (3 points) fast
    assert len(sym2) == 15 and blocks2 == (1, 1) and nodes2 == ("a", "b")
    assert sym2[0] == (-1.0, -1.0) and sym2[1] == (-1.0, 0.0) and sym2[3] == (-0.5, -1.0)
    sym0, blocks0, _ = netcomp.build_wtilde(tri_net, 0, etas)
    assert sym0 == ((),) and blocks0 == ()


def test_eps_tilde(tri_net):
    et = netcomp.eps_tilde_vec(dataclasses.replace(tri_net, eps=(0.2, 0.3, 1.0)), 2)
    assert tuple(et) == (0.2, 0.3)
    assert netcomp.eps_tilde_vec(tri_net, 0).size == 0
    with pytest.raises(ModelError, match="exceeds"):
        netcomp.eps_tilde_vec(
            dataclasses.replace(tri_net, eps=(0.3, 0.3, 1.0)), 2, etas={0: (0.4,), 1: (0.2,), 2: (0.2,)}
        )


def test_wtilde_mismatch_within_eps_tilde(tri_net):
    # every admissible disturbance value has an alphabet symbol within
    # eps_tilde componentwise, and the plain norm is dominated by the
    # vector-metric norm
    etas = {0: (0.25,), 1: (0.5,), 2: (0.5,)}
    symbols, blocks, _ = netcomp.build_wtilde(tri_net, 2, etas)
    et = netcomp.eps_tilde_vec(dataclasses.replace(tri_net, eps=(0.25, 0.5, 1.0)), 2, etas=etas)
    rng = np.random.default_rng(8)
    symbol_set = set(symbols)
    for _ in range(1000):
        w = rng.uniform(-1, 1, 2)
        # componentwise nearest: quantize each block on its own lattice
        best = gridabs.quantize([w[0]], 0.25) + gridabs.quantize([w[1]], 0.5)
        assert best in symbol_set
        e = vector_metric(w, best, blocks)
        assert all(v <= b + 1e-12 for v, b in zip(e, et))
        assert max(abs(w[0] - best[0]), abs(w[1] - best[1])) <= max(e) + 1e-15


def test_synthesize_decoupled_matches_standalone():
    spec = sysdsl.load(DATA / "decoupled.net")
    res = netcomp.synthesize_params(spec)
    assert res.feasible
    for nd in res.nodes:
        assert nd.psi_tau == 0.0 and nd.eps_tilde_norm == 0.0
    # same answer as a standalone single-system computation
    model = spec.nodes[0]
    cert = certify.QuadraticCertificate.from_model(model)
    kit = certify.derive_bounds(model, cert)
    floor = certify.precision_lower_bound(kit, model, spec.tau)
    assert res.nodes[0].eps_floor == pytest.approx(floor, rel=1e-12)
    assert res.nodes[0].eta == res.nodes[1].eta


def test_synthesize_pair_feasible(pair_net):
    res = netcomp.synthesize_params(pair_net)
    assert res.feasible
    for nd in res.nodes:
        assert nd.eta and 0 < nd.eta[0] <= nd.eps
        assert nd.terms["pitch_bound"] > 0


def test_synthesize_infeasible_low_eps(pair_net):
    import dataclasses

    tight = dataclasses.replace(pair_net, eps=(1.0, 8.0))
    res = netcomp.synthesize_params(tight)
    assert not res.feasible
    assert not res.nodes[0].feasible and "floor" in res.nodes[0].reason
    assert res.nodes[1].feasible  # per-node reporting, all-or-nothing overall


def test_certificate_lookup_lets_other_errors_through(pair_net, monkeypatch):
    res = netcomp.synthesize_params(pair_net)
    omegas = {i: node.omega for i, node in enumerate(res.nodes)}

    def broken(cls, sys):
        raise RuntimeError("not a missing certificate")

    monkeypatch.setattr(certify.QuadraticCertificate, "from_model", classmethod(broken))
    with pytest.raises(RuntimeError, match="not a missing certificate"):
        netcomp.synthesize_params(pair_net)
    # the node build reads no certificate: synthesize_params checked its pitches
    assert netcomp.build_node_abstraction(pair_net, 0, res.etas(), omegas).states


def test_synthesize_node_proves_when_it_can(scalar_model, scalar_cert):
    # affine drift and linear diffusion: the certificate is proved
    node = netcomp.synthesize_node(scalar_model, scalar_cert, 0.5, seed=3)
    assert node.feasible and node.mode == "linear-exact"
    weak = certify.QuadraticCertificate.create(
        [[1.0]], 0.9, lu=scalar_model.input_lipschitz, lw=scalar_model.dist_lipschitz
    )
    node = netcomp.synthesize_node(scalar_model, weak, 0.5, seed=3)
    assert not node.feasible and node.mode == "linear-exact"
    assert node.reason == "certificate refuted (linear-exact, margin 0.05)"
    # a tanh term makes the drift non-affine: the check falls back to sampling
    tanh_model = sysdsl.parse_system(
        (DATA / "scalar.sys").read_text().replace("-x1 + u1", "-x1 - 0.1*tanh(x1) + u1")
    )
    cert = certify.QuadraticCertificate.from_model(tanh_model)
    with pytest.raises(CertificateError):
        certify.verify_certificate(tanh_model, cert, mode="linear-exact")
    node = netcomp.synthesize_node(tanh_model, cert, 0.5, seed=3)
    assert node.feasible and node.mode == "sampled"


@pytest.mark.parametrize("kwargs", [{"eps_tilde_norm": -0.1}, {"omega_cap": 0.0}, {"omega_cap": -1.0}])
def test_synthesize_node_rejects_out_of_range_arguments(scalar_model, scalar_cert, kwargs):
    with pytest.raises(ParameterError):
        netcomp.synthesize_node(scalar_model, scalar_cert, 0.5, 3.2, **kwargs)


def test_compose_full_network(pair_net):
    res = netcomp.synthesize_params(pair_net)
    etas = res.etas()
    omegas = {i: nd.omega for i, nd in enumerate(res.nodes)}
    parts = [netcomp.build_node_abstraction(pair_net, i, etas, omegas) for i in range(2)]
    comp = netcomp.compose_abstractions(pair_net, parts)
    # full composition is undisturbed: exactly one (empty) symbol
    assert comp.dists == ((),)
    assert comp.eps == 8.0 and comp.eps_tilde == ()
    assert len(comp.states) == len(parts[0].states) * len(parts[1].states)


def test_composed_relation_params(pair_net, tri_net):
    eps, et = netcomp.composed_relation_params(pair_net, {0, 1})
    assert eps == 8.0 and et == ()
    eps2, et2 = netcomp.composed_relation_params(dataclasses.replace(tri_net, eps=(0.2, 0.5, 0.4)), {1, 2})
    assert eps2 == 0.5 and et2 == (0.2,)
    eps3, _ = netcomp.composed_relation_params(dataclasses.replace(pair_net, eps=(0.2, 0.5)), {0, 1})
    assert eps3 == 0.5  # infinity norm of the stacked per-node precisions


def test_compose_matches_bruteforce_oracle(pair_net):
    res = netcomp.synthesize_params(pair_net)
    etas = res.etas()
    omegas = {i: nd.omega for i, nd in enumerate(res.nodes)}
    a, b = (netcomp.build_node_abstraction(pair_net, i, etas, omegas) for i in range(2))
    comp = netcomp.compose_abstractions(pair_net, [a, b])
    assert len(comp.states) <= 25

    # independent wiring: explicit loops over the product, reading each
    # node's disturbance as the other node's current state
    a_dist = {sym: k for k, sym in enumerate(a.dists)}
    b_dist = {sym: k for k, sym in enumerate(b.dists)}
    n_b = len(b.states)
    for ia, xa in enumerate(a.states):
        for ib, xb in enumerate(b.states):
            s_idx = ia * n_b + ib
            for iu_a in range(len(a.inputs)):
                for iu_b in range(len(b.inputs)):
                    u_idx = iu_a * len(b.inputs) + iu_b
                    succ_a, ood_a = a.transitions[(ia, iu_a, a_dist[xb])]
                    succ_b, ood_b = b.transitions[(ib, iu_b, b_dist[xa])]
                    expect = tuple(
                        sorted(pa * n_b + pb for pa in succ_a for pb in succ_b)
                    )
                    got, ood = comp.transitions[(s_idx, u_idx, 0)]
                    assert got == expect
                    assert ood == (ood_a or ood_b)


def _random_table(part, rng):
    """part with a random table: rows of 0 to 3 successors, some out of domain."""
    n = len(part.states)
    rows = {}
    for key in np.ndindex(part.ood.shape):
        succ = rng.choice(n, int(rng.integers(0, min(3, n) + 1)), replace=False)
        rows[key] = (tuple(sorted(succ.tolist())), bool(rng.random() < 0.2))
    return dataclasses.replace(part, **table(rows, part.ood.shape))


def _wiring_oracle(parts, comp):
    """Literal loops over the composition of single-node parts covering the
    network: each part's disturbance is the stacked current states of the
    nodes named by its blocks, and the product successors are every
    combination of part successors, encoded row-major and sorted."""
    names = [p.node_names[0] for p in parts]
    sizes = [len(p.states) for p in parts]
    dist_index = [{sym: k for k, sym in enumerate(p.dists)} for p in parts]
    for s_idx, s_parts in enumerate(itertools.product(*map(range, sizes))):
        for u_idx, u_parts in enumerate(itertools.product(*(range(len(p.inputs)) for p in parts))):
            succ_sets, ood = [], False
            for pi, part in enumerate(parts):
                wsym = ()
                for node in part.dist_block_nodes:
                    q = names.index(node)
                    wsym += parts[q].states[s_parts[q]]
                succ, flag = part.transitions[(s_parts[pi], u_parts[pi], dist_index[pi][wsym])]
                succ_sets.append(succ)
                ood = ood or flag
            expect = sorted(
                sum(c * math.prod(sizes[i + 1 :]) for i, c in enumerate(combo))
                for combo in itertools.product(*succ_sets)
            )
            assert comp.transitions[(s_idx, u_idx, 0)] == (tuple(expect), ood)


@pytest.mark.parametrize("net", ["pair.net", "tri.net"])
def test_compose_multi_successor_rows_match_wiring_oracle(net):
    spec = sysdsl.load(DATA / net)
    res = netcomp.synthesize_params(spec)
    omegas = {i: nd.omega for i, nd in enumerate(res.nodes)}
    rng = np.random.default_rng(31)
    parts = [
        _random_table(netcomp.build_node_abstraction(spec, i, res.etas(), omegas), rng)
        for i in range(len(spec.nodes))
    ]
    part_widths = {len(succ) for p in parts for succ, _ in p.transitions.values()}
    assert {0, 1, 2} <= part_widths and any(p.ood.any() for p in parts)
    comp = netcomp.compose_abstractions(spec, parts)
    widths = {len(succ) for succ, _ in comp.transitions.values()}
    assert 0 in widths and max(widths) >= 2
    assert comp.ood.any() and not comp.ood.all()
    _wiring_oracle(parts, comp)
    # the padding is compacted: the widest row fills the table exactly
    assert comp.succ.shape[-1] == max(widths)


def test_compose_subset_keeps_external_disturbance(pair_net):
    res = netcomp.synthesize_params(pair_net)
    etas = res.etas()
    omegas = {i: nd.omega for i, nd in enumerate(res.nodes)}
    b = netcomp.build_node_abstraction(pair_net, 1, etas, omegas)
    comp = netcomp.compose_abstractions(pair_net, [b])
    assert comp.external_names == ("a",)
    assert comp.eps_tilde == (8.0,)
    assert len(comp.dists) == len(b.dists)


def test_compose_associative(tri_net, tri_parts):
    a, b, c = tri_parts
    direct = netcomp.compose_abstractions(tri_net, [a, b, c])
    ab = netcomp.compose_abstractions(tri_net, [a, b])
    nested = netcomp.compose_abstractions(tri_net, [ab, c])
    assert nested == direct
    assert nested.serialize() == direct.serialize()


def test_compose_rejects_overlap(pair_net, tri_net, tri_parts):
    a, b, _ = tri_parts
    with pytest.raises(ModelError, match="overlap"):
        netcomp.compose_abstractions(tri_net, [a, a])
    with pytest.raises(ModelError, match="not in the network"):
        netcomp.compose_abstractions(pair_net, [tri_parts[2]])


def test_bounds_read_the_disturbance_box_of_the_network(tmp_path, pair_net):
    # node a's file declares w1 in [-5, 5]; in the network w1 is its
    # neighbour's state, on [-1, 1], and every bound reads that box
    wide = (DATA / "node.sys").read_text().replace("dist w1 in [-1, 1]", "dist w1 in [-5, 5]")
    (tmp_path / "wide.sys").write_text(wide)
    (tmp_path / "node.sys").write_text((DATA / "node.sys").read_text())
    net = (DATA / "pair.net").read_text().replace("node a file=node.sys", "node a file=wide.sys")
    (tmp_path / "pair.net").write_text(net)
    spec = sysdsl.load(tmp_path / "pair.net")
    node_a, narrow, alone = spec.nodes[0], pair_net.nodes[0], sysdsl.load(tmp_path / "wide.sys")
    assert node_a.dist_box == narrow.dist_box == ((-1.0, 1.0),) and alone.dist_box == ((-5.0, 5.0),)

    def gap(model):
        kit = certify.derive_bounds(model, certify.QuadraticCertificate.from_model(model))
        return certify.noise_gap_bound(kit, model, 0.5)

    assert gap(node_a) == gap(narrow) < gap(alone)
    res, ref = netcomp.synthesize_params(spec), netcomp.synthesize_params(pair_net)
    assert res.nodes[0].eps_floor == ref.nodes[0].eps_floor


def test_parts_and_compositions_equal_their_round_trip(pair_net, tri_net, tri_parts):
    res = netcomp.synthesize_params(pair_net)
    omegas = {i: nd.omega for i, nd in enumerate(res.nodes)}
    a, b = (netcomp.build_node_abstraction(pair_net, i, res.etas(), omegas) for i in range(2))
    for abstraction in (
        b,
        netcomp.compose_abstractions(pair_net, [b]),
        netcomp.compose_abstractions(pair_net, [a, b]),
        netcomp.compose_abstractions(tri_net, tri_parts[1:]),
    ):
        assert gridabs.deserialize(abstraction.serialize()) == abstraction


def _gain_twin(net_name, gain, tmp_path):
    """The network in tmp_path with every drift taking its disturbances at this gain."""
    text = (DATA / net_name).read_text()
    for line in text.splitlines():
        if "file=" in line:
            name = line.split("file=")[1].split()[0]
            node = "".join(row.replace("w1", f"{gain}*w1").replace("w2", f"{gain}*w2") if row.startswith("drift")
                           else row for row in (DATA / name).read_text().splitlines(True))
            (tmp_path / name).write_text(node)
    (tmp_path / net_name).write_text(text)
    return sysdsl.load(tmp_path / net_name)


@pytest.mark.parametrize("net_name, eta, omega, eps_list", [
    ("pair.net", 0.1, 0.05, (0.2, 0.6, 1.0)),
    ("tri.net", 0.2, 0.05, (0.2, 0.4)),
])
def test_product_of_node_relations_is_a_bisimulation_of_the_composition(net_name, eta, omega, eps_list,
                                                                          tmp_path):
    # The network theorem at the finite level: when each node pair has a
    # disturbance bisimulation R_i at precision eps and disturbance precision
    # eps (its in-neighbours' eps), the product of the R_i is a disturbance
    # bisimulation of the two composed abstractions at eps, inside their
    # greatest one.  The twin takes its disturbances at gain 0.8.
    sides = []
    for spec in (sysdsl.load(DATA / net_name), _gain_twin(net_name, 0.8, tmp_path)):
        k = len(spec.nodes)
        parts = [netcomp.build_node_abstraction(spec, i, dict.fromkeys(range(k), eta),
                                                dict.fromkeys(range(k), omega)) for i in range(k)]
        sides.append((parts, netcomp.compose_abstractions(spec, parts)))
    (parts1, comp1), (parts2, comp2) = sides
    assert comp1.eps_tilde == () and comp1.states == comp2.states and comp1 != comp2
    sizes = []
    for eps in eps_list:
        product = np.ones((1, 1), bool)
        for p1, p2 in zip(parts1, parts2):
            rel = bisimcheck.largest_bisimulation(p1, p2, eps, (eps,) * len(p1.dist_blocks))
            node = np.zeros((len(p1.states), len(p2.states)), bool)
            node[rel.first, rel.second] = True
            # composed states are the node states in row-major order
            product = np.einsum("ij,kl->ikjl", product, node).reshape(product.shape[0] * node.shape[0], -1)
        rel = bisimcheck.RelationTable(*np.nonzero(product), eps, ())
        assert bisimcheck.check_relation(comp1, comp2, rel).valid
        assert _oracle_check(comp1, comp2, rel)[0]
        assert rel.pairs <= bisimcheck.largest_bisimulation(comp1, comp2, eps, ()).pairs
        sizes.append(len(rel))
    assert any(sizes) and not all(sizes)  # some node relations are empty, some are not
