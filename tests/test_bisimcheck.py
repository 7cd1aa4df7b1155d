import copy
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from stochabs import bisimcheck, gridabs, netcomp
from stochabs.bisimcheck import (
    RelationTable,
    check_relation,
    largest_bisimulation,
    load_relation,
    save_relation,
    vector_metric,
)
from stochabs.errors import FormatError, ModelError
from stochabs.gridabs import FiniteAbstraction
from stochabs.sysdsl import parse_system
from tests.conftest import table


def toy(states, transitions, dists=((0.0,),), inputs=((0.0,),), eta=(0.25,)):
    """Hand-built finite system; transitions: {(s,u,d): (succs, ood)}."""
    return FiniteAbstraction(
        system="toy", tau=1.0, eta=eta, omega=(0.0,), eps=0.0, eps_tilde=(),
        states=tuple(states), inputs=tuple(inputs), dists=tuple(dists),
        dist_blocks=(1,) * len(dists[0]), dist_block_nodes=("",) * len(dists[0]),
        node_names=("toy",), node_dims=(len(states[0]),),
        **table(transitions, (len(states), len(inputs), len(dists))),
    )


def relation(pairs, eps, eps_tilde):
    """The RelationTable of a set of (i, j) pairs, ascending in row-major order."""
    first, second = np.array(sorted(pairs), int).reshape(-1, 2).T
    return RelationTable(first, second, eps, eps_tilde)


def test_vector_metric_blocks():
    assert vector_metric((1.0, 2.0, 5.0), (0.5, 1.0, 7.0), (2, 1)) == (1.0, 2.0)
    assert vector_metric((), (), ()) == ()


def test_self_bisimilar_identity(scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    n = len(a.states)
    rel = RelationTable(np.arange(n), np.arange(n), eps=0.0, eps_tilde=(0.0,))
    assert rel.pairs == frozenset((i, i) for i in range(n))
    assert check_relation(a, a, rel).valid


def test_empty_relation_vacuously_valid(scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    rel = RelationTable([], [], eps=0.0, eps_tilde=(0.0,))
    assert check_relation(a, a, rel).valid


def _oracle_check(s1, s2, rel):
    """Exhaustive quantifier game, written as literal nested loops."""
    eps_tilde = rel.eps_tilde if rel.eps_tilde else (0.0,) * len(s1.dist_blocks)
    adm = [
        (d1, d2)
        for d1 in range(len(s1.dists))
        for d2 in range(len(s2.dists))
        if all(
            v <= b + 1e-12
            for v, b in zip(vector_metric(s1.dists[d1], s2.dists[d2], s1.dist_blocks), eps_tilde)
        )
    ]
    for (i, j) in rel.pairs:
        d = max(abs(a - b) for a, b in zip(s1.states[i], s2.states[j]))
        if d > rel.eps + 1e-12:
            return False, (i, j), "a"
        for u1 in range(len(s1.inputs)):
            if not any(
                all(
                    all(
                        any((t1, t2) in rel.pairs for t2 in s2.transitions[(j, u2, d2)][0])
                        for t1 in s1.transitions[(i, u1, d1)][0]
                    )
                    for d1, d2 in adm
                )
                for u2 in range(len(s2.inputs))
            ):
                return False, (i, j), "b"
        for u2 in range(len(s2.inputs)):
            if not any(
                all(
                    all(
                        any((t1, t2) in rel.pairs for t1 in s1.transitions[(i, u1, d1)][0])
                        for t2 in s2.transitions[(j, u2, d2)][0]
                    )
                    for d1, d2 in adm
                )
                for u1 in range(len(s1.inputs))
            ):
                return False, (i, j), "c"
    return True, None, None


def test_toy_self_loop_vs_cycle_matches_oracle():
    s1 = toy([(0.0,)], {(0, 0, 0): ((0,), False)})
    s2 = toy([(0.0,), (0.1,)], {(0, 0, 0): ((1,), False), (1, 0, 0): ((0,), False)})
    total = relation(frozenset((0, j) for j in range(2)), eps=1.0, eps_tilde=(0.0,))
    mine = check_relation(s1, s2, total)
    oracle_valid, _, _ = _oracle_check(s1, s2, total)
    assert mine.valid == oracle_valid


def test_random_instances_match_oracle():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n1, n2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))

        def rnd(n):
            states = [(float(np.round(rng.uniform(-1, 1), 3)),) for _ in range(n)]
            n_u = int(rng.integers(1, 3))
            n_d = int(rng.integers(1, 3))
            dists = [(float(np.round(rng.uniform(-0.2, 0.2), 3)),) for _ in range(n_d)]
            trans = {}
            for s in range(n):
                for u in range(n_u):
                    for d in range(n_d):
                        k = int(rng.integers(1, n + 1))
                        succ = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
                        trans[(s, u, d)] = (succ, False)
            return toy(states, trans, dists=tuple(dists), inputs=tuple((float(i),) for i in range(n_u)))

        s1, s2 = rnd(n1), rnd(n2)
        eps = float(rng.uniform(0.1, 2.0))
        et = (float(rng.uniform(0.0, 0.5)),)
        pairs = frozenset(
            (i, j)
            for i in range(n1)
            for j in range(n2)
            if abs(s1.states[i][0] - s2.states[j][0]) <= eps and rng.random() < 0.8
        )
        rel = relation(pairs, eps=eps, eps_tilde=et)
        mine = check_relation(s1, s2, rel)
        oracle_valid, _, _ = _oracle_check(s1, s2, rel)
        assert mine.valid == oracle_valid
        # and the fixed point is internally consistent + oracle-valid
        big = largest_bisimulation(s1, s2, eps, et)
        assert check_relation(s1, s2, big).valid
        assert _oracle_check(s1, s2, big)[0]


def test_largest_contains_identity_for_identical(scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    rel = largest_bisimulation(a, a, 0.0, (0.0,))
    assert frozenset((i, i) for i in range(len(a.states))) <= rel.pairs


def test_disjoint_ranges_empty():
    s1 = toy([(0.0,)], {(0, 0, 0): ((0,), False)})
    s2 = toy([(5.0,)], {(0, 0, 0): ((0,), False)})
    rel = largest_bisimulation(s1, s2, 0.5, (0.0,))
    assert len(rel) == 0


def test_monotone_in_eps():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        states = [(float(np.round(rng.uniform(-1, 1), 3)),) for _ in range(n)]
        trans = {}
        for s in range(n):
            k = int(rng.integers(1, n + 1))
            succ = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
            trans[(s, 0, 0)] = (succ, False)
        s1 = toy(states, trans)
        small = largest_bisimulation(s1, s1, 0.3, (0.0,))
        large = largest_bisimulation(s1, s1, 0.9, (0.1,))
        assert small.pairs <= large.pairs


def test_transpose_symmetry(scalar_model, scalar_det_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    b = gridabs.build_abstraction(scalar_model, 0.5, 0.125, 0.1)
    fwd = largest_bisimulation(a, b, 0.6, (0.0,))
    bwd = largest_bisimulation(b, a, 0.6, (0.0,))
    assert bwd.pairs == frozenset((j, i) for (i, j) in fwd.pairs)
    # the same relation as index arrays: the transposed pairs, re-sorted row-major
    order = np.lexsort((fwd.first, fwd.second))
    assert np.array_equal(bwd.first, fwd.second[order]) and np.array_equal(bwd.second, fwd.first[order])


def test_refined_grid_relation(scalar_det_model):
    # pitch eta vs eta/2 of the same noise-free dynamics: with a precision
    # cleared by the pitch condition the relation keeps every pair within
    # eta.  Closure argument: pairs within
    # c = (eta + eta/2)/(1 - e^{-kappa tau}) stay within c after one step,
    # and c <= eps here.
    s1 = gridabs.build_abstraction(scalar_det_model, 0.5, 0.25, 0.1)
    s2 = gridabs.build_abstraction(scalar_det_model, 0.5, 0.125, 0.1)
    eps = 1.7
    rel = largest_bisimulation(s1, s2, eps, (0.0,))
    assert len(rel) > 0
    for i, x in enumerate(s1.states):
        for j, y in enumerate(s2.states):
            if abs(x[0] - y[0]) <= 0.25:
                assert (i, j) in rel.pairs
    assert check_relation(s1, s2, rel).valid


def test_incompatible_disturbances(scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    other = toy([(0.0,)], {(0, 0, 0): ((0,), False)}, dists=((0.0, 0.0),))
    with pytest.raises(ModelError, match="disturbance"):
        check_relation(a, other, RelationTable([], [], 0.0, ()))


@pytest.mark.parametrize("first, second", [([-1, 0], [0, 4]), ([0, 5], [4, 0]), ([0, 0], [-3, 5])])
def test_pairs_outside_the_states_are_refused(first, second, scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    rel = RelationTable(first, second, 0.5, (0.0,))
    p = next(p for p in range(2) if not (0 <= first[p] < 5 and 0 <= second[p] < 5))
    with pytest.raises(FormatError, match=rf"pair \({first[p]}, {second[p]}\) is outside the 5 x 5 states"):
        check_relation(a, a, rel)


def test_relation_file_roundtrip(tmp_path, scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    rel = largest_bisimulation(a, a, 0.0, (0.0,))
    path = tmp_path / "r.rel"
    save_relation(rel, a, a, path)
    loaded, lh, rh = load_relation(path)
    assert loaded.pairs == rel.pairs
    assert loaded.eps == rel.eps and loaded.eps_tilde == rel.eps_tilde
    assert lh == rh == a.content_hash()


def test_relation_arrays_are_read_only_and_sorted(scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    rel = largest_bisimulation(a, a, 0.5, (0.0,))
    assert len(rel) == len(rel.pairs) > len(a.states)
    assert list(zip(rel.first.tolist(), rel.second.tolist())) == sorted(rel.pairs)
    for side in (rel.first, rel.second):
        with pytest.raises(ValueError):
            side[0] = 0
    # a table's arrays are views: the caller's arrays stay writable
    first = np.array([0, 1])
    RelationTable(first, first, 0.0, ())
    first[0] = 1


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ls: [ls[0], "foo " + ls[1].split()[1], *ls[2:]], "line 2 reads 'foo [0-9a-f]+', expected 'left "),
        (lambda ls: [*ls[:3], "zzz 0.5", *ls[4:]], "line 4 reads 'zzz 0.5', expected 'eps 0.5'"),
        (lambda ls: [*ls[:3], "eps 0.0", *ls[4:]], "line 4 reads 'eps 0.0', expected 'eps 0'"),
        (lambda ls: [*ls[:3], "eps 0 0", *ls[4:]], "malformed relation file"),
        (lambda ls: ls[:5], "malformed relation file"),
        (lambda ls: [*ls, "0 1"], "line 6 reads 'pairs 5', expected 'pairs 6'"),
        (lambda ls: [*ls, ""], "malformed relation file"),
        (lambda ls: [*ls, ls[-1]], "line 12 reads '4 4', expected None"),
        (lambda ls: [*ls[:-2], ls[-1], ls[-2]], "line 10 reads '4 4', expected '3 3'"),
        (lambda ls: ls[:-1], "line 6 reads 'pairs 5', expected 'pairs 4'"),
        (lambda ls: [*ls[:-1], "4 x"], "malformed relation file"),
        (lambda ls: [*ls[:-1], "4 4.0"], "malformed relation file"),
        (lambda ls: [line + "\r" for line in ls], "line breaks differ"),
    ],
    ids=["left-label", "eps-label", "eps-not-canonical", "eps-two-values", "no-pairs-line",
         "extra-pair", "blank-line", "duplicate-pair", "pairs-descending", "missing-pair",
         "junk", "decimal-point", "crlf"],
)
def test_relation_file_is_strict(edit, message, tmp_path, scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    path = tmp_path / "r.rel"
    save_relation(largest_bisimulation(a, a, 0.0, (0.0,)), a, a, path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    # numpy's parse stops at junk with a DeprecationWarning: none escapes
    with warnings.catch_warnings(), pytest.raises(FormatError, match=message):
        warnings.simplefilter("error")
        load_relation(path)


def test_relation_file_without_final_newline_is_refused(tmp_path, scalar_model):
    a = gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1)
    path = tmp_path / "r.rel"
    save_relation(largest_bisimulation(a, a, 0.0, (0.0,)), a, a, path)
    path.write_text(path.read_text()[:-1])
    with pytest.raises(FormatError, match="line breaks differ"):
        load_relation(path)


# -- self-bisimulation: both sides one abstraction -----------------------------


def _literal_adm(s1, s2, eps_tilde):
    eps_tilde = eps_tilde if eps_tilde else (0.0,) * len(s1.dist_blocks)
    return [
        (d1, d2)
        for d1 in range(len(s1.dists))
        for d2 in range(len(s2.dists))
        if all(
            v <= b + 1e-12
            for v, b in zip(vector_metric(s1.dists[d1], s2.dists[d2], s1.dist_blocks), eps_tilde)
        )
    ]


def _literal_violation(s1, s2, pairs, eps, adm, i, j):
    """First of the clauses 'a', 'b', 'c' that (i, j) fails against pairs, or None."""
    if max(abs(a - b) for a, b in zip(s1.states[i], s2.states[j])) > eps + 1e-12:
        return "a"
    for u1 in range(len(s1.inputs)):
        if not any(
            all(
                all(
                    any((t1, t2) in pairs for t2 in s2.transitions[(j, u2, d2)][0])
                    for t1 in s1.transitions[(i, u1, d1)][0]
                )
                for d1, d2 in adm
            )
            for u2 in range(len(s2.inputs))
        ):
            return "b"
    for u2 in range(len(s2.inputs)):
        if not any(
            all(
                all(
                    any((t1, t2) in pairs for t1 in s1.transitions[(i, u1, d1)][0])
                    for t2 in s2.transitions[(j, u2, d2)][0]
                )
                for d1, d2 in adm
            )
            for u1 in range(len(s1.inputs))
        ):
            return "c"
    return None


def _sorted_oracle_check(s1, s2, rel):
    """The first pair in sorted order that fails a clause, with that clause."""
    adm = _literal_adm(s1, s2, rel.eps_tilde)
    for (i, j) in sorted(rel.pairs):
        clause = _literal_violation(s1, s2, rel.pairs, rel.eps, adm, i, j)
        if clause is not None:
            return False, (i, j), clause
    return True, None, None


def _oracle_greatest(s1, s2, eps, eps_tilde):
    """Greatest fixpoint by brute force: from the eps-close pairs, drop every
    pair that fails the quantifier game until none does.  Also returns the
    relation size at the start of each round."""
    adm = _literal_adm(s1, s2, eps_tilde)
    pairs = {
        (i, j)
        for i in range(len(s1.states))
        for j in range(len(s2.states))
        if max(abs(a - b) for a, b in zip(s1.states[i], s2.states[j])) <= eps + 1e-12
    }
    sizes = []
    while True:
        sizes.append(len(pairs))
        bad = {p for p in pairs if _literal_violation(s1, s2, pairs, eps, adm, *p) is not None}
        if not bad:
            return frozenset(pairs), sizes
        pairs -= bad


def _random_self_instance(rng):
    """A random finite system with several inputs and disturbances, plus eps and eps_tilde > 0."""
    n, n_u, n_d = int(rng.integers(2, 7)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
    states = [(float(np.round(rng.uniform(-1, 1), 3)),) for _ in range(n)]
    dists = [(float(np.round(rng.uniform(-0.2, 0.2), 3)),) for _ in range(n_d)]
    trans = {}
    for key in np.ndindex(n, n_u, n_d):
        k = int(rng.integers(1, 3))
        succ = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        trans[tuple(int(v) for v in key)] = (succ, False)
    s = toy(states, trans, dists=tuple(dists), inputs=tuple((float(u),) for u in range(n_u)))
    return s, float(rng.uniform(0.3, 2.0)), (float(rng.uniform(0.05, 0.3)),)


def test_self_bisimulation_matches_brute_force_fixpoint():
    rng = np.random.default_rng(2024)
    kept = removed = 0
    for _ in range(30):
        s, eps, et = _random_self_instance(rng)
        greatest, sizes = _oracle_greatest(s, s, eps, et)
        assert largest_bisimulation(s, s, eps, et).pairs == greatest
        assert largest_bisimulation(s, copy.deepcopy(s), eps, et).pairs == greatest
        kept += len(greatest)
        removed += sizes[0] - len(greatest)
    assert kept > 0 and removed > 0  # the instances exercise both outcomes


def test_self_check_relation_matches_sorted_oracle():
    rng = np.random.default_rng(4048)
    symmetric_invalid = asymmetric = 0
    for _ in range(30):
        s, eps, et = _random_self_instance(rng)
        n = len(s.states)
        upper = [(i, j) for i in range(n) for j in range(i, n) if rng.random() < 0.7]
        sym = frozenset(upper) | frozenset((j, i) for (i, j) in upper)
        asym = frozenset((i, j) for i in range(n) for j in range(n) if rng.random() < 0.6)
        greatest = largest_bisimulation(s, s, eps, et).pairs
        for pairs in (sym, asym, greatest):
            rel = relation(pairs, eps=eps, eps_tilde=et)
            oracle = _sorted_oracle_check(s, s, rel)
            for other in (s, copy.deepcopy(s)):
                mine = check_relation(s, other, rel)
                assert (mine.valid, mine.pair, mine.clause) == oracle
        symmetric_invalid += not _sorted_oracle_check(s, s, relation(sym, eps, et))[0]
        asymmetric += asym != frozenset((j, i) for (i, j) in asym)
    assert symmetric_invalid >= 10 and asymmetric >= 10
    clauses = []
    for _ in range(30):  # two distinct abstractions
        (s1, eps, et), (s2, _, _) = _random_self_instance(rng), _random_self_instance(rng)
        n1, n2 = len(s1.states), len(s2.states)
        close = frozenset((i, j) for i in range(n1) for j in range(n2)
                          if abs(s1.states[i][0] - s2.states[j][0]) <= eps)
        some = frozenset((i, j) for i in range(n1) for j in range(n2) if rng.random() < 0.6)
        for pairs in (close, some, largest_bisimulation(s1, s2, eps, et).pairs):
            rel = relation(pairs, eps=eps, eps_tilde=et)
            mine = check_relation(s1, s2, rel)
            assert (mine.valid, mine.pair, mine.clause) == _sorted_oracle_check(s1, s2, rel)
            clauses.append(mine.clause)
    assert {None, "a", "b", "c"} <= set(clauses)


def test_greatest_fixpoint_is_maximal_on_both_sides(scalar_model):
    rng = np.random.default_rng(99)
    instances = [_random_self_instance(rng) for _ in range(10)]
    instances.append((gridabs.build_abstraction(scalar_model, 0.5, 0.25, 0.1), 0.6, (0.0,)))
    distinct = []  # greatest relations between two abstractions, and their halves
    for s1, s2, eps, et in _distinct_cases(rng, 5):
        rel = largest_bisimulation(s1, s2, eps, et)
        distinct += [(s1, s2, rel), (s1, s2, RelationTable(rel.first[::2], rel.second[::2], eps, et))]
    multi_round = 0
    for s, eps, et in instances:
        greatest, sizes = _oracle_greatest(s, s, eps, et)
        rel = largest_bisimulation(s, s, eps, et)
        assert rel.pairs == greatest
        assert check_relation(s, s, rel).valid
        multi_round += len(sizes) > 2
    assert multi_round > 0
    invalid = 0
    for s1, s2, rel in distinct:
        mine = check_relation(s1, s2, rel)
        assert (mine.valid, mine.pair, mine.clause) == _sorted_oracle_check(s1, s2, rel)
        invalid += not mine.valid
    assert 0 < invalid < len(distinct)
    kept = removed = multi_round = 0
    for s1, s2, eps, et in _distinct_cases(np.random.default_rng(31), 30):
        greatest, sizes = _oracle_greatest(s1, s2, eps, et)
        assert largest_bisimulation(s1, s2, eps, et).pairs == greatest
        kept += len(greatest)
        removed += sizes[0] - len(greatest)
        multi_round += len(sizes) > 2
    assert kept > 0 and removed > 0 and multi_round > 0


PLANE_TEXT = """system plane
dims n=2 m=1 p=1 r=1
domain x1 in [-1, 1]
domain x2 in [-0.4, 0.4]
input u1 in [-0.2, 0.2]
dist w1 in [-0.5, 0.5]
drift x1' = -x1 + 0.2*tanh(x2) + u1
drift x2' = -2*x2 + tanh(x1) - u1 + w1
diff sigma[1][1] = 0.005*x1
diff sigma[2][1] = 0.005*x2
const Lf=3 Lsigma=0.005 K=4
"""


def _plane(text=PLANE_TEXT):
    """A 2-D tanh system on a lattice of spacing 0.2 (55 states, 3 inputs,
    3 disturbances).  0.2 is not a binary fraction, so some coordinate
    gaps of one spacing exceed 0.2 by less than the tolerance."""
    dists = ((-0.5,), (0.0,), (0.5,))
    return gridabs.build_abstraction(parse_system(text), 0.5, 0.1, 0.1, dists=dists), 0.2


def _composed_pair(pair_net):
    """The composed pair.net abstraction: 9 states on a 2-D lattice of spacing 1."""
    res = netcomp.synthesize_params(pair_net)
    omegas = {i: node.omega for i, node in enumerate(res.nodes)}
    parts = [netcomp.build_node_abstraction(pair_net, i, res.etas(), omegas) for i in range(2)]
    return netcomp.compose_abstractions(pair_net, parts), 1.0


def _multi_dim_cases(pair_net):
    """(abstraction, eps, eps_tilde) on 2-D lattices with eps a whole number of spacings."""
    plane, h = _plane()
    pair, spacing = _composed_pair(pair_net)
    return [(plane, h, (0.0,)), (plane, h, (0.5,)), (plane, 2 * h, (0.5,)), (pair, spacing, ())]


def _distinct_cases(rng, random_pairs):
    """(s1, s2, eps, eps_tilde) on two distinct abstractions: the plane and its
    twin with a stronger coupling, both ways, then pairs of random systems."""
    plane, h = _plane()
    twin, _ = _plane(PLANE_TEXT.replace("0.2*tanh(x2)", "0.3*tanh(x2)"))
    cases = [(plane, twin, h, (0.0,)), (twin, plane, 2 * h, (0.5,))]
    for _ in range(random_pairs):
        (s1, eps, et), (s2, _, _) = _random_self_instance(rng), _random_self_instance(rng)
        cases.append((s1, s2, eps, et))
    return cases


def test_multi_dim_self_bisimulation_matches_oracles(pair_net):
    rng = np.random.default_rng(8)
    rounds, clauses = [], set()
    for s, eps, et in _multi_dim_cases(pair_net):
        greatest, sizes = _oracle_greatest(s, s, eps, et)
        assert largest_bisimulation(s, s, eps, et).pairs == greatest
        rounds.append(len(sizes))
        n = len(s.states)
        close = frozenset(
            (i, j) for i in range(n) for j in range(n)
            if max(abs(a - b) for a, b in zip(s.states[i], s.states[j])) <= eps + 1e-12
        )
        thinned = frozenset(p for p in close if rng.random() < 0.8)  # asymmetric
        for pairs in (greatest, close, thinned, greatest | {(0, n - 1)}):
            rel = relation(pairs, eps=eps, eps_tilde=et)
            mine = check_relation(s, s, rel)
            assert (mine.valid, mine.pair, mine.clause) == _sorted_oracle_check(s, s, rel)
            clauses.add(mine.clause)
    assert max(rounds) > 2 and clauses == {None, "a", "b", "c"}


def test_self_path_never_builds_pairs(monkeypatch, tmp_path, pair_net):
    rng = np.random.default_rng(3)
    cases = [(s, s, eps, et) for s, eps, et in [*_multi_dim_cases(pair_net), _random_self_instance(rng)]]
    cases += _distinct_cases(rng, 1)
    expected = [largest_bisimulation(s1, s2, eps, et).pairs for s1, s2, eps, et in cases]

    def refused(self):
        raise AssertionError("the array path built the frozenset of pairs")

    monkeypatch.setattr(RelationTable, "pairs", property(refused))
    for (s1, s2, eps, et), pairs in zip(cases, expected):
        rel = largest_bisimulation(s1, s2, eps, et)
        path = tmp_path / "r.rel"
        save_relation(rel, s1, s2, path)
        loaded, _, _ = load_relation(path)
        assert check_relation(s1, s2, loaded).valid and len(loaded) == len(pairs)
        assert set(zip(loaded.first.tolist(), loaded.second.tolist())) == pairs


def _lookups_per_pair(s1, s2, et):
    """Relation lookups one clause (b) or (c) test makes for one pair of s1 x s2."""
    (_, u1, _, k1), (_, u2, _, k2) = s1.succ.shape, s2.succ.shape
    return u1 * u2 * bisimcheck._admissible_dist_pairs(s1, s2, et).shape[1] * k1 * k2


def test_step_size_does_not_change_results(monkeypatch, pair_net):
    rng = np.random.default_rng(5)
    cases = [*_multi_dim_cases(pair_net), *(_random_self_instance(rng) for _ in range(5))]
    cases = [(s, s, eps, et) for s, eps, et in cases] + _distinct_cases(rng, 3)
    expected = []
    for s1, s2, eps, et in cases:
        rel = largest_bisimulation(s1, s2, eps, et)
        half = RelationTable(rel.first[::2], rel.second[::2], eps=eps, eps_tilde=et)
        expected.append((rel, half, check_relation(s1, s2, rel), check_relation(s1, s2, half)))
    assert not all(half_check.valid for _, _, _, half_check in expected)
    for pairs_per_step in (1, 2, 7):
        for (s1, s2, eps, et), (rel, half, rel_check, half_check) in zip(cases, expected):
            monkeypatch.setattr(bisimcheck, "STEP_LOOKUPS", pairs_per_step * _lookups_per_pair(s1, s2, et))
            assert largest_bisimulation(s1, s2, eps, et).pairs == rel.pairs
            assert check_relation(s1, s2, rel) == rel_check
            assert check_relation(s1, s2, half) == half_check


def test_no_step_exceeds_the_lookup_budget(monkeypatch, pair_net):
    rng = np.random.default_rng(6)
    cases = [*_multi_dim_cases(pair_net), *(_random_self_instance(rng) for _ in range(3))]
    cases = [(s, s, eps, et) for s, eps, et in cases] + _distinct_cases(rng, 3)
    answers = bisimcheck._answers
    calls = []

    def counted(Rx, succ_c, succ_r, I, J, adm):
        lookups = I.size * succ_c.shape[1] * succ_r.shape[1] * adm.shape[1] * succ_c.shape[3] * succ_r.shape[3]
        calls.append(lookups)
        return answers(Rx, succ_c, succ_r, I, J, adm)

    monkeypatch.setattr(bisimcheck, "_answers", counted)
    for s1, s2, eps, et in cases:
        budget = 5 * _lookups_per_pair(s1, s2, et)
        monkeypatch.setattr(bisimcheck, "STEP_LOOKUPS", budget)
        calls.clear()
        rel = largest_bisimulation(s1, s2, eps, et)
        fixpoint = calls[:]
        calls.clear()
        assert check_relation(s1, s2, rel).valid
        assert fixpoint and max(fixpoint) <= budget
        # an empty relation holds without a lookup
        assert bool(calls) == bool(len(rel)) and max(calls, default=0) <= budget


def test_admissible_dist_pairs_match_the_vector_metric_loop():
    rng = np.random.default_rng(12)
    structures = [(), (0,), (1, 0, 2), *(tuple(rng.integers(0, 3, int(rng.integers(1, 4))).tolist())
                                         for _ in range(30))]
    for blocks in structures:
        def side():
            dists = rng.uniform(-1, 1, (int(rng.integers(1, 5)), sum(blocks))).round(1)
            return SimpleNamespace(dist_blocks=blocks, dists=tuple(map(tuple, dists.tolist())))

        s1, s2 = side(), side()
        et = tuple(rng.uniform(0, 1, len(blocks)).round(1).tolist())
        for eps_tilde in (et, ()):  # () reads as 0 on every block
            adm = bisimcheck._admissible_dist_pairs(s1, s2, eps_tilde)
            assert adm.shape[0] == 2 and adm.T.tolist() == [list(p) for p in _literal_adm(s1, s2, eps_tilde)]
        with pytest.raises(ModelError, match=f"eps_tilde has {len(et) + 1} components"):
            bisimcheck._admissible_dist_pairs(s1, s2, (*et, 0.5))
