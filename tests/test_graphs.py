import json
import random
from collections import Counter

import pytest

from corefree import (
    SubgroupPresentation,
    Word,
    conjugate_power,
    core,
    export_dot,
    fold,
    generators_from_graph,
    graph_from_json,
    graph_to_json,
    orbits,
    parse_word,
    syllables,
)
from corefree.sampling import (
    InstanceSpec,
    random_presentation,
    random_reduced_word,
    random_subgroup_element,
)

from helpers import (
    PermutationInstance,
    SchreierAction,
    conjugate_power_sweep,
    naive_core_vertices,
    subgroup_products,
)


def pres(rank, *texts):
    return SubgroupPresentation(rank, tuple(parse_word(t, rank) for t in texts))


# --- fold -------------------------------------------------------------------


def test_fold_single_loop():
    g = fold(pres(2, "x1 x2"))
    assert g.num_vertices == 2
    assert g.succ == ({0: 1}, {1: 0})


def test_fold_index_two_subgroup():
    g = fold(pres(2, "x1", "x2^2", "x2 x1 x2^-1"))
    assert g.num_vertices == 2
    # every vertex carries all four edge slots
    assert all(len(m) == 2 for m in g.succ)
    assert all(len(m) == 2 for m in g.pred)


def test_fold_trivial_subgroup():
    g = fold(SubgroupPresentation(2, ()))
    assert g.num_vertices == 1
    assert g.num_edges() == 0


def test_fold_is_folded_on_random_presentations():
    rng = random.Random(11)
    for _ in range(60):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(0, 4), 8))
        g = fold(p)
        for m in g.succ:
            assert len(set(m.values())) == len(m)  # co-deterministic
        for w in p.generators:
            assert g.membership(w)


def test_fold_generator_order_independence():
    rng = random.Random(12)
    for _ in range(60):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(1, 4), 8))
        gens = list(p.generators)
        rng.shuffle(gens)
        gens = [~w if rng.random() < 0.5 else w for w in gens]
        assert fold(SubgroupPresentation(p.rank, tuple(gens))) == fold(p)


# --- membership ---------------------------------------------------------------


def test_membership_examples():
    g = fold(pres(2, "x1 x2 x1^-1"))
    assert g.membership(parse_word("x1 x2 x1^-1", 2))
    assert g.membership(Word.identity(2))
    # oracle: every product of <= 6 generator factors avoids x1
    ball = subgroup_products(pres(2, "x1 x2 x1^-1"), 6)
    assert parse_word("x1", 2) not in ball
    assert not g.membership(parse_word("x1", 2))


def test_membership_accepts_all_enumerated_products():
    rng = random.Random(13)
    for _ in range(40):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 3), 5))
        g = fold(p)
        for u in subgroup_products(p, 4):
            assert g.membership(u)


def test_membership_matches_permutation_oracle():
    rng = random.Random(14)
    for _ in range(10):
        inst = PermutationInstance(rng, rng.randint(2, 3), rng.randint(2, 5))
        g = fold(inst.presentation)
        assert g.index() == inst.degree
        for _ in range(100):
            u = random_reduced_word(rng, inst.rank, rng.randint(0, 10))
            assert g.membership(u) == inst.member(u)


# --- core ---------------------------------------------------------------------


def test_core_removes_basepoint_tail():
    g = fold(pres(2, "x1 x2 x1^-1"))
    c = core(g)
    assert c.num_vertices == 1
    assert c.attachment in c.vertices
    (v,) = c.vertices
    assert c.step(v, 2) == v  # the single x2-loop survives


def test_core_of_cyclically_reduced_generator_is_everything():
    g = fold(pres(2, "x1 x2"))
    assert core(g).vertices == frozenset(range(g.num_vertices))


def test_core_of_trivial_subgroup_is_empty():
    c = core(fold(SubgroupPresentation(2, ())))
    assert c.num_vertices == 0
    assert c.attachment is None
    assert c.rank_of_subgroup() == 0


def test_core_matches_naive_trimming():
    rng = random.Random(15)
    for _ in range(60):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(0, 4), 8))
        g = fold(p)
        assert set(core(g).vertices) == naive_core_vertices(g)


def test_core_min_valence_two():
    rng = random.Random(16)
    for _ in range(40):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 4), 8))
        c = core(fold(p))
        for v in c.vertices:
            valence = sum(v in m for m in c.succ) + sum(v in m for m in c.pred)
            assert valence >= 2


# --- rank and index -------------------------------------------------------------


def test_rank_examples():
    assert core(fold(pres(2, "x1 x2"))).rank_of_subgroup() == 1
    assert core(fold(pres(2, "x1", "x2^2", "x2 x1 x2^-1"))).rank_of_subgroup() == 3
    assert core(fold(SubgroupPresentation(2, ()))).rank_of_subgroup() == 0


def test_index_examples():
    assert fold(pres(2, "x1", "x2^2", "x2 x1 x2^-1")).index() == 2
    assert fold(pres(2, "x1")).index() is None
    assert fold(SubgroupPresentation(2, ())).index() is None


def test_nielsen_schreier_on_permutation_instances():
    rng = random.Random(17)
    for _ in range(12):
        inst = PermutationInstance(rng, rng.randint(2, 3), rng.randint(2, 6))
        g = fold(inst.presentation)
        d = g.index()
        assert d == inst.degree
        assert core(g).rank_of_subgroup() == d * (inst.rank - 1) + 1


# --- orbits of partial injections ------------------------------------------------


def random_partial_injection(rng):
    """A random injection from part of range(n) into range(n); fixed
    points (self-loops) are likely, and n = 0 gives the empty map."""
    n = rng.randint(0, 12)
    size = rng.randint(0, n)
    return dict(zip(rng.sample(range(n), size), rng.sample(range(n), size)))


def test_orbits_examples():
    assert orbits({}) == ([], [])
    assert orbits({3: 3}) == ([], [[3]])
    assert orbits({1: 2, 2: 5}) == ([[1, 2, 5]], [])
    assert orbits({4: 2, 2: 7, 7: 4, 0: 1}) == ([[0, 1]], [[2, 7, 4]])


def test_orbits_partition_paths_and_cycles():
    rng = random.Random(17)
    seen_self_loop = seen_empty = 0
    for _ in range(500):
        f = random_partial_injection(rng)
        paths, cycles = orbits(f)
        flat = [v for orbit in paths + cycles for v in orbit]
        assert len(flat) == len(set(flat))
        assert set(flat) == set(f) | set(f.values())
        for path in paths:
            assert path[0] not in f.values() and path[-1] not in f
            assert all(f[a] == b for a, b in zip(path, path[1:]))
        for cycle in cycles:
            assert cycle[0] == min(cycle)
            assert all(f[a] == b for a, b in zip(cycle, cycle[1:] + cycle[:1]))
        seen_self_loop += any(len(cycle) == 1 for cycle in cycles)
        seen_empty += not f
    assert seen_self_loop >= 50 and seen_empty >= 10


# --- loop sets, cycles, exit times ----------------------------------------------


def test_loop_set_examples():
    c = core(fold(pres(2, "x1")))
    assert c.loop_set(1) == frozenset(c.vertices)
    assert c.loop_set(2) == frozenset()
    assert core(fold(pres(2, "x1 x2"))).loop_set(1) == frozenset()


def test_loop_set_matches_direct_iteration():
    rng = random.Random(18)
    for _ in range(50):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 4), 8))
        c = core(fold(p))
        for i in (1, 2):
            expected = set()
            for v in c.vertices:
                u = v
                for _ in range(c.num_vertices):
                    u = c.step(u, i)
                    if u is None or u == v:
                        break
                if u == v:
                    expected.add(v)
            assert c.loop_set(i) == expected


def test_xi_cycles_examples():
    assert [len(cy) for cy in core(fold(pres(2, "x1"))).xi_cycles(1)] == [1]
    assert [len(cy) for cy in core(fold(pres(2, "x1^3"))).xi_cycles(1)] == [3]
    assert core(fold(pres(2, "x1 x2"))).xi_cycles(1) == []


def test_xi_cycles_cover_loop_set():
    rng = random.Random(19)
    for _ in range(40):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 4), 8))
        c = core(fold(p))
        for i in (1, 2):
            cycles = c.xi_cycles(i)
            flat = [v for cy in cycles for v in cy]
            assert len(flat) == len(set(flat))
            assert set(flat) == set(c.loop_set(i))


def test_exit_time_examples():
    c = core(fold(pres(2, "x1 x2")))
    assert c.exit_time(1, 0) == 2
    assert c.exit_time(1, 1) == 1
    c2 = core(fold(pres(2, "x1 x2^2")))
    times = sorted(c2.exit_time(2, v) for v in c2.vertices)
    assert times == [1, 2, 3]  # one vertex has two x2-edges ahead, one has one


def test_exit_time_bounds_and_precondition():
    c = core(fold(pres(2, "x1")))
    with pytest.raises(ValueError):
        c.exit_time(1, next(iter(c.vertices)))
    rng = random.Random(20)
    for _ in range(30):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 3), 8))
        c = core(fold(p))
        for i in (1, 2):
            ls = c.loop_set(i)
            for v in c.vertices - ls:
                assert 1 <= c.exit_time(i, v) <= c.num_vertices


# --- exports -----------------------------------------------------------------


def test_export_dot_texts():
    g = fold(SubgroupPresentation(2, ()))
    assert export_dot(g) == (
        "digraph corefree {\n  rankdir=LR;\n  0 [shape=doublecircle];\n}\n"
    )
    g2 = fold(pres(2, "x1 x2"))
    dot = export_dot(g2)
    assert '0 -> 1 [label="x1"]' in dot and '1 -> 0 [label="x2"]' in dot


def test_graph_json_round_trip():
    rng = random.Random(21)
    for _ in range(30):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(1, 4), 8))
        g = fold(p)
        data = json.loads(json.dumps(graph_to_json(g)))
        assert graph_from_json(data) == g


def test_graph_json_schema():
    g = fold(pres(2, "x1 x2"))
    data = graph_to_json(g)
    assert data == {
        "rank": 2,
        "basepoint": 0,
        "vertices": 2,
        "edges": [
            {"from": 0, "to": 1, "label": 1},
            {"from": 1, "to": 0, "label": 2},
        ],
    }


def test_graph_from_json_rejects_unfolded():
    data = {
        "rank": 2,
        "basepoint": 0,
        "vertices": 3,
        "edges": [
            {"from": 0, "to": 1, "label": 1},
            {"from": 0, "to": 2, "label": 1},
        ],
    }
    with pytest.raises(ValueError):
        graph_from_json(data)


def test_generators_from_graph_regenerates_subgroup():
    rng = random.Random(22)
    for _ in range(30):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(1, 4), 8))
        g = fold(p)
        regen = SubgroupPresentation(p.rank, tuple(generators_from_graph(g)))
        assert fold(regen) == g


# --- the completed-Schreier-graph action ------------------------------------


def test_action_matches_membership():
    rng = random.Random(23)
    for _ in range(30):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 4), 6))
        g = fold(p)
        act = SchreierAction(g)
        for _ in range(40):
            u = random_reduced_word(rng, 2, rng.randint(0, 12))
            assert act.stabilizes_base(syllables(u)) == g.membership(u)


def test_action_is_word_spelling_independent():
    g = fold(pres(2, "x1 x2 x1^-1"))
    act = SchreierAction(g)
    # the same element spelled with and without cancellation
    s1 = act.apply(act.base_state, [(1, 1), (2, 3), (2, -3), (1, -1), (1, 1), (2, 1)])
    s2 = act.apply(act.base_state, [(1, 1), (2, 1)])
    assert s1 == s2


def test_action_excursion_depth_bookkeeping():
    g = fold(pres(2, "x1 x2"))
    act = SchreierAction(g)
    deep = act.apply(act.base_state, [(2, 5)])  # leaves the graph
    assert deep[1]  # in a hanging tree
    back = act.apply(deep, [(2, -5)])
    assert back == act.base_state


# --- powers in conjugates -----------------------------------------------------


def test_conjugate_power_examples():
    w = lambda text: parse_word(text, 2)
    one = Word.identity(2)
    assert conjugate_power(fold(pres(2, "x1")), w("x1")) == (one, 1)
    assert conjugate_power(fold(pres(2, "x1")), w("x2 x1^-2 x2^-1")) == (w("x2"), 1)
    assert conjugate_power(fold(pres(2, "x1^2")), w("x1")) == (one, 2)
    # the least power wins: x1^4 lies in x2^-1 H x2, before x1^6 in H
    assert conjugate_power(fold(pres(2, "x1^6", "x2 x1^4 x2^-1")), w("x1")) == (w("x2^-1"), 4)
    # x2 x1 is a cyclic permutation of x1 x2, read from vertex 1 = x1
    assert conjugate_power(fold(pres(2, "x1 x2")), w("x2 x1")) == (w("x1^-1"), 1)
    assert conjugate_power(fold(pres(2, "x1 x2")), w("x2")) is None
    assert conjugate_power(fold(pres(2, "x1 x2")), one) == (one, 1)
    assert conjugate_power(fold(SubgroupPresentation(2, ())), w("x1")) is None
    # two shortest cycles, at vertices 1 (x2) and 2 (x2^-1): the smaller wins
    assert conjugate_power(fold(pres(2, "x2 x1 x2^-1", "x2^-1 x1 x2")), w("x1")) == (w("x2^-1"), 1)


def test_conjugate_power_agrees_with_sweep():
    """The exact decision against the brute-force sweep over |g| <= 4 and
    m <= 6, on random candidate words, conjugated subgroup elements and
    conjugated roots of powers in H: every sweep hit is detected with a
    power no larger, every reported witness is real, and a witness in the
    sweep's range is one of its hits."""
    rng = random.Random(24)
    kinds = Counter()
    for t in range(150):
        rank = 2 if t % 2 == 0 else 3
        p = random_presentation(rng, InstanceSpec(rank, rng.randint(1, 3), 5))
        conj = random_reduced_word(rng, rank, rng.randint(0, 3))
        kind = t % 3
        if kind == 0:
            y = random_reduced_word(rng, rank, rng.randint(0, 6))
        elif kind == 1:
            y = conj * random_subgroup_element(rng, p, 3) * ~conj
        else:
            root = random_reduced_word(rng, rank, rng.randint(1, 3))
            extra = root ** rng.randint(2, 4)
            p = SubgroupPresentation(rank, p.generators + (~conj * extra * conj,))
            y = root
        g = fold(p)
        exact = conjugate_power(g, y)
        sweep = conjugate_power_sweep(g, [y])
        if sweep:
            kinds[kind] += 1
            assert exact is not None and exact[1] <= min(m for _, _, m in sweep)
        if exact is not None:
            c, m = exact
            assert g.membership(~c * y**m * c)
            if len(c) <= 4 and m <= 6:
                assert (c, 1, m) in sweep
    assert kinds[0] and kinds[1] >= 40 and kinds[2] >= 40

