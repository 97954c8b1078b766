import random
import tracemalloc
from dataclasses import replace

import pytest

from corefree import (
    Automorphism,
    ElementaryMove,
    FiniteIndexError,
    SubgroupPresentation,
    UnboundedRunError,
    Word,
    WordBlowupError,
    apply_move,
    choose_index,
    compute_k,
    compute_power_bound,
    core,
    find_power_free_basis,
    fold,
    parse_word,
    syllables,
    transformed_syllables,
    verify_certificate,
)
from corefree.sampling import (
    InstanceSpec,
    random_presentation,
    random_reduced_word,
    random_subgroup_element,
)

from helpers import apply_move_letters


def pres(rank, *texts):
    return SubgroupPresentation(rank, tuple(parse_word(t, rank) for t in texts))


def substitute(word_in_x, basis):
    """Replace x_i by basis[i-1]; the group-level substitution."""
    out = Word.identity(basis[0].rank)
    for s in word_in_x.letters:
        out = out * (basis[s - 1] if s > 0 else ~basis[-s - 1])
    return out


# --- elementary moves ---------------------------------------------------------


def test_apply_move_examples():
    m = ElementaryMove(2, -2)
    for move in (apply_move, apply_move_letters):
        assert move(parse_word("x1", 2), m) == parse_word("x1 x2^-2", 2)
        assert move(parse_word("x2", 2), m) == parse_word("x2", 2)
        w = parse_word("x1 x2 x1", 2)
        assert move(move(w, ElementaryMove(2, 2)), ElementaryMove(2, -2)) == w


def test_move_power_must_be_nonzero():
    with pytest.raises(ValueError):
        ElementaryMove(1, 0)


def test_automorphism_examples():
    ident = Automorphism(2, ())
    w = parse_word("x1 x2^-1", 2)
    assert ident.apply(w) == w
    psi = Automorphism(2, (ElementaryMove(2, -2),))
    assert psi.inverse().apply(parse_word("x1", 2)) == parse_word("x1 x2^2", 2)


def test_automorphism_round_trip_random():
    rng = random.Random(31)
    for _ in range(200):
        rank = rng.randint(2, 3)
        moves = tuple(
            ElementaryMove(rng.randint(1, rank), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 4))
        )
        aut = Automorphism(rank, moves)
        w = random_reduced_word(rng, rank, rng.randint(0, 8))
        assert aut.inverse().apply(aut.apply(w)) == w


def test_automorphism_agrees_with_letter_level_move():
    rng = random.Random(32)
    for _ in range(200):
        rank = rng.randint(2, 3)
        move = ElementaryMove(rng.randint(1, rank), rng.choice([-3, -1, 1, 2]))
        w = random_reduced_word(rng, rank, rng.randint(0, 10))
        expected = apply_move_letters(w, move)
        assert apply_move(w, move) == expected
        assert Automorphism(rank, (move,)).apply(w) == expected


def test_automorphism_is_homomorphism():
    rng = random.Random(33)
    for _ in range(150):
        rank = 2
        moves = tuple(
            ElementaryMove(rng.randint(1, rank), rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(1, 3))
        )
        aut = Automorphism(rank, moves)
        u = random_reduced_word(rng, rank, rng.randint(0, 8))
        v = random_reduced_word(rng, rank, rng.randint(0, 8))
        assert aut.apply(u * v) == aut.apply(u) * aut.apply(v)
        assert aut.apply(~u) == ~aut.apply(u)


def test_automorphism_length_cap():
    aut = Automorphism(2, (ElementaryMove(2, 1000),))
    with pytest.raises(WordBlowupError):
        aut.apply(parse_word("x1^50", 2), max_letters=100)


# --- index and exponent selection ---------------------------------------------


def test_choose_index_prefers_missing_label():
    c = core(fold(pres(2, "x1")))
    loop_sets = {i: c.loop_set(i) for i in (1, 2)}
    assert choose_index(loop_sets) == 2


def test_choose_index_tie_break():
    assert choose_index({1: frozenset({10}), 2: frozenset({20})}) == 1


def test_choose_index_errors():
    with pytest.raises(ValueError):
        choose_index({1: frozenset(), 2: frozenset()})
    with pytest.raises(ValueError):
        choose_index({1: frozenset({5}), 2: frozenset({5})})


def test_compute_k_examples():
    assert compute_k(core(fold(pres(2, "x1"))), 2) == 2
    c = core(fold(pres(2, "x1^3", "x2^3")))  # one x1-cycle of length 3, five vertices
    assert c.num_vertices == 5
    assert compute_k(c, 1) == 6
    assert compute_k(core(fold(SubgroupPresentation(2, ()))), 1) == 1


# --- the basis algorithm --------------------------------------------------------


def test_find_basis_single_generator():
    cert = find_power_free_basis(pres(2, "x1"))
    assert [(m.index, m.power) for m in cert.automorphism.moves] == [(2, -2)]
    assert cert.basis == (parse_word("x1 x2^2", 2), parse_word("x2", 2))
    assert cert.power_bound == 3
    assert len(cert.trace) == 1
    assert cert.trace[0].index == 2 and cert.trace[0].power == 2


def test_find_basis_already_power_free():
    cert = find_power_free_basis(pres(2, "x1 x2"))
    assert cert.automorphism.moves == ()
    assert cert.basis == (parse_word("x1", 2), parse_word("x2", 2))
    assert cert.power_bound == 2


def test_find_basis_rejects_finite_index():
    with pytest.raises(FiniteIndexError) as err:
        find_power_free_basis(pres(2, "x1", "x2^2", "x2 x1 x2^-1"))
    assert err.value.index == 2


def test_find_basis_trivial_subgroup():
    cert = find_power_free_basis(SubgroupPresentation(2, ()))
    assert cert.automorphism.moves == ()
    assert cert.power_bound == 1


def test_find_basis_word_blowup_cap():
    with pytest.raises(WordBlowupError):
        find_power_free_basis(pres(2, "x1^3", "x2^3"), max_total_length=10)


def test_find_basis_blowup_is_measured_before_expanding():
    # H = <x1^L>: the core is an x1-cycle of L vertices, so the one move is
    # x1 -> x1 x2^-(L+1), and the image of x1^L has L (L + 2) letters.
    L = 2000
    p = pres(2, f"x1^{L}")
    tracemalloc.start()
    try:
        with pytest.raises(WordBlowupError) as err:
            find_power_free_basis(p, max_total_length=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    letters = L * (L + 2)
    assert str(err.value) == f"generators reached {letters} letters (cap 1000)"
    # an expanded word holds at least one 8-byte reference per letter
    assert peak < letters


def test_find_basis_transformed_core_has_no_loops():
    rng = random.Random(34)
    for _ in range(40):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(1, 4), 8))
        if fold(p).index() is not None:
            continue
        cert = find_power_free_basis(p)
        c = core(fold(SubgroupPresentation(p.rank, cert.transformed_generators)))
        assert not any(c.loop_set(i) for i in range(1, p.rank + 1))
        # psi(y_i) = x_i
        for i, y in enumerate(cert.basis, start=1):
            assert cert.automorphism.apply(y) == Word.generator(p.rank, i)


def test_trace_is_strictly_decreasing():
    rng = random.Random(35)
    for _ in range(60):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 4), 8))
        if fold(p).index() is not None:
            continue
        cert = find_power_free_basis(p)
        before = [t.loops_before for t in cert.trace]
        assert all(a > b for a, b in zip(before, before[1:]))
        for t, step in enumerate(cert.trace):
            nxt = cert.trace[t + 1].loops_before if t + 1 < len(cert.trace) else 0
            assert step.loops_after == nxt
        if cert.trace:
            assert len(cert.trace) <= cert.trace[0].loops_before


def test_subgroup_transport():
    rng = random.Random(36)
    for _ in range(25):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 3), 6))
        if fold(p).index() is not None:
            continue
        cert = find_power_free_basis(p)
        g = fold(p)
        h = fold(SubgroupPresentation(p.rank, cert.transformed_generators))
        for _ in range(30):
            w = (
                random_subgroup_element(rng, p, 6)
                if rng.random() < 0.5
                else random_reduced_word(rng, p.rank, rng.randint(0, 10))
            )
            assert g.membership(w) == h.membership(cert.automorphism.apply(w))


def test_rank_preservation():
    rng = random.Random(37)
    for _ in range(40):
        p = random_presentation(rng, InstanceSpec(rng.randint(2, 3), rng.randint(1, 4), 8))
        if fold(p).index() is not None:
            continue
        cert = find_power_free_basis(p)
        transformed = SubgroupPresentation(p.rank, cert.transformed_generators)
        assert core(fold(transformed)).rank_of_subgroup() == core(fold(p)).rank_of_subgroup()


# --- the power bound -------------------------------------------------------------


def test_power_bound_examples():
    assert compute_power_bound(fold(pres(2, "x1 x2"))) == 2
    assert compute_power_bound(fold(pres(2, "x1 x2^-2"))) == 3
    assert compute_power_bound(fold(SubgroupPresentation(2, ()))) == 1


def test_power_bound_rejects_cycles():
    with pytest.raises(UnboundedRunError):
        compute_power_bound(fold(pres(2, "x1")))


def longest_run(g):
    """The most consecutive steps along one label's edges from any vertex,
    or None when some walk returns to its start (a cycle)."""
    best = 0
    for i in range(1, g.rank + 1):
        for v in range(g.num_vertices):
            u, steps = g.step(v, i), 0
            while u is not None:
                steps += 1
                if u == v:
                    return None
                u = g.step(u, i)
            best = max(best, steps)
    return best


def test_power_bound_matches_longest_run():
    rng = random.Random(41)
    cycle_free = 0
    for _ in range(150):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 3), 8))
        graphs = [fold(p)]
        if graphs[0].index() is None:
            cert = find_power_free_basis(p)
            graphs.append(fold(SubgroupPresentation(p.rank, cert.transformed_generators)))
        for g in graphs:
            run = longest_run(g)
            if run is None:
                with pytest.raises(UnboundedRunError):
                    compute_power_bound(g)
            else:
                cycle_free += 1
                assert compute_power_bound(g) == run + 1
    assert cycle_free >= 100


def test_power_bound_sound_on_samples():
    rng = random.Random(38)
    for _ in range(20):
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 3), 8))
        if fold(p).index() is not None:
            continue
        cert = find_power_free_basis(p)
        for _ in range(50):
            h = random_subgroup_element(rng, p, 10)
            assert all(abs(e) < cert.power_bound for _, e in transformed_syllables(cert, h))


# --- transformed coordinates -----------------------------------------------------


def test_to_transformed_coordinates_examples():
    cert = find_power_free_basis(pres(2, "x1"))
    image = cert.automorphism.apply(parse_word("x1", 2))
    assert image == parse_word("x1 x2^-2", 2)
    assert substitute(image, cert.basis) == parse_word("x1", 2)
    assert cert.automorphism.apply(Word.identity(2)).is_identity()
    cert0 = find_power_free_basis(pres(2, "x1 x2"))
    w = parse_word("x2 x1^-1", 2)
    assert cert0.automorphism.apply(w) == w


def test_transformed_syllables_match_letter_route():
    rng = random.Random(39)
    cert = find_power_free_basis(pres(2, "x1^3", "x2 x1 x2 x1^-1"))
    for _ in range(100):
        w = random_reduced_word(rng, 2, rng.randint(0, 12))
        image = w
        for move in cert.automorphism.moves:
            image = apply_move_letters(image, move)
        assert tuple(transformed_syllables(cert, w)) == syllables(image)


# --- certificate verification -----------------------------------------------------


def test_verify_certificate_passes_honest_cert():
    p = pres(2, "x1")
    cert = find_power_free_basis(p)
    report = verify_certificate(p, cert, sample_count=200)
    assert report.all_ok
    # one trace per vertex of fold(p) and basis word
    assert report.conjugates_checked == 2 * fold(p).num_vertices


def test_verify_detects_corrupted_basis_word():
    p = pres(2, "x1")
    cert = find_power_free_basis(p)
    bad = replace(cert, basis=(parse_word("x1", 2), cert.basis[1]))
    report = verify_certificate(p, bad, sample_count=50)
    assert not report.structural_ok
    assert not report.conjugate_ok
    g, i, m = report.conjugate_failures[0]
    assert g.is_identity() and i == 1 and m == 1


def test_verify_detects_understated_power_bound():
    p = pres(2, "x1 x2^-2")
    cert = find_power_free_basis(p)
    assert cert.power_bound == 3
    bad = replace(cert, power_bound=2)
    report = verify_certificate(p, bad, sample_count=50)
    assert report.structural_failures == ["m0 is 2, the power bound is 3"]
    assert not report.subword_ok
    w, (i, e) = report.subword_failures[0]
    assert w == parse_word("x1 x2^-2", 2) and (i, abs(e)) == (2, 2)


def test_verify_spot_checked_against_plain_membership():
    rng = random.Random(40)
    p = pres(2, "x1^3")
    cert = find_power_free_basis(p)
    g = fold(p)
    report = verify_certificate(p, cert, sample_count=20)
    assert report.all_ok
    # no conjugate of H may contain a basis power: recheck via plain traces
    for _ in range(100):
        u = random_reduced_word(rng, 2, rng.randint(0, 3))
        y = cert.basis[rng.randrange(2)]
        m = rng.randint(1, 4)
        assert not g.membership(~u * y**m * u)


def test_verify_checks_original_generators():
    p = pres(2, "x1 x2^-2")
    cert = find_power_free_basis(p)
    # another generating set of the same subgroup is accepted
    same = replace(cert, original_generators=(parse_word("x2^2 x1^-1", 2),))
    assert verify_certificate(p, same, sample_count=10).all_ok
    other = replace(cert, original_generators=(parse_word("x1 x2^-3", 2),))
    report = verify_certificate(p, other, sample_count=10)
    assert report.structural_failures == ["original generators do not present H"]
    with pytest.raises(ValueError):
        verify_certificate(pres(3, "x1"), cert)


def test_verify_recomputes_trace():
    rng = random.Random(42)
    checked = 0
    while checked < 15:
        p = random_presentation(rng, InstanceSpec(2, rng.randint(1, 3), 6))
        if fold(p).index() is not None:
            continue
        cert = find_power_free_basis(p)
        if not cert.trace:
            continue
        checked += 1
        assert verify_certificate(p, cert, sample_count=0).all_ok
        forgeries = [(), cert.trace[:-1], cert.trace + cert.trace[-1:]]
        for field in ("index", "power", "loops_before", "loops_after", "core_vertices"):
            step = replace(cert.trace[0], **{field: getattr(cert.trace[0], field) + 1})
            forgeries.append((step,) + cert.trace[1:])
        for trace in forgeries:
            report = verify_certificate(p, replace(cert, trace=trace), sample_count=0)
            assert report.structural_failures == ["trace does not match the replayed moves"]


def test_certificate_json_round_trip():
    from corefree import BasisCertificate

    cert = find_power_free_basis(pres(2, "x1", "x2 x1^2 x2 x1^-1"))
    data = cert.to_json()
    back = BasisCertificate.from_json(data)
    assert back == cert
    assert data["m0"] == cert.power_bound
    assert data["moves"] == [[m.index, m.power] for m in cert.automorphism.moves]
