import random
from fractions import Fraction

import pytest

from corefree import (
    AlternatingFunction,
    RelativeQuasimorphism,
    SplitQuasimorphism,
    SubgroupPresentation,
    Word,
    check_vanishing,
    coboundary1,
    defect_z,
    embed_support,
    find_power_free_basis,
    make_relative_qm,
    nontriviality_witness,
    parse_word,
)
from corefree.sampling import (
    random_alternating,
    random_reduced_word,
    random_split_qm,
)

from helpers import coboundary2, counting_qm, dense_defect, sample_defect


def pres(rank, *texts):
    return SubgroupPresentation(rank, tuple(parse_word(t, rank) for t in texts))


# --- alternating functions -----------------------------------------------------


def test_alternating_function_basics():
    f = AlternatingFunction({1: Fraction(1, 2), 3: -2, 5: 0})
    assert f(1) == Fraction(1, 2) and f(-1) == Fraction(-1, 2)
    assert f(0) == 0 and f(2) == 0
    assert f.support == (1, 3)  # zero values are dropped
    assert f.support_bound == 3


def test_alternating_function_rejects_bad_support():
    with pytest.raises(ValueError):
        AlternatingFunction({0: 1})
    with pytest.raises(ValueError):
        AlternatingFunction({-2: 1})


def test_alternating_function_json_round_trip():
    f = AlternatingFunction({2: Fraction(3, 7), 4: -1})
    data = f.to_json()
    assert data == {"support": [[2, "3/7"], [4, "-1"]]}
    assert AlternatingFunction.from_json(data) == f


# --- integer defects -------------------------------------------------------------


def test_defect_z_examples():
    # values frozen from the dense window oracle
    rep = defect_z(AlternatingFunction({1: 1}))
    assert (rep.value, rep.witness) == (Fraction(2), (1, 1))
    assert defect_z(AlternatingFunction({})).value == 0
    rep = defect_z(AlternatingFunction({1: 1, 2: 2}))
    assert (rep.value, rep.witness) == (Fraction(4), (2, 2))


def test_defect_z_witness_attains_value():
    rng = random.Random(51)
    for _ in range(300):
        f = random_alternating(rng, max_support=6)
        rep = defect_z(f)
        m, n = rep.witness
        assert abs(f(m + n) - f(m) - f(n)) == rep.value


def test_defect_z_matches_dense_oracle():
    rng = random.Random(52)
    for _ in range(250):
        f = random_alternating(rng, max_support=5)
        rep = defect_z(f)
        value, witness = dense_defect(f)
        assert (rep.value, rep.witness) == (value, witness)


def test_defect_z_window_stability():
    # no pair outside the doubled window 2(2S+2) beats defect_z
    rng = random.Random(53)
    for _ in range(1000):
        f = random_alternating(rng, max_support=8)
        W = 2 * f.support_bound + 2
        rep = defect_z(f)
        assert (rep.value, rep.witness) == dense_defect(f, window=2 * W)


def _workload_factor(rng: random.Random) -> AlternatingFunction:
    """k = 1..16 support points, the largest at S = k..16, values p/q with
    0 < |p| <= 8 and q <= 4."""
    k = rng.randint(1, 16)
    top = rng.randint(k, 16)
    points = rng.sample(range(1, top), k - 1) + [top]
    value = lambda: Fraction(rng.choice([n for n in range(-8, 9) if n]), rng.randint(1, 4))
    return AlternatingFunction({m: value() for m in points})


def test_defect_z_agrees_with_dense_scan_on_workload_shapes():
    rng = random.Random(68)
    for _ in range(60):
        f = _workload_factor(rng)
        for m in (1, 2, 3, 5):
            g = embed_support(f, m)
            rep = defect_z(g)
            assert (rep.value, rep.witness) == dense_defect(g)


# --- split quasimorphisms ----------------------------------------------------------


def test_eval_split_examples():
    q = SplitQuasimorphism(2, [AlternatingFunction({1: 1}), AlternatingFunction({})])
    assert q(parse_word("x1 x2 x1^2", 2)) == 1  # f1(1) + f2(1) + f1(2)
    assert q(Word.identity(2)) == 0
    assert q(parse_word("x1", 2)) == 1


def test_eval_split_alternating():
    rng = random.Random(54)
    for _ in range(200):
        q = random_split_qm(rng, 2)
        w = random_reduced_word(rng, 2, rng.randint(0, 10))
        assert q(~w) == -q(w)


def test_eval_split_restricts_to_factors():
    rng = random.Random(55)
    for _ in range(100):
        q = random_split_qm(rng, 3)
        for i in (1, 2, 3):
            S = q.factors[i - 1].support_bound
            for e in range(1, 2 * S + 3):
                assert q(Word.generator(3, i, e)) == q.factors[i - 1](e)
                assert q(Word.generator(3, i, -e)) == -q.factors[i - 1](e)


def test_split_defect_is_max_of_factor_defects():
    fa = AlternatingFunction({1: 1})  # defect 2
    fb = AlternatingFunction({1: Fraction(3, 2)})  # defect 3
    q = SplitQuasimorphism(2, [fa, fb])
    assert q.defect() == 3
    assert SplitQuasimorphism(2, [AlternatingFunction({})] * 2).defect() == 0


def test_split_defect_witness_realised_by_words():
    rng = random.Random(56)
    for _ in range(150):
        q = random_split_qm(rng, rng.choice([2, 3]))
        g, h = q.defect_witness()
        assert abs(coboundary1(q, g, h)) == q.defect()


def test_sampled_coboundaries_never_exceed_split_defect():
    rng = random.Random(57)
    for _ in range(100):
        q = random_split_qm(rng, 2)
        d = q.defect()
        for _ in range(20):
            g = random_reduced_word(rng, 2, rng.randint(0, 12))
            h = random_reduced_word(rng, 2, rng.randint(0, 12))
            assert abs(coboundary1(q, g, h)) <= d


# --- coboundaries ---------------------------------------------------------------


def test_coboundary1_examples():
    q = SplitQuasimorphism(2, [AlternatingFunction({1: 1, 2: Fraction(1, 3)}), AlternatingFunction({})])
    g = parse_word("x1 x2 x1^-1", 2)
    assert coboundary1(q, g, ~g) == 0
    a, b = 2, 1
    f1 = q.factors[0]
    assert coboundary1(q, Word.generator(2, 1, a), Word.generator(2, 1, b)) == f1(a) + f1(b) - f1(a + b)
    assert coboundary1(q, Word.identity(2), g) == 0


def test_coboundary2_examples():
    q = SplitQuasimorphism(2, [AlternatingFunction({1: 1}), AlternatingFunction({2: 3})])
    d1 = lambda g, h: coboundary1(q, g, h)
    rng = random.Random(58)
    for _ in range(50):
        g, h, k = (random_reduced_word(rng, 2, rng.randint(0, 8)) for _ in range(3))
        assert coboundary2(d1, g, h, k) == 0
    const = lambda g, h: Fraction(1)
    assert coboundary2(const, parse_word("x1", 2), parse_word("x2", 2), parse_word("x1", 2)) == 0
    assert coboundary2(d1, Word.identity(2), Word.identity(2), Word.identity(2)) == 0


# --- support embedding -------------------------------------------------------------


def test_embed_support_examples():
    f = AlternatingFunction({1: 1})
    g = embed_support(f, 3)
    assert g.support == (3,) and g(3) == 1 and g(1) == 0
    assert embed_support(f, 1) == f
    assert defect_z(g).value == defect_z(f).value == 2


def test_embed_support_isometry_random():
    rng = random.Random(59)
    for _ in range(250):
        f = random_alternating(rng, max_support=5)
        for m in (1, 2, 3, 5):
            assert defect_z(embed_support(f, m)).value == defect_z(f).value


def test_embed_support_scales_the_witness():
    # _pair_key is preserved by positive scaling, so the least witness scales
    rng = random.Random(69)
    for _ in range(750):
        f = random_alternating(rng, max_support=rng.randint(1, 12))
        rep = defect_z(f)
        for m in (2, 3, 5, 7):
            emb = defect_z(embed_support(f, m))
            assert emb.value == rep.value
            assert emb.witness == (m * rep.witness[0], m * rep.witness[1])


# --- relative quasimorphisms ---------------------------------------------------------


def test_make_relative_hand_traced():
    cert = find_power_free_basis(pres(2, "x1"))
    assert cert.power_bound == 3
    base = [AlternatingFunction({3: 1}), AlternatingFunction({})]
    r = make_relative_qm(cert, base)
    # psi(x1) = x1 x2^-2: both exponents below 3, so the value is 0
    assert r(parse_word("x1", 2)) == 0
    # the pulled-back witness y1^3 transforms to x1^3 and scores f1(3)
    y1 = cert.basis[0]
    assert r(y1**3) == 1
    witness = nontriviality_witness(r)
    assert witness is not None and witness[1] != 0


def test_make_relative_zero_base_is_zero():
    cert = find_power_free_basis(pres(2, "x1"))
    r = make_relative_qm(cert, [AlternatingFunction({}), AlternatingFunction({})])
    rng = random.Random(60)
    for _ in range(50):
        assert r(random_reduced_word(rng, 2, rng.randint(0, 10))) == 0
    assert nontriviality_witness(r) is None


def test_make_relative_rejects_bad_support():
    cert = find_power_free_basis(pres(2, "x1"))
    with pytest.raises(ValueError):
        make_relative_qm(cert, [AlternatingFunction({2: 1}), AlternatingFunction({})])


def test_check_vanishing_on_subgroup():
    p = pres(2, "x1")
    cert = find_power_free_basis(p)
    r = make_relative_qm(cert, [AlternatingFunction({3: 1}), AlternatingFunction({6: Fraction(1, 2)})])
    report = check_vanishing(r, p, samples=1000, length=20, rng=random.Random(61))
    assert report.ok and report.samples_checked == 1000


def test_check_vanishing_trivial_subgroup():
    cert = find_power_free_basis(SubgroupPresentation(2, ()))
    r = make_relative_qm(cert, [AlternatingFunction({1: 1}), AlternatingFunction({})])
    assert check_vanishing(r, samples=20, rng=random.Random(62)).ok


def test_check_vanishing_flags_corrupted_support():
    # bypass validation: a factor below the power bound must be caught
    cert = find_power_free_basis(pres(2, "x1"))
    bad = RelativeQuasimorphism.__new__(RelativeQuasimorphism)
    bad.certificate = cert
    bad.base_factors = (AlternatingFunction({}), AlternatingFunction({2: 1}))
    report = check_vanishing(bad, samples=200, rng=random.Random(63))
    assert not report.ok
    w, value = report.failures[0]
    assert value != 0


def test_relative_json_round_trip():
    cert = find_power_free_basis(pres(2, "x1"))
    r = make_relative_qm(cert, [AlternatingFunction({3: Fraction(2, 5)}), AlternatingFunction({})])
    back = RelativeQuasimorphism.from_json(r.to_json())
    assert back.certificate == cert and back.base_factors == r.base_factors


# --- counting quasimorphisms ----------------------------------------------------------


def test_counting_qm_examples():
    assert counting_qm(parse_word("x1 x2", 2), parse_word("x1 x2 x1 x2", 2)) == 2
    w = parse_word("x1 x2", 2)
    assert counting_qm(w, ~w) == -1
    assert counting_qm(parse_word("x1", 2), parse_word("x1^3", 2)) == 3


def test_counting_qm_rejects_empty_pattern():
    with pytest.raises(ValueError):
        counting_qm(Word.identity(2), parse_word("x1", 2))


def test_counting_qm_alternating():
    rng = random.Random(64)
    for _ in range(300):
        pattern = random_reduced_word(rng, 2, rng.randint(1, 4))
        g = random_reduced_word(rng, 2, rng.randint(0, 12))
        assert counting_qm(pattern, ~g) == -counting_qm(pattern, g)


def test_counting_qm_coboundary_envelope():
    rng = random.Random(65)
    for _ in range(10_000):
        pattern = random_reduced_word(rng, 2, rng.randint(1, 4))
        f = lambda w: Fraction(counting_qm(pattern, w))
        g = random_reduced_word(rng, 2, rng.randint(0, 10))
        h = random_reduced_word(rng, 2, rng.randint(0, 10))
        assert abs(coboundary1(f, g, h)) <= 6 * len(pattern)


# --- sampled defects -------------------------------------------------------------------


def test_sample_defect_bounded_by_split_defect():
    rng = random.Random(66)
    q = random_split_qm(rng, 2)
    sampler = lambda: random_reduced_word(rng, 2, rng.randint(0, 10))
    assert sample_defect(q, sampler, 200) <= q.defect()


def test_sample_defect_attains_with_forced_witness():
    q = SplitQuasimorphism(2, [AlternatingFunction({1: 1}), AlternatingFunction({})])
    g, h = q.defect_witness()
    feed = iter([g, h] * 10)
    assert sample_defect(q, lambda: next(feed), 10) == q.defect()


def test_sample_defect_zero_qm():
    q = SplitQuasimorphism(2, [AlternatingFunction({})] * 2)
    rng = random.Random(67)
    sampler = lambda: random_reduced_word(rng, 2, 5)
    assert sample_defect(q, sampler, 50) == 0
