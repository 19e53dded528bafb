"""Root systems, dominance, and the dominant-weight case table."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superflag import cli
from superflag.suites import suite_bwb
from superflag.weights import (
    RootSystem,
    Weight,
    bwb_dominant_filter,
    fiber_description,
    psi_highest_weights,
    root_system,
)

from oracles import positive_even_part, positive_odd_part, positive_roots


def W(mu, la):
    return Weight(tuple(mu), tuple(la))


def test_root_counts():
    for s in range(4):
        for n in range(4):
            rs = RootSystem(s, n)
            assert len(positive_even_part(rs)) == s * s
            assert len(positive_odd_part(rs)) == n * n
            assert len(rs.simple_roots()) == s + n


def test_simple_roots_are_positive_roots_combinations():
    rs = RootSystem(3, 2)
    pos = positive_roots(rs)
    for a in rs.simple_roots():
        # every simple root is itself positive except the doubled 2*la_n,
        # which is the long positive root la_n + la_n
        assert a in pos or a.scale(1) == (
            Weight.basis_la(3, 2, 2) + Weight.basis_la(3, 2, 2))


small_weights = st.builds(
    W,
    st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
)


@given(small_weights)
@settings(max_examples=300, deadline=None)
def test_dominance_simple_root_criterion(w):
    rs = RootSystem(3, 2)
    assert rs.is_dominant(w) == all(
        w.inner(a) >= 0 for a in rs.simple_roots())


@given(small_weights, st.integers(min_value=1, max_value=5))
@settings(max_examples=200, deadline=None)
def test_dominance_scale_invariant(w, c):
    rs = RootSystem(3, 2)
    assert rs.is_dominant(w) == rs.is_dominant(w.scale(c))


@st.composite
def _block(draw, size):
    """Integer coefficients; half the time non-increasing and >= 0 (the
    dominant shape) with one entry nudged, so that the later root
    families in the enumeration order are reached too."""
    values = draw(st.lists(st.integers(min_value=-4, max_value=4),
                           min_size=size, max_size=size))
    if size and draw(st.booleans()):
        values = sorted((abs(a) for a in values), reverse=True)
        values[draw(st.integers(0, size - 1))] += draw(
            st.integers(min_value=-2, max_value=1))
    return tuple(values)


@st.composite
def ranked_weights(draw):
    s = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=6))
    return RootSystem(s, n), Weight(draw(_block(s)), draw(_block(n)))


# Pinned cases whose first negative root is, in turn: mu_i - mu_j,
# mu_i + mu_j (a sign slip in the |mu| suffix maximum misses it), mu_i,
# 2 la_1, la_p - la_q, la_p + la_q with q > p, 2 la_2; then none.
@given(ranked_weights())
@example((RootSystem(3, 1), W((1, 2, 0), (0,))))
@example((RootSystem(3, 1), W((2, 1, -3), (0,))))
@example((RootSystem(2, 1), W((1, -1), (0,))))
@example((RootSystem(2, 1), W((1, 0), (-1,))))
@example((RootSystem(0, 3), W((), (1, 2, 0))))
@example((RootSystem(0, 3), W((), (0, 0, -1))))
@example((RootSystem(1, 2), W((0,), (2, -1))))
@example((RootSystem(0, 0), W((), ())))
@example((RootSystem(2, 2), W((3, 3), (1, 0))))
@settings(max_examples=600, deadline=None, derandomize=True)
def test_closed_forms_match_root_enumeration(case):
    rs, w = case
    negative = [r for r in positive_roots(rs) if w.inner(r) < 0]
    assert rs.is_dominant(w) == (not negative)
    assert rs.violation(w) == (negative[0] if negative else None)


def test_bwb_never_enumerates_roots(capsys):
    """bwb at ranks (2000, 1500), where an enumeration of the positive
    roots would not finish in time: the suite and the command read the
    closed forms.  The CI step "bwb stays linear in its ranks" runs these
    ranks under a timeout."""
    assert suite_bwb(2000, 1500).ok
    assert cli.main(["bwb", "--k1", "2000", "--l1", "1500"]) == 0
    assert "(negative against mu2 + mu1999)" in capsys.readouterr().out


def test_dominance_explicit():
    rs = RootSystem(2, 2)
    assert rs.is_dominant(W((2, 1), (3, 0)))
    assert not rs.is_dominant(W((1, 2), (3, 0)))    # mu1 < mu2
    assert not rs.is_dominant(W((2, 1), (0, -1)))   # la2 < 0
    assert rs.is_dominant(Weight.zero(2, 2))


def test_weight_arithmetic_and_render():
    w = Weight.basis_mu(3, 2, 1) - Weight.basis_la(3, 2, 2)
    assert w.mu == (1, 0, 0) and w.la == (0, -1)
    assert w.render() == "mu1 - la2"
    assert (w - w).render() == "0"
    assert (w + w).render() == "2*mu1 - 2*la2"
    assert (-w).render() == "-mu1 + la2"
    with pytest.raises(ValueError):
        w + Weight.zero(1, 1)


def test_weight_from_entries_adds_repeated_positions():
    assert Weight.from_entries(2, 2, ((3, 1), (3, 1))) == W((0, 0), (0, 2))
    assert Weight.from_entries(2, 2, ((0, 1), (2, -1))) \
        == Weight.basis_mu(2, 2, 1) - Weight.basis_la(2, 2, 1)
    assert Weight.basis_la(2, 2, 2) == W((0, 0), (0, 1))
    with pytest.raises(IndexError, match="mu_3"):
        Weight.basis_mu(2, 2, 3)
    with pytest.raises(IndexError, match="la_0"):
        Weight.basis_la(2, 2, 0)


def test_highest_weight_case_split():
    s = lambda k1, l1: [w.render() for w in psi_highest_weights(k1, l1)]
    assert s(4, 3) == ["mu1 - mu3", "mu1 - la3", "-mu3 + la1",
                       "la1 - la3", "0"]
    assert s(2, 3) == ["mu1 - la3", "-mu1 + la1", "la1 - la3", "0"]
    assert s(4, 1) == ["mu1 - mu3", "mu1 - la1", "-mu3 + la1", "0"]
    assert s(2, 1) == ["mu1 - la1", "-mu1 + la1", "0"]
    assert s(1, 3) == ["la1 - la3"]
    assert s(1, 1) == []
    assert s(4, 0) == ["mu1 - mu3"]
    assert s(2, 0) == []


#: sha256 of the rendered psi lists for 1 <= k1 <= 30 and 0 <= l1 <= 30,
#: taken from the five-branch case split that the generic rule replaced.
PINNED_PSI = "6c745e8c1d95613bb7c71e76e8f479b674617155546ee3c3df5d12022c2e683f"


def test_highest_weights_match_pinned_digest():
    h = hashlib.sha256()
    for k1 in range(1, 31):
        for l1 in range(31):
            rendered = "; ".join(w.render()
                                 for w in psi_highest_weights(k1, l1))
            h.update(f"{k1},{l1}|{rendered}\n".encode())
    assert h.hexdigest() == PINNED_PSI


@pytest.mark.parametrize("k1", range(1, 7))
@pytest.mark.parametrize("l1", range(1, 5))
def test_dominant_filter_table(k1, l1):
    rs = root_system(k1, l1)
    survivors = bwb_dominant_filter(psi_highest_weights(k1, l1), rs)
    if k1 >= 2:
        assert len(survivors) == 1 and survivors[0].is_zero()
        assert fiber_description(survivors) == "ℂ"
    else:
        assert survivors == []
        assert fiber_description(survivors) == "{0}"


def test_filter_preserves_multiplicity_and_order():
    rs = RootSystem(2, 1)
    z = Weight.zero(2, 1)
    dom = W((2, 1), (1,))
    bad = W((-1, 0), (0,))
    assert bwb_dominant_filter([dom, bad, z, dom], rs) == [dom, z, dom]


def test_fiber_description_from_survivors():
    z = Weight.zero(2, 1)
    assert fiber_description([]) == "{0}"
    assert fiber_description([z, z]) == "ℂ"
    with pytest.raises(ValueError, match="mu1"):
        fiber_description([z, W((1, 0), (0,))])


def test_nonzero_survivor_raises(monkeypatch):
    # a regression in the weight lists surfaces as a loud error, not a
    # silently wrong description
    import superflag.suites as smod

    monkeypatch.setattr(smod, "psi_highest_weights",
                        lambda k1, l1: [W((1,), (0,))])
    with pytest.raises(ValueError, match="non-constant"):
        smod.suite_bwb(2, 1)


def test_size_validation():
    with pytest.raises(ValueError):
        psi_highest_weights(0, 1)
    with pytest.raises(ValueError):
        root_system(1, -1)
