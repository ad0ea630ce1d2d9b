import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintrack.fixtures import load_fixture
from traintrack.graphs import (
    GraphMap,
    canonical_circuit,
    iter_tight_paths,
    random_circuit,
    random_tight_path,
    rose_of,
)
from traintrack import growth
from traintrack.growth import (
    _SLACK,
    _longest_short_path,
    _max_cancellation,
    bcc_estimate,
    growth_decomposition,
    path_stats,
    trichotomy_classify,
    validate_backgrowth,
    validate_bcc,
    validate_bw1,
    validate_decomp,
    validate_illen,
    validate_tricho,
)
from traintrack.strata import Metric, assign_metric, compute_filtration
from traintrack.words import BudgetExceeded, key_word

from conftest import PHI, naive_longest_short_path, random_rose_map

INP = (-1, -2, 1, 2)


@pytest.fixture(scope="module")
def fib_setup(fib):
    f = rose_of(fib)
    filt = compute_filtration(f)
    return f, filt, assign_metric(filt)


@pytest.fixture(scope="module")
def rel_setup(rel):
    f = rose_of(rel)
    filt = compute_filtration(f)
    return f, filt, assign_metric(filt)


class TestPathStats:
    def test_legal_circuit(self, fib_setup):
        f, filt, met = fib_setup
        st = path_stats((1, 2), filt, met, circuit=True)
        assert st.i == 0
        assert st.L == pytest.approx(PHI + 1)
        assert st.script_L == st.L

    def test_inp_as_path(self, fib_setup):
        f, filt, met = fib_setup
        st = path_stats(INP, filt, met)
        assert st.i == 1
        # halves a^-1 b^-1 and a b weigh the same
        assert st.script_L == pytest.approx(PHI + 1)

    def test_inp_as_circuit(self, fib_setup):
        # one cut leaves a single cyclic segment carrying everything
        f, filt, met = fib_setup
        st = path_stats(INP, filt, met, circuit=True)
        assert st.i == 1
        assert st.script_L == pytest.approx(2 * PHI + 2)

    def test_alternating_family(self, fib_setup):
        f, filt, met = fib_setup
        st = path_stats((1, -2) * 4, filt, met, r=1, circuit=True)
        assert (st.i, st.i_r) == (4, 4)
        assert st.script_L == pytest.approx(PHI + 1)
        assert st.L == pytest.approx(4 * (PHI + 1))

    def test_relative_quantities(self, rel_setup):
        f, filt, met = rel_setup
        st = path_stats((-3, 2), filt, met, r=2)
        assert st.i_r == 1
        assert st.L_r == pytest.approx(PHI + 1)
        assert st.script_L_r == pytest.approx(PHI)

    def test_lower_edges_do_not_count(self, rel_setup):
        f, filt, met = rel_setup
        st = path_stats((1, 2, 1), filt, met, r=2)
        assert st.L_r == pytest.approx(1.0)
        assert st.L == pytest.approx(3.0)

    def test_errors(self, fib_setup, rel_setup):
        f, filt, met = fib_setup
        with pytest.raises(ValueError):
            path_stats((), filt, met)
        rf, rfilt, rmet = rel_setup
        with pytest.raises(ValueError):
            path_stats((2,), rfilt, rmet, r=1)  # b is above G_1

    @pytest.mark.parametrize("r", [0, 5])
    def test_missing_stratum(self, fib_setup, r):
        f, filt, met = fib_setup
        with pytest.raises(ValueError, match=f"no stratum {r}"):
            path_stats((1, 2), filt, met, r=r)


def naive_max_cancellation(f, metric, window):
    """Quadratic reference: scan every tight concatenation directly."""
    g = f.graph
    paths = list(iter_tight_paths(g, window))
    best = 0.0
    for a in paths:
        for b in paths:
            if g.terminus(a[-1]) != g.origin(b[0]) or a[-1] == -b[0]:
                continue
            lost = (
                metric.length(f.map_letters(a))
                + metric.length(f.map_letters(b))
                - metric.length(f.map_letters(a + b))
            )
            best = max(best, lost)
    return best


class TestBcc:
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_scan_matches_quadratic_oracle(self, fib_setup, window):
        f, filt, met = fib_setup
        assert _max_cancellation(f, met, window) == pytest.approx(
            naive_max_cancellation(f, met, window), abs=1e-12
        )

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_scan_matches_oracle_poly(self, poly_rose, window):
        filt = compute_filtration(poly_rose)
        met = assign_metric(filt)
        assert _max_cancellation(poly_rose, met, window) == pytest.approx(
            naive_max_cancellation(poly_rose, met, window), abs=1e-12
        )

    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("name", ["plas", "broken", "rel"])
    def test_scan_matches_oracle_more_maps(self, request, name, window):
        obj = request.getfixturevalue(name)
        f = obj if isinstance(obj, GraphMap) else rose_of(obj)
        met = f.filtration.metric
        assert _max_cancellation(f, met, window) == pytest.approx(
            naive_max_cancellation(f, met, window), abs=1e-12
        )

    @pytest.mark.parametrize("name", ["fib", "plas", "poly", "rel", "random"])
    def test_path_images_match_tight_paths(self, request, name):
        if name == "random":
            rng = random.Random("path images")
            maps = [random_rose_map(2 + i % 2, rng) for i in range(20)]
        else:
            maps = [rose_of(request.getfixturevalue(name))]
        for f in maps:
            for w in range(1, 6):
                got = sorted(growth._iter_path_images(f, w))
                assert got == sorted(
                    (p[0], p[-1], key_word(f.map_letters(p)))
                    for p in iter_tight_paths(f.graph, w)
                )

    def test_fib_constant(self, fib_setup):
        f, _, _ = fib_setup
        data = bcc_estimate(f)
        assert data.stable
        assert data.C_f == pytest.approx(2 * PHI, abs=1e-9)
        assert data.critical_length() == pytest.approx(
            2 * data.C_f / (PHI - 1), abs=1e-9
        )
        assert data.critical_length() == pytest.approx(10.472135955, abs=1e-6)

    def test_rel_constant(self, rel_setup):
        f, filt, met = rel_setup
        data = bcc_estimate(f)
        assert data.stable
        assert data.C_f == pytest.approx(2 * PHI + 2, abs=1e-9)
        assert data.critical_length(2) == pytest.approx(16.9442719100, abs=1e-6)
        with pytest.raises(KeyError):
            data.critical_length(1)  # polynomial stratum has none

    @pytest.mark.parametrize("name", ["fib", "plas"])
    def test_stable_constant_covers_window_8(self, request, name):
        # the stabilized value already dominates every concatenation
        # with both sides up to 8 edges: zero violations
        f = rose_of(request.getfixturevalue(name))
        filt = compute_filtration(f)
        met = assign_metric(filt)
        data = bcc_estimate(f)
        assert data.stable
        exhaustive = _max_cancellation(f, met, 8)
        assert exhaustive <= data.C_f + 1e-9

    def test_rejects_bad_bound(self, fib_setup):
        with pytest.raises(ValueError):
            bcc_estimate(fib_setup[0], pair_len_bound=0)

    def test_no_critical_length_without_expansion(self, poly_rose):
        data = bcc_estimate(poly_rose)
        with pytest.raises(ValueError):
            data.critical_length()


class TestBwValidators:
    def test_bw1_margins_positive(self, fib_setup, fib_inv_rose, rng):
        f, filt, met = fib_setup
        circuits = [random_circuit(f.graph, 12, rng) for _ in range(120)]
        rep = validate_bw1(
            f, fib_inv_rose, circuits, k_max=5
        )
        assert len(rep.rows) == 600
        assert rep.passed
        assert all(row["margin"] > 0 for row in rep.rows)
        assert rep.constants["lambda"] == pytest.approx(PHI, abs=1e-9)
        assert rep.constants["L_c"] == pytest.approx(10.472135955, abs=1e-6)

    def test_bw1_needs_single_stratum(self, rel_setup, rel_inv_rose):
        f, filt, met = rel_setup
        with pytest.raises(ValueError):
            validate_bw1(f, rel_inv_rose, [(2, -3)])

    def test_bw2_relative(self, rel_setup, rel_inv_rose, rng):
        f, filt, met = rel_setup
        circuits = [random_circuit(f.graph, 10, rng) for _ in range(60)]
        rep = validate_bw1(
            f, rel_inv_rose, circuits, k_max=3, r=2,
        )
        assert rep.passed
        assert rep.constants["L_c_r"] == pytest.approx(16.9442719100, abs=1e-6)

    def test_illen_recovers_exact_max(self, fib_setup):
        f, filt, met = fib_setup
        sample = list(iter_tight_paths(f.graph, 6))
        got = validate_illen(sample, 10.0, filt).constants["C"]
        expected = 0.0
        for p in sample:
            st = path_stats(p, filt, met)
            if st.i > 0 and 1.0 <= st.script_L <= 10.0 + 1e-9:
                expected = max(expected, st.L / st.i, st.i / st.L)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got >= 1.0

    def test_illen2_relative(self, rel_setup):
        f, filt, met = rel_setup
        sample = list(iter_tight_paths(f.graph, 5))
        got = validate_illen(sample, 10.0, r=2, filtration=filt).constants["C"]
        expected = 0.0
        for p in sample:
            st = path_stats(p, filt, met, r=2)
            if st.i_r > 0 and 1.0 <= st.script_L_r <= 10.0 + 1e-9:
                expected = max(expected, st.L_r / st.i_r, st.i_r / st.L_r)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_illen_empty_sample(self, fib_setup):
        f, filt, met = fib_setup
        with pytest.raises(ValueError):
            validate_illen([(1, 2)], 10.0, filt)  # i == 0 only


class TestBackgrowth:
    def test_fib_alternating_family(self, fib_setup, fib_inv_rose):
        f, filt, met = fib_setup
        family = canonical_circuit(f.graph, (1, -2) * 4)
        rep = validate_backgrowth(
            f, fib_inv_rose, [family], L0=12.0, n_max=3,
        )
        assert rep.constants["qualifying"] == 1
        assert [row["i"] for row in rep.rows] == [8, 20, 52]
        assert [row["k"] for row in rep.rows] == [2, 4, 6]
        for n, row in enumerate(rep.rows, start=1):
            assert row["bound"] == pytest.approx((8 / 7) ** n * 4)
        assert rep.passed and rep.constants["found"]

    def test_fib_search_finds_exponent(self, fib_setup, fib_inv_rose):
        f, filt, met = fib_setup
        family = canonical_circuit(f.graph, (1, -2) * 4)
        rep = validate_backgrowth(
            f, fib_inv_rose, [family], L0=12.0, n_max=3,
        )
        assert rep.constants["M"] == 2
        assert rep.constants["found"]

    def test_rel_relative_family(self, rel_setup, rel_inv_rose):
        f, filt, met = rel_setup
        family = canonical_circuit(f.graph, (2, -3) * 5)
        rep = validate_backgrowth(
            f, rel_inv_rose, [family], L0=12.0, r=2, n_max=3,
        )
        assert rep.constants["M"] == 2
        assert [row["ir"] for row in rep.rows] == [10, 25, 65]

    def test_vacuous_sample_reports_zero_qualifying(
        self, fib_setup, fib_inv_rose
    ):
        # a legal circuit never meets the i >= 4 precondition
        f, filt, met = fib_setup
        rep = validate_backgrowth(
            f, fib_inv_rose, [(1, 2)], L0=12.0,
        )
        assert rep.constants["qualifying"] == 0
        assert rep.rows == []


class TestTrichotomy:
    def test_legal_path_grows(self, fib_setup):
        f, filt, met = fib_setup
        v = trichotomy_classify(f, (1, 1, 1, 1), M=1, L=3.0)
        assert v.case == "long-legal-segment"
        assert v.witness["segment_length"] > 3.0

    def test_cancellation_kills_a_turn(self, fib_setup):
        f, filt, met = fib_setup
        v = trichotomy_classify(f, (-1, 2), M=1, L=10.0)
        assert v.case == "fewer-illegal-turns"
        assert v.witness == {"before": 1, "after": 0, "M": 1}

    def test_inp_splits(self, fib_setup):
        f, filt, met = fib_setup
        v = trichotomy_classify(f, INP, M=1, L=4.0)
        assert v.case == "pre-nielsen-splitting"
        assert v.witness["tau1"] == ()
        assert v.witness["tau2"] == ()
        assert v.witness["pieces"] == [INP]

    def test_m_validation(self, fib_setup):
        f, filt, met = fib_setup
        with pytest.raises(ValueError):
            trichotomy_classify(f, (1,), M=0, L=3.0)

    @pytest.mark.parametrize("name", ["fib", "plas"])
    def test_sampled_paths_always_resolve(self, request, name, rng):
        f = rose_of(request.getfixturevalue(name))
        filt = compute_filtration(f)
        met = assign_metric(filt)
        for _ in range(40):
            p = random_tight_path(f.graph, 10, rng)
            v = trichotomy_classify(f, p, M=12, L=12.0)
            assert v.case != "unresolved", p


class TestDecomposition:
    def test_legal_circuit(self, fib_setup):
        f, filt, met = fib_setup
        rep = growth_decomposition((1, 2), 2.0, filt)
        assert rep.case == "legal-or-sparse"
        assert rep.fraction == 1.0
        assert rep.details["i"] == 0

    def test_sparse_keeps_everything(self, fib_setup):
        f, filt, met = fib_setup
        rep = growth_decomposition((1, -2) * 4, 2.0, filt)
        assert rep.case == "legal-or-sparse"
        assert rep.fraction == pytest.approx(1.0)
        assert rep.fraction >= rep.details["lower_bound"] - 1e-9

    def test_many_illegal_turns(self, fib_setup):
        f, filt, met = fib_setup
        rep = growth_decomposition((1, -2) * 4, 6.0, filt)
        assert rep.case == "many-illegal-turns"
        assert rep.fraction == pytest.approx(1.0)
        assert rep.details["i"] == 4

    def test_block_stripping(self, fib_setup):
        # a legal run longer than 6 L0 gets removed, the dense block stays
        f, filt, met = fib_setup
        edges = (1, -2) * 20 + (1,) * 16
        rep = growth_decomposition(edges, 4.0, filt)
        assert rep.case == "many-illegal-turns"
        assert rep.details["removed"] == 1
        assert 0 < rep.fraction < 1
        assert rep.fraction >= 1.0 / (6.0 * 4.0) - 1e-9

    def test_short_circuit(self, fib_setup):
        f, filt, met = fib_setup
        rep = growth_decomposition((1, -2) * 2, 6.0, filt)
        assert rep.case == "short-circuit"
        assert rep.details["L"] < 3 * 6.0

    def test_polynomial_top(self, poly_rose):
        filt = compute_filtration(poly_rose)
        rep = growth_decomposition((2, 1, -2, 1), 3.0, filt)
        assert rep.case == "polynomial-top"
        assert tuple(d for p in rep.pieces for d in p) in (
            (2, 1, -2, 1), (2, -2, 1, 1), (1, 2, 1, -2), (2, 1, 1, -2),
        )

    def test_trivial_circuit_rejected(self, fib_setup):
        f, filt, met = fib_setup
        with pytest.raises(ValueError):
            growth_decomposition((), 2.0, filt)


# the listing oracle takes seconds past these points, so they are left out
_SLOW_LISTINGS = {
    ("ident", 12), ("poly", 12), ("plas", 12),
    ("broken", 10), ("broken", 12), ("rel", 10), ("rel", 12),
}


class TestVerdicts:
    """Each validator's passed is the verdict that validate exits on."""

    def test_bcc_fails_when_unstable(self, fib_setup):
        f, filt, met = fib_setup
        assert validate_bcc(f).passed
        rep = validate_bcc(f, pair_len_bound=1)
        assert not rep.passed
        assert rep.rows == []
        assert rep.constants["stable"] is False and rep.constants["window"] == 1

    def test_backgrowth_fails_when_no_exponent_works(self, fib_setup, fib_inv_rose):
        # the alternating family needs M = 2, so a search to 1 finds nothing
        f, filt, met = fib_setup
        family = canonical_circuit(f.graph, (1, -2) * 4)
        rep = validate_backgrowth(
            f, fib_inv_rose, [family], L0=12.0, n_max=3, m_search_max=1,
        )
        assert not rep.passed
        assert rep.rows == []
        assert rep.constants["qualifying"] == 1 and not rep.constants["found"]

    def test_backgrowth_passes_vacuously(self, fib_setup, fib_inv_rose):
        f, filt, met = fib_setup
        rep = validate_backgrowth(f, fib_inv_rose, [(1, 2)], L0=12.0)
        assert rep.passed and rep.rows == []
        assert rep.constants["qualifying"] == 0 and not rep.constants["found"]

    def test_tricho_fails_on_unresolved_path(self, fib_setup):
        # a legal path keeps no illegal turn to lose, and with L past the
        # length of its image no case resolves it
        f, filt, met = fib_setup
        rep = validate_tricho(f, [(1, 1, 1, 1), INP], M=1, L=50.0)
        assert not rep.passed
        assert [row["case"] for row in rep.rows] == [
            "unresolved", "pre-nielsen-splitting",
        ]
        assert [row["pass"] for row in rep.rows] == [False, True]
        assert rep.constants == {"unresolved": 1, "M": 1, "L": 50.0}

    def test_decomp_reports_a_bound_violation(self, fib_setup, monkeypatch):
        # a longest short path of 0 puts the legal-or-sparse share's lower
        # bound at 1, which a circuit with an illegal turn cannot meet
        f, filt, met = fib_setup
        monkeypatch.setattr(growth, "_longest_short_path", lambda *a, **k: 0.0)
        rng = random.Random(0)
        circuits = [random_circuit(f.graph, 12, rng) for _ in range(5)]
        rep = validate_decomp(circuits, 3.0, filt)
        assert not rep.passed
        assert len(rep.rows) == 5
        bad = [row for row in rep.rows if row["case"] == "bound-violated"]
        assert bad and not any(row["pass"] for row in bad)
        assert "below" in rep.constants["violation"]
        assert rep.constants["L0"] == 3.0


class TestLongestShortPath:
    @pytest.mark.parametrize(
        ("name", "L0"),
        [
            (name, L0)
            for name in ("ident", "fib", "fib_inverse", "plas", "poly", "broken", "rel")
            for L0 in (4, 6, 8, 10, 12)
            if (name, L0) not in _SLOW_LISTINGS
        ],
    )
    def test_matches_listing_bitwise(self, request, name, L0):
        obj = request.getfixturevalue(name)
        f = obj if isinstance(obj, GraphMap) else rose_of(obj)
        met = f.filtration.metric
        got = _longest_short_path(f.graph, met, L0)
        assert type(got) is float
        assert got == naive_longest_short_path(f.graph, met, L0, _SLACK)

    @pytest.mark.parametrize("name", ["plas", "broken", "rel"])
    def test_slow_listings_stay_below_the_cut(self, request, name):
        # at L0 = 12 the search still reports a path length just below L0
        obj = request.getfixturevalue(name)
        f = obj if isinstance(obj, GraphMap) else rose_of(obj)
        got = _longest_short_path(f.graph, f.filtration.metric, 12)
        assert 11 < got < 12 - _SLACK

    def test_budget_caps_states(self, fib_setup):
        f, filt, met = fib_setup
        with pytest.raises(BudgetExceeded, match="short-path enumeration budget"):
            _longest_short_path(f.graph, met, 12, budget=100)
        assert _longest_short_path(f.graph, met, 12, budget=1000) > 0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    @pytest.mark.parametrize(("name", "max_edges"), [("fib", 8), ("plas", 6)])
    def test_matches_listing_on_drawn_metrics(self, name, max_edges, data):
        # L0 is capped at max_edges shortest edges so the listing stays small
        graph = rose_of(load_fixture(name)).graph
        lengths = {
            e: data.draw(st.floats(0.5, 3.0), label=f"edge {e}")
            for e in range(1, graph.edge_count + 1)
        }
        cap = min(8.0, max_edges * min(lengths.values()))
        L0 = data.draw(st.floats(0.5, cap), label="L0")
        met = Metric(lengths=lengths)
        assert _longest_short_path(graph, met, L0) == naive_longest_short_path(
            graph, met, L0, _SLACK
        )
