import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kstickets.ksstat import (
    Sample,
    ks_critical_value,
    ks_pvalue_asymptotic,
    ks_statistic,
    ks_tau,
    ks_two_sample_test,
)
from oracles import (
    brute_force_ks,
    exact_equal_size_pvalue,
    ks_pvalue_permutation,
    ks_statistic_rows,
    tau_from_pvalue_inversion,
)


def float_sweep_ks(a: np.ndarray, b: np.ndarray) -> float:
    """D as the float sweep max |count_a/n - count_b/m| over the merged
    values: two rounded quotients, then their rounded difference."""
    return max(
        abs(np.count_nonzero(a <= x) / a.size - np.count_nonzero(b <= x) / b.size)
        for x in np.concatenate([a, b])
    )


finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
small_samples = st.lists(finite_floats, min_size=1, max_size=64)
power_of_two_samples = st.sampled_from([1, 2, 4, 8, 16, 32, 64]).flatmap(
    lambda n: st.lists(finite_floats, min_size=n, max_size=n)
)


class TestSample:
    def test_sorted_on_construction(self):
        s = Sample([3.0, 1.0, 2.0, 2.0])
        assert s.values.tolist() == [1.0, 2.0, 2.0, 3.0]
        assert s.n == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty sample"):
            Sample([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Sample([1.0, bad])


class TestKsStatistic:
    def test_identical(self):
        s = Sample([0.0, 1.0])
        assert ks_statistic(s, s) == 0.0

    def test_disjoint(self):
        assert ks_statistic(Sample([1.0, 2.0]), Sample([3.0, 4.0])) == 1.0

    def test_interleaved(self):
        a = Sample([0.1, 0.4, 0.7])
        b = Sample([0.2, 0.5, 0.9])
        assert ks_statistic(a, b) == pytest.approx(1 / 3)

    @given(small_samples, small_samples)
    def test_matches_brute_force_exactly(self, xs, ys):
        a, b = Sample(xs), Sample(ys)
        assert ks_statistic(a, b) == brute_force_ks(a.values, b.values)

    @given(small_samples, small_samples)
    def test_within_one_float_step_of_the_float_sweep(self, xs, ys):
        # the float sweep rounds two quotients and their difference, k/(n*m)
        # is rounded once: together at most 2**-52 apart for D <= 1
        a, b = Sample(xs), Sample(ys)
        assert abs(ks_statistic(a, b) - float_sweep_ks(a.values, b.values)) <= 2.0**-52

    @given(power_of_two_samples, power_of_two_samples)
    def test_equals_the_float_sweep_at_powers_of_two(self, xs, ys):
        # c/2**p is exact, and so is the difference of two such quotients
        a, b = Sample(xs), Sample(ys)
        assert ks_statistic(a, b) == float_sweep_ks(a.values, b.values)

    @given(small_samples, small_samples)
    def test_symmetry(self, xs, ys):
        a, b = Sample(xs), Sample(ys)
        assert ks_statistic(a, b) == ks_statistic(b, a)

    @given(small_samples)
    def test_self_distance_zero(self, xs):
        s = Sample(xs)
        assert ks_statistic(s, s) == 0.0

    @given(
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
        st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_affine_invariance(self, xs, ys, scale, shift):
        # rank statistic: a positive affine map of both samples changes nothing
        a, b = Sample(xs), Sample(ys)
        a2 = Sample(scale * a.values + shift)
        b2 = Sample(scale * b.values + shift)
        assert ks_statistic(a2, b2) == ks_statistic(a, b)


class TestKsStatisticRows:
    @pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (3, 5), (64, 64), (7, 768)])
    def test_matches_ks_statistic_bytes(self, n, m):
        # quantised values force long tie runs across and within the halves;
        # -0.0 and 0.0 are one value to both implementations
        rng = np.random.default_rng(n * 1000 + m)
        levels = np.array([-2.0, -0.5, -0.0, 0.0, 0.25, 0.5, 3.0])
        a = rng.choice(levels, (40, n))
        b = rng.choice(levels, (40, m))
        a[:5] = rng.normal(size=(5, n))
        b[5:10] = rng.normal(size=(5, m))
        got = ks_statistic_rows(a, b)
        want = np.array([ks_statistic(Sample(x), Sample(y)) for x, y in zip(a, b)])
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @given(
        st.integers(1, 11),
        st.lists(st.lists(st.integers(-3, 3), min_size=12, max_size=12), min_size=1, max_size=6),
    )
    def test_matches_ks_statistic_on_small_integers(self, n, rows):
        # each row splits into halves of n and 12 - n values
        values = np.array(rows, dtype=float)
        a, b = values[:, :n], values[:, n:]
        got = ks_statistic_rows(a, b)
        assert got.tolist() == [ks_statistic(Sample(x), Sample(y)) for x, y in zip(a, b)]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="finite"):
            ks_statistic_rows([[0.0, np.inf]], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="empty"):
            ks_statistic_rows(np.zeros((2, 0)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="2-D"):
            ks_statistic_rows(np.zeros((2, 3)), np.zeros((3, 3)))
        assert ks_statistic_rows(np.zeros((0, 3)), np.zeros((0, 3))).shape == (0,)


class TestCriticalValue:
    def test_reference_values(self):
        assert ks_critical_value(0.05, 4096, 4096) == pytest.approx(
            0.030010, abs=1e-6
        )
        assert ks_critical_value(0.05, 8, 8) == pytest.approx(0.679051, abs=1e-6)

    def test_monotone_in_alpha(self):
        assert ks_critical_value(0.999, 100, 100) < ks_critical_value(0.05, 100, 100)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            ks_critical_value(alpha, 10, 10)

    def test_ks_tau_convention(self):
        assert ks_tau(1.0, 64) == 0.0
        assert ks_tau(0.05, 64) == ks_critical_value(0.05, 64, 64)
        with pytest.raises(ValueError):
            ks_tau(0.0, 64)

    @pytest.mark.parametrize("alpha, d, match", [
        (0.0, 64, r"alpha must be in \(0, 1\], got 0.0"),
        (1.5, 64, r"alpha must be in \(0, 1\], got 1.5"),
        (float("nan"), 64, r"alpha must be in \(0, 1\], got nan"),
        (0.05, 1, "d must be >= 2"),
        (1.0, 1, "d must be >= 2"),
    ])
    def test_ks_tau_domain(self, alpha, d, match):
        # the one home of the alpha and d checks for selection and certification
        with pytest.raises(ValueError, match=match):
            ks_tau(alpha, d)

    def test_closed_form_matches_reference_table(self):
        # c(alpha) for the classic table rows, 4 significant digits
        table = {0.10: 1.224, 0.05: 1.358, 0.025: 1.480, 0.01: 1.628, 0.001: 1.949}
        for alpha, c in table.items():
            got = ks_critical_value(alpha, 2, 2)  # sqrt((n+m)/(n*m)) = 1
            assert got == pytest.approx(c, abs=5e-4)


class TestAsymptoticPvalue:
    def test_zero_statistic(self):
        assert ks_pvalue_asymptotic(0.0, 100, 100) == 1.0

    def test_lambda_one(self):
        # n = m = 2 makes sqrt(nm/(n+m)) = 1, so statistic 1 gives lambda 1
        assert ks_pvalue_asymptotic(1.0, 2, 2) == pytest.approx(0.27000, abs=1e-4)

    def test_huge_lambda_vanishes(self):
        assert ks_pvalue_asymptotic(1.0, 1000, 1000) < 1e-12

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=2, max_value=4096),
    )
    def test_monotone_non_increasing(self, s1, s2, n):
        # tolerance 2.5e-12 is the documented series-truncation accuracy
        lo, hi = sorted([s1, s2])
        assert ks_pvalue_asymptotic(hi, n, n) <= ks_pvalue_asymptotic(lo, n, n) + 2.5e-12

    @pytest.mark.parametrize("n,m", [(2, 2), (64, 64), (256, 256), (100, 37)])
    def test_monotone_on_dense_grid(self, n, m):
        grid = np.linspace(0.0, 1.0, 2001)
        ps = [ks_pvalue_asymptotic(float(s), n, m) for s in grid]
        assert all(ps[i + 1] <= ps[i] for i in range(len(ps) - 1))

    def test_domain(self):
        with pytest.raises(ValueError):
            ks_pvalue_asymptotic(1.5, 10, 10)


class TestPermutationPvalue:
    def test_identical_samples_high_p(self):
        s = Sample([1.0, 2.0, 3.0, 4.0])
        assert ks_pvalue_permutation(s, s, 2000, seed=3) > 0.1

    def test_enumerable_case(self):
        # all C(4,2)=6 equal splits of {1,2,3,4}: only two reach D=1
        p = ks_pvalue_permutation(Sample([1, 2]), Sample([3, 4]), 10000, seed=11)
        assert abs(p - 1 / 3) <= 0.03

    def test_deterministic(self):
        a = Sample([0.3, 1.2, -0.5, 2.2])
        b = Sample([0.0, 0.9, 1.4])
        p1 = ks_pvalue_permutation(a, b, 500, seed=42)
        p2 = ks_pvalue_permutation(a, b, 500, seed=42)
        assert p1 == p2

    def test_trials_domain(self):
        with pytest.raises(ValueError):
            ks_pvalue_permutation(Sample([1.0]), Sample([2.0]), 0, seed=0)

    @settings(max_examples=10)
    @given(st.integers(0, 2**31))
    def test_never_zero(self, seed):
        p = ks_pvalue_permutation(Sample([1, 2]), Sample([30, 40]), 50, seed)
        assert p > 0.0

    def test_tracks_asymptotic_at_moderate_n(self):
        rng = np.random.default_rng(5)
        for shift in (0.0, 0.15, 0.3):
            x = rng.normal(0.0, 1.0, 256)
            y = rng.normal(shift, 1.0, 256)
            a, b = Sample(x), Sample(y)
            asym = ks_pvalue_asymptotic(ks_statistic(a, b), 256, 256)
            perm = ks_pvalue_permutation(a, b, 20000, seed=9)
            assert abs(asym - perm) <= 0.03


def assert_within_4_sd(estimate: float, p: float, trials: int) -> None:
    """The estimate (1 + hits) / (trials + 1) against its mean and SD under p."""
    mean = (1 + trials * p) / (trials + 1)
    sd = math.sqrt(trials * p * (1 - p)) / (trials + 1)
    assert abs(estimate - mean) <= 4 * sd, (estimate, p)


def shifted_grid(k: int, d: int) -> tuple[Sample, Sample]:
    """Two tie-free samples of size d whose statistic is exactly k/d."""
    return Sample(np.arange(d)), Sample(np.arange(d) + k - 0.5)


class TestPermutationMatchesExactNull:
    @pytest.mark.parametrize("d,k", [(5, 2), (16, 5), (32, 10), (64, 13)])
    def test_equal_size_no_ties(self, d, k):
        a, b = shifted_grid(k, d)
        assert ks_statistic(a, b) == k / d
        p = exact_equal_size_pvalue(k, d)
        assert_within_4_sd(ks_pvalue_permutation(a, b, 50_000, seed=d), p, 50_000)

    @pytest.mark.parametrize("d,k", [(5, 2), (16, 5), (32, 10), (64, 13)])
    def test_exact_null_matches_scipy(self, d, k):
        stats = pytest.importorskip("scipy.stats")
        a, b = shifted_grid(k, d)
        want = stats.ks_2samp(a.values, b.values, method="exact").pvalue
        assert abs(exact_equal_size_pvalue(k, d) - want) <= 1e-16

    def test_tied_pool_matches_full_enumeration(self):
        a, b = Sample([0, 0, 1, 2, 2]), Sample([1, 1, 2, 3, 3])
        observed = ks_statistic(a, b)
        pool = np.concatenate([a.values, b.values])
        splits = list(itertools.combinations(range(10), 5))
        assert len(splits) == 252
        hits = 0
        for chosen in splits:
            mask = np.zeros(10, dtype=bool)
            mask[list(chosen)] = True
            hits += ks_statistic(Sample(pool[mask]), Sample(pool[~mask])) >= observed
        assert 0 < hits < 252
        assert_within_4_sd(ks_pvalue_permutation(a, b, 50_000, seed=5), hits / 252, 50_000)

    def test_memory_is_linear_in_trials(self):
        # a (trials, n+m) membership matrix alone would be 10 MB of bools
        rng = np.random.default_rng(0)
        a, b = Sample(rng.normal(size=256)), Sample(rng.normal(0.2, size=256))
        tracemalloc.start()
        try:
            ks_pvalue_permutation(a, b, 20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


# ks_tau's true size at n = m = d, against the exact equal-size null. On each
# grid point, k_tau is the first k with k/d > ks_tau(alpha, d) (None: tau
# never rejects), and k_exact the first k >= 1 with exact P(D >= k/d) <= alpha.
TAU_GRID_D = (2, 3, 4, 5, 8, 16, 32, 64, 100, 128, 256, 512, 768)
TAU_GRID_ALPHA = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9)
# (d, alpha): (k_tau, k_exact), wherever the two differ
TAU_OFF_EXACT = {
    (4, 0.75): (2, 3), (5, 0.01): (None, 5), (16, 0.001): (12, 11), (32, 0.01): (14, 13),
    (32, 0.9): (6, 5), (64, 0.001): (23, 22), (64, 0.9): (8, 7), (100, 0.01): (24, 23),
    (128, 0.75): (12, 11), (128, 0.9): (11, 10), (256, 0.9): (15, 13), (512, 0.75): (23, 22),
    (512, 0.9): (21, 19), (768, 0.75): (28, 27), (768, 0.9): (25, 23),
}


def first_k(rejects, d: int) -> int | None:
    """The first k in 1..d for which rejects(k), or None."""
    return next((k for k in range(1, d + 1) if rejects(k)), None)


@functools.cache
def true_size_table() -> dict:
    """(d, alpha) -> (k_tau, k_exact) on the whole grid."""
    size = functools.cache(exact_equal_size_pvalue)
    return {(d, alpha): (first_k(lambda k: k / d > ks_tau(alpha, d), d),
                         first_k(lambda k: size(k, d) <= alpha, d))
            for d in TAU_GRID_D for alpha in TAU_GRID_ALPHA}


class TestTauTrueSize:
    def test_tau_and_the_exact_null_differ_at_15_points(self):
        table = true_size_table()
        assert len(table) == 104
        assert {at: ks for at, ks in table.items() if ks[0] != ks[1]} == TAU_OFF_EXACT

    def test_tau_is_anti_conservative_only_at_d4_alpha_075(self):
        over = {(d, alpha): exact_equal_size_pvalue(k_tau, d)
                for (d, alpha), (k_tau, _) in true_size_table().items()
                if k_tau is not None and exact_equal_size_pvalue(k_tau, d) > alpha}
        assert over.keys() == {(4, 0.75)}
        assert over[4, 0.75] == pytest.approx(0.7714, abs=5e-5)

    def test_tau_never_rejects_at_d5_alpha_001(self):
        # tau(0.01, 5) > 1 = the largest D, yet D = 5/5 has exact size 2/252
        assert ks_tau(0.01, 5) > 1
        assert exact_equal_size_pvalue(5, 5) == pytest.approx(2 / 252, rel=1e-15)
        assert true_size_table()[5, 0.01] == (None, 5)

    @pytest.mark.parametrize("d, alpha, k, size", [(64, 0.05, 16, 0.0362), (768, 0.25, 40, 0.2487)])
    def test_tau_and_the_exact_null_agree(self, d, alpha, k, size):
        assert true_size_table()[d, alpha] == (k, k)
        assert exact_equal_size_pvalue(k, d) == pytest.approx(size, abs=5e-5)


class TestTwoSampleTest:
    def test_identical(self):
        s = Sample([1.0, 2.0, 3.0])
        res = ks_two_sample_test(s, s, 0.05)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.reject

    def test_tiny_samples_cannot_reject(self):
        # n = m = 2 puts tau above 1, so even disjoint supports stay accepted
        res = ks_two_sample_test(Sample([1, 2]), Sample([3, 4]), 0.05)
        assert res.statistic == 1.0
        assert res.tau == pytest.approx(1.358102, abs=1e-5)
        assert not res.reject

    def test_disjoint_n64_rejects(self):
        a = Sample(np.arange(1, 65, dtype=float))
        b = Sample(np.arange(101, 165, dtype=float))
        res = ks_two_sample_test(a, b, 0.05)
        assert res.statistic == 1.0
        assert res.tau == pytest.approx(0.240071, abs=1e-5)
        assert res.reject

    def test_alpha_one_rejects_every_change(self):
        # ks_tau's convention tau(1) = 0, at any sample sizes
        res = ks_two_sample_test(Sample([1, 2, 3]), Sample([1, 2, 4]), 1.0)
        assert res.tau == 0.0 and res.reject
        assert not ks_two_sample_test(Sample([1, 2]), Sample([2, 1, 1, 2]), 1.0).reject

    @pytest.mark.parametrize("alpha", [0.0, 1.5, float("nan")])
    def test_alpha_domain_is_ks_taus(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
            ks_two_sample_test(Sample([1, 2, 3]), Sample([1, 2, 4]), alpha)

    def test_reject_flag_consistent(self):
        res = ks_two_sample_test(Sample([1, 2, 3]), Sample([1.5, 2.5, 9]), 0.2)
        assert res.reject == (res.statistic > res.tau)

    @given(
        st.lists(finite_floats, min_size=8, max_size=40),
        st.lists(finite_floats, min_size=8, max_size=40),
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_reject_monotone_in_alpha(self, xs, ys, alpha1, alpha2):
        lo, hi = sorted([alpha1, alpha2])
        a, b = Sample(xs), Sample(ys)
        if ks_two_sample_test(a, b, lo).reject:
            assert ks_two_sample_test(a, b, hi).reject


class TestTauInversion:
    @pytest.mark.parametrize("d", [256, 1024, 4096])
    def test_agrees_with_closed_form(self, d):
        inv = tau_from_pvalue_inversion(0.05, d, d)
        closed = ks_critical_value(0.05, d, d)
        assert abs(inv - closed) / closed < 0.05

    def test_value_at_4096(self):
        assert tau_from_pvalue_inversion(0.05, 4096, 4096) == pytest.approx(
            0.0300, abs=0.0015
        )

    def test_monotone_in_alpha(self):
        assert tau_from_pvalue_inversion(0.01, 512, 512) > tau_from_pvalue_inversion(
            0.05, 512, 512
        )

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            tau_from_pvalue_inversion(alpha, 512, 512)

    def test_unreachable_alpha_errors(self):
        # n = m = 1: even D = 1 keeps the asymptotic p-value near 0.7
        with pytest.raises(ValueError, match="no statistic"):
            tau_from_pvalue_inversion(0.05, 1, 1)
