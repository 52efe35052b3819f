"""Linear solvers against closed-form oracles (gambler's ruin, toy chains)."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import toy_kernel
from dreidel_lab import kernels, solvers
from dreidel_lab.kernels import ModChainSpec, build_duration_chain, build_game_chain, build_mod_chain, game_chain_start
from dreidel_lab.solvers import (
    HitSolver,
    RestrictedLU,
    SolverError,
    absorption_stats,
    absorption_time_exact,
    certify,
    mean_return_time,
    solve_rational,
)


def dense_rational(rows: list[list], rhs: list) -> list:
    """Gauss-Jordan elimination with exact rational arithmetic on dense
    rows: the oracle for the sparse `solve_rational`."""
    m = len(rows)
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            raise SolverError("singular rational system")
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        pivot_row = a[col]
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                row = a[r]
                a[r] = [v - f * pv for v, pv in zip(row, pivot_row)]
    return [a[r][m] for r in range(m)]


def dense_absorption_time(kernel, start) -> Fraction:
    """(I - Q) t = 1 assembled densely from `Fraction(p)` and solved by
    `dense_rational`."""
    absorbing = kernel.absorbing
    transient_idx = [i for i in range(kernel.n_states) if not absorbing[i]]
    pos = {i: t for t, i in enumerate(transient_idx)}
    m = len(transient_idx)
    rows = [[Fraction(0)] * m for _ in range(m)]
    for t, i in enumerate(transient_idx):
        rows[t][t] += 1
        for j, p in kernel.rows[i]:
            if not absorbing[j]:
                rows[t][pos[j]] -= Fraction(p)
    return dense_rational(rows, [Fraction(1)] * m)[pos[kernel.index[start]]]


def to_dense(rows: list[dict]) -> list[list]:
    return [[Fraction(row.get(j, 0)) for j in range(len(rows))] for row in rows]


def walk_kernel(n, p=0.5, absorbing_ends=True):
    """Simple random walk on 0..n, +1 w.p. p, -1 w.p. 1-p."""
    ends = (0, n) if absorbing_ends else ()
    rows = {}
    for i in range(n + 1):
        if i not in ends:
            lo, hi = max(i - 1, 0), min(i + 1, n)
            rows[i] = {hi: p, lo: 1 - p}
    return toy_kernel(range(n + 1), rows, absorbing=ends)


class TestAbsorption:
    def test_immediate_absorption(self):
        res = absorption_stats(toy_kernel(["t", "a"], {"t": {"a": 1.0}}, absorbing={"a"}), "t")
        assert abs(res.expected_time - 1.0) < 1e-12
        assert abs(res.absorb_prob_from("t", "a") - 1.0) < 1e-12

    def test_symmetric_walk_times(self):
        # E(T) from i on 0..n symmetric walk is i(n-i)
        n = 10
        res = absorption_stats(walk_kernel(n), 5)
        for i in range(1, n):
            assert abs(res.expected_time_from(i) - i * (n - i)) < 1e-9

    def test_walk_absorb_probs(self):
        # ruin probability from i is i/n to reach n
        n = 8
        res = absorption_stats(walk_kernel(n), 3)
        for i in range(1, n):
            assert abs(res.absorb_prob_from(i, n) - i / n) < 1e-10
            assert abs(res.absorb_prob_from(i, 0) - (1 - i / n)) < 1e-10

    def test_game_chain_float_vs_rational(self):
        for n in (1, 2, 3):
            kernel = build_game_chain(n)
            start = game_chain_start(n)
            exact = absorption_time_exact(kernel, start)
            approx = absorption_stats(kernel, start).expected_time
            assert abs(approx - float(exact)) < 1e-10

    def test_rational_is_exact_fraction(self):
        exact = absorption_time_exact(build_game_chain(2), game_chain_start(2))
        assert isinstance(exact, Fraction)
        assert exact > 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_game_chain_matches_dense_oracle(self, n):
        kernel, start = build_game_chain(n), game_chain_start(n)
        assert absorption_time_exact(kernel, start) == dense_absorption_time(kernel, start)

    @pytest.mark.parametrize("n", [9, 10])
    def test_game_chain_float_vs_rational_large(self, n):
        # past criterion 7's n <= 8; the certificate runs inside the solve
        kernel, start = build_game_chain(n), game_chain_start(n)
        exact = absorption_time_exact(kernel, start)
        approx = absorption_stats(kernel, start).expected_time
        assert abs(approx - float(exact)) < 1e-9

    @pytest.mark.parametrize("n", range(1, 9))
    def test_folded_chain_exact_time(self, n):
        # the swap symmetry and the rational solver, certified together
        folded = absorption_time_exact(build_duration_chain(n), (2, n - 1))
        assert folded == absorption_time_exact(build_game_chain(n), game_chain_start(n))

    @pytest.mark.parametrize("n", [9, 10])
    def test_folded_chain_exact_time_large(self, n):
        folded = absorption_time_exact(build_duration_chain(n), (2, n - 1))
        assert abs(float(folded) - absorption_stats(build_game_chain(n), game_chain_start(n)).expected_time) < 1e-9

    def test_non_quarter_probability_is_rejected(self):
        # Fraction(1/3) is the float's binary value, so an "exact" solve of
        # this chain would not give its expected time 3/2
        kernel = toy_kernel(["t", "a"], {"t": {"t": 1 / 3, "a": 2 / 3}}, absorbing={"a"})
        assert abs(absorption_stats(kernel, "t").expected_time - 1.5) < 1e-12
        with pytest.raises(SolverError, match=r"out of state t is not a multiple of 1/4"):
            absorption_time_exact(kernel, "t")


class TestSolveRational:
    def test_small_system(self):
        # x + y = 3, x - y = 1 -> (2, 1)
        rows = [{0: 1, 1: 1}, {0: 1, 1: -1}]
        sol = solve_rational(rows, [3, 1])
        assert sol == [Fraction(2), Fraction(1)]

    def test_singular(self):
        rows = [{0: 1, 1: 1}, {0: 2, 1: 2}]
        with pytest.raises(SolverError, match="singular rational system"):
            solve_rational(rows, [1, 2])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_matches_dense_oracle(self, data):
        # strictly diagonally dominant, hence nonsingular
        m = data.draw(st.integers(1, 8))
        rows = []
        for i in range(m):
            off = data.draw(st.dictionaries(st.integers(0, m - 1), st.integers(-9, 9).filter(bool)))
            off.pop(i, None)
            sign = data.draw(st.sampled_from([-1, 1]))
            rows.append({**off, i: sign * (sum(map(abs, off.values())) + data.draw(st.integers(1, 9)))})
        rhs = data.draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
        assert solve_rational(rows, rhs) == dense_rational(to_dense(rows), [Fraction(b) for b in rhs])

    def test_certificate_rejects_tampered_solution(self):
        rows = [{0: 2, 1: -1}, {0: -1, 1: 2, 2: -1}, {1: -1, 2: 2}]
        x = solve_rational(rows, [4, 4, 4])
        assert x == [6, 8, 6]
        certify(rows, [4, 4, 4], x)
        for i in range(3):
            tampered = list(x)
            tampered[i] += Fraction(1, 10**12)
            with pytest.raises(SolverError, match="certificate"):
                certify(rows, [4, 4, 4], tampered)


class TestHitProb:
    def test_target_is_start(self):
        kernel = walk_kernel(6, absorbing_ends=False)
        assert HitSolver(kernel, frozenset({3}), frozenset({0})).prob(3) == 1.0

    def test_first_step_exempt_from_the_target(self):
        # membership at time 0 is ignored on the target too: from 3 the walk
        # steps to 2 (then 2/3) or to 4 (then 1, since 0 lies beyond 3)
        kernel = walk_kernel(6, absorbing_ends=False)
        p = HitSolver(kernel, frozenset({3}), frozenset({0})).prob(3, first_step_exempt=True)
        assert abs(p - 5 / 6) < 1e-12

    def test_start_in_avoid(self):
        kernel = walk_kernel(6, absorbing_ends=False)
        assert HitSolver(kernel, frozenset({6}), frozenset({0})).prob(0) == 0.0

    def test_gamblers_ruin_closed_form(self):
        n = 12
        kernel = walk_kernel(n, absorbing_ends=False)
        solver = HitSolver(kernel, frozenset({n}), frozenset({0}))
        for i in range(1, n):
            assert abs(solver.prob(i) - i / n) < 1e-10

    def test_biased_ruin_closed_form(self):
        n, p = 9, 0.3
        r = (1 - p) / p
        kernel = walk_kernel(n, p=p, absorbing_ends=False)
        solver = HitSolver(kernel, frozenset({n}), frozenset({0}))
        for i in range(1, n):
            expect = (1 - r**i) / (1 - r**n)
            assert abs(solver.prob(i) - expect) < 1e-10

    def test_first_step_exempt(self):
        # start on the avoid state but ignore membership at time 0:
        # the symmetric walk from 0 steps to 1 w.p. 1/2 (else stays dead at 0...
        # walk reflects? no: from 0 non-absorbing walk goes to max(0-1,0)=0 w.p. 1/2)
        n = 6
        kernel = walk_kernel(n, absorbing_ends=False)
        solver = HitSolver(kernel, frozenset({n}), frozenset({0}))
        p = solver.prob(0, first_step_exempt=True)
        # one step: to 1 w.p. 1/2 (then 1/n), or back to 0 w.p. 1/2 (then 0)
        assert abs(p - 0.5 * (1 / n)) < 1e-10

    def test_overlap_rejected(self):
        kernel = walk_kernel(6, absorbing_ends=False)
        with pytest.raises(ValueError, match="overlap"):
            HitSolver(kernel, frozenset({2}), frozenset({2}))

    def test_complementarity_on_walk(self):
        kernel = walk_kernel(10, absorbing_ends=False)
        a = HitSolver(kernel, frozenset({10}), frozenset({0}))
        b = HitSolver(kernel, frozenset({0}), frozenset({10}))
        for i in range(1, 10):
            assert abs(a.prob(i) + b.prob(i) - 1.0) < 1e-10


class TestMeanReturn:
    def test_two_state(self):
        # a -> b w.p. 1, b -> a w.p. 1: return time 2
        kernel = toy_kernel("ab", {"a": {"b": 1.0}, "b": {"a": 1.0}})
        assert abs(mean_return_time(RestrictedLU(kernel, {"a"})) - 2.0) < 1e-12

    def test_lazy_state(self):
        # stay w.p. 1/2: stationary uniform, return time = 2
        kernel = toy_kernel("ab", {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.5, "b": 0.5}})
        assert abs(mean_return_time(RestrictedLU(kernel, {"a"})) - 2.0) < 1e-12


@lru_cache(maxsize=None)
def _small_mod_chain(n, flavor):
    return build_mod_chain(ModChainSpec(n=n, p_max=4 * n, flavor=flavor))


class TestRestrictedLU:
    def test_solver_error_is_shared(self):
        assert kernels.SolverError is solvers.SolverError

    def test_singular_boundary_is_solver_error(self):
        # "c" is a closed class off the boundary {a, b}, so I - Q is singular
        kernel = toy_kernel("abc", {"a": {"b": 0.5, "c": 0.5}, "b": {"a": 1.0}, "c": {"c": 1.0}})
        with pytest.raises(SolverError, match=r"boundary \{a, b\}"):
            HitSolver(kernel, frozenset({"b"}), frozenset({"a"}))

    def test_harmonic_is_hit_solver(self):
        kernel = walk_kernel(9, p=0.3, absorbing_ends=False)
        h = RestrictedLU(kernel, {0, 9}).harmonic({9})
        assert (h == HitSolver(kernel, frozenset({9}), frozenset({0})).values).all()

    def test_green_closed_form(self):
        # symmetric walk killed at 0 and n: G(x, a) = 2 min(x, a) (n - max(x, a)) / n
        n = 10
        lu = RestrictedLU(walk_kernel(n), {0, n})
        for a in range(1, n):
            g = lu.green(a)
            for x in range(n + 1):
                assert abs(g[x] - 2 * min(x, a) * (n - max(x, a)) / n) < 1e-10

    def test_reordered_solves_match_dense(self):
        # a one-way cycle with shortcuts: not symmetric, and RCM reorders it
        m = 9
        rows = {i: {} for i in range(m)}
        for i in range(m):
            for j, q in (((i + 1) % m, 0.5), ((3 * i + 2) % m, 0.25), (0, 0.25)):
                rows[i][j] = rows[i].get(j, 0.0) + q
        kernel = toy_kernel(range(m), rows)
        lu = RestrictedLU(kernel, {0, 4})
        assert (lu.order != np.arange(lu.unknown.size)).any()
        p = kernel.csr.toarray()
        u = lu.unknown
        a = np.eye(u.size) - p[np.ix_(u, u)]
        rhs = np.arange(1.0, u.size + 1)
        assert np.allclose(lu.solve(rhs), np.linalg.solve(a, rhs), rtol=1e-12, atol=0)
        h = np.linalg.solve(a, p[u, 4])
        assert np.allclose(lu.harmonic({4})[u], h, rtol=1e-12, atol=0)
        g = np.linalg.inv(a)
        for j, state in enumerate(u):
            assert np.allclose(lu.green(state)[u], g[:, j], rtol=1e-12, atol=0)

    def test_green_rejects_boundary_state(self):
        with pytest.raises(ValueError):
            RestrictedLU(walk_kernel(4), {0, 4}).green(0)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 4), flavor=st.sampled_from(["game", "formal"]), anywhere=st.booleans(),
           data=st.data())
    def test_green_ratio_is_hit_probability(self, n, flavor, anywhere, data):
        # P_x(tau_a < tau_b) = G_b(x, a) / G_b(a, a) on small mod chains.  On
        # pot-2 states, where the bound tables and identity checks query, the
        # two routes agree to rounding.  Elsewhere (I - Q) can have condition
        # numbers near 4e7 at these caps, and both float routes then sit up
        # to ~1e-9 from a long-double-refined solution.
        kernel = _small_mod_chain(n, flavor)
        pool = kernel.states if anywhere else [s for s in kernel.states if s[0] == 2]
        x, a, b = data.draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3, unique=True))
        g = RestrictedLU(kernel, {b}).green(a)
        want = HitSolver(kernel, frozenset({a}), frozenset({b})).prob(x)
        assert abs(g[kernel.index[x]] / g[kernel.index[a]] - want) < (1e-8 if anywhere else 1e-12)


class TestLowRankUpdate:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 4), flavor=st.sampled_from(["game", "formal"]), inside=st.booleans(),
           data=st.data())
    def test_update_matches_fresh_factorization(self, n, flavor, inside, data):
        # a factorization off R reaches the boundary B by a rank-|B delta R|
        # update; pot-2 states, where the bound tables and identity checks query
        kernel = _small_mod_chain(n, flavor)
        pool = [s for s in kernel.states if s[0] == 2]
        boundary = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        if inside:
            base_boundary = data.draw(st.lists(st.sampled_from(boundary), min_size=1, unique=True))
        else:
            rest = [s for s in pool if s not in boundary]
            base_boundary = data.draw(st.lists(st.sampled_from(rest), min_size=1, max_size=3, unique=True))
        base = RestrictedLU(kernel, base_boundary)
        got = RestrictedLU(kernel, boundary, base=base)
        want = RestrictedLU(kernel, boundary)
        target = {boundary[0]}
        assert np.abs(got.harmonic(target) - want.harmonic(target)).max() < 1e-12
        state = data.draw(st.sampled_from([s for s in pool if s not in boundary]))
        g, h = got.green(state), want.green(state)
        assert np.abs(g - h).max() < 1e-12 * max(1.0, np.abs(h).max())

    def test_empty_boundary_is_solver_error(self):
        kernel = _small_mod_chain(3, "game")
        base = RestrictedLU(kernel, {kernel.states[0]})
        with pytest.raises(SolverError) as exc:
            RestrictedLU(kernel, set(), base=base)
        assert "empty boundary" in str(exc.value) and "\n" not in str(exc.value)

    def test_singular_capacitance_is_solver_error(self):
        # "c" is a closed class off the boundary {a, b}: I - Q is singular there
        kernel = toy_kernel("abc", {"a": {"b": 0.5, "c": 0.5}, "b": {"a": 1.0}, "c": {"c": 1.0}})
        base = RestrictedLU(kernel, {"a", "c"})
        with pytest.raises(SolverError, match=r"boundary \{a, b\}: singular capacitance"):
            RestrictedLU(kernel, {"a", "b"}, base=base)

    def test_base_of_another_kernel_rejected(self):
        base = RestrictedLU(walk_kernel(9, p=0.3, absorbing_ends=False), {0, 9})
        with pytest.raises(ValueError, match="another kernel"):
            RestrictedLU(walk_kernel(9, p=0.3, absorbing_ends=False), {0, 9}, base=base)

    def test_base_that_is_an_update_rejected(self):
        kernel = walk_kernel(9, p=0.3, absorbing_ends=False)
        update = RestrictedLU(kernel, {0, 5}, base=RestrictedLU(kernel, {0, 9}))
        with pytest.raises(ValueError, match="itself an update"):
            RestrictedLU(kernel, {0, 7}, base=update)

    def test_base_boundary_itself_is_the_base(self):
        kernel = walk_kernel(9, p=0.3, absorbing_ends=False)
        base = RestrictedLU(kernel, {0, 9})
        same = RestrictedLU(kernel, {0, 9}, base=base)
        assert np.abs(same.harmonic({9}) - base.harmonic({9})).max() < 1e-15
