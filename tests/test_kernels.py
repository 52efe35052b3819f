"""Markov kernels: construction rules, row-stochasticity, diagnostics."""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import mod_chain_step, toy_kernel
import dreidel_lab
from dreidel_lab.game import GameConfig, GameState, apply_spin
from dreidel_lab.kernels import (
    GAME_OVER,
    P_LOSS_1,
    P_LOSS_2,
    ModChainSpec,
    SolverError,
    SparseKernel,
    build_duration_chain,
    build_game_chain,
    build_mod_chain,
    build_pot_chain,
    diagnostics,
    game_chain_start,
    matrix_period,
)
from dreidel_lab.rng import GANZ, HALB, NISHT, SHTEL
from dreidel_lab.solvers import absorption_stats


class TestGameChain:
    def test_start(self):
        assert game_chain_start(5) == (2, 4, 1)

    def test_n1_shtel_absorbs(self):
        kernel = build_game_chain(1)
        succ = dict(kernel.successors((2, 0, 1)))
        assert succ[P_LOSS_1] == 0.25  # P1 cannot pay the Shtel

    def test_row_sums(self):
        kernel = build_game_chain(4)
        kernel.validate()

    def test_state_count_bound(self):
        kernel = build_game_chain(2)
        assert kernel.n_states <= (2 * 2 + 1) ** 2 * 2

    def test_conservation_of_states(self):
        kernel = build_game_chain(3)
        for s in kernel.states:
            if isinstance(s, tuple) and len(s) == 3 and s not in (P_LOSS_1, P_LOSS_2):
                x, y, z = s
                assert 1 <= x and 0 <= y and x + y <= 6 and z in (1, 2)

    def test_ganz_example(self):
        # from (3, 4, 1) with n=5: P1 takes 3, both ante -> (2, 6, 2)
        kernel = build_game_chain(5)
        succ = dict(kernel.successors((3, 4, 1)))
        assert succ[(2, 6, 2)] == 0.25


class TestPotChain:
    def test_successors_from_five(self):
        kernel = build_pot_chain(200)
        assert dict(kernel.successors(5)) == {2: 0.25, 3: 0.25, 5: 0.25, 6: 0.25}

    def test_halb_from_one(self):
        kernel = build_pot_chain(10)
        succ = dict(kernel.successors(1))
        assert succ[1] == 0.5  # Halb keeps 1, Nisht keeps 1

    def test_cap_self_loop(self):
        kernel = build_pot_chain(10)
        succ = dict(kernel.successors(10))
        assert succ[10] == 0.5  # Nisht plus the truncated Shtel

    def test_too_small_cap(self):
        with pytest.raises(ValueError):
            build_pot_chain(3)

    def test_ergodic(self):
        diag = diagnostics(build_pot_chain(64))
        assert diag.irreducible and diag.period == 1

    def test_stationary_consistency(self):
        kernel = build_pot_chain(64)
        diag = diagnostics(kernel, compute_stationary=True)
        i = kernel.index[2]
        assert abs(diag.mean_return[i] * diag.stationary[i] - 1.0) < 1e-8


class TestModChain:
    def test_lambda(self):
        spec = ModChainSpec(n=4, p_max=32)
        assert spec.lam == 11 and spec.start == (2, 3, 1)

    def test_formal_shtel(self):
        spec = ModChainSpec(n=4, p_max=32, flavor="formal")
        assert mod_chain_step(spec, (2, 5, 1), SHTEL) == (3, 4, 2)

    def test_formal_lambda_maps(self):
        spec = ModChainSpec(n=4, p_max=32, flavor="formal")
        lam = spec.lam
        x, y = 5, 7
        assert mod_chain_step(spec, (x, y, 1), GANZ) == (2, (y + x - 1) % lam, 2)
        assert mod_chain_step(spec, (x, y, 1), HALB) == (x - x // 2, (y + x // 2) % lam, 2)
        assert mod_chain_step(spec, (x, y, 1), NISHT) == (x, y, 2)
        # formal flavor ignores whose turn it is
        assert mod_chain_step(spec, (x, y, 2), SHTEL) == (x + 1, (y - 1) % lam, 1)

    def test_game_flavor_p2_spin(self):
        spec = ModChainSpec(n=4, p_max=32, flavor="game")
        # P2's Ganz: P1 only pays the ante
        assert mod_chain_step(spec, (5, 7, 2), GANZ) == (2, 6, 1)
        # P2's Halb / Shtel leave P1's stack alone
        assert mod_chain_step(spec, (5, 7, 2), HALB) == (3, 7, 1)
        assert mod_chain_step(spec, (5, 7, 2), SHTEL) == (6, 7, 1)

    def test_z_alternates(self):
        for flavor in ("game", "formal"):
            spec = ModChainSpec(n=3, p_max=16, flavor=flavor)
            for outcome in (NISHT, GANZ, HALB, SHTEL):
                assert mod_chain_step(spec, (4, 2, 1), outcome)[2] == 2
                assert mod_chain_step(spec, (4, 2, 2), outcome)[2] == 1

    def test_period_two(self):
        spec = ModChainSpec(n=3, p_max=16, flavor="formal")
        diag = diagnostics(build_mod_chain(spec))
        assert diag.irreducible and diag.period == 2

    def test_squared_chain_aperiodic_on_z1(self):
        # the two-step chain q_ij = (P^2)_ij on the z = 1 states is aperiodic
        spec = ModChainSpec(n=3, p_max=16, flavor="formal")
        kernel = build_mod_chain(spec)
        idx = [i for i, s in enumerate(kernel.states) if s[2] == 1]
        p2 = (kernel.csr @ kernel.csr).tocsr()[idx, :][:, idx]
        squared = SparseKernel(states=[kernel.states[i] for i in idx], csr=p2, absorbing=np.zeros(len(idx), dtype=bool))
        squared.validate()
        diag = diagnostics(squared)
        assert diag.irreducible and diag.period == 1

    def test_end_states_contain_canonical_target(self):
        spec = ModChainSpec(n=4, p_max=32)
        assert spec.is_end_state((2, 2 * 4 + 1, 2))
        assert not spec.is_end_state(spec.start)

    def test_bad_flavor(self):
        with pytest.raises(ValueError):
            ModChainSpec(n=4, p_max=32, flavor="weird")


class TestDiagnosticsToy:
    def test_two_state_flip(self):
        diag = diagnostics(toy_kernel("ab", {"a": {"b": 1.0}, "b": {"a": 1.0}}))
        assert diag.irreducible and diag.period == 2

    def test_lazy_chain_stationary(self):
        # stay w.p. 1/2 else flip: stationary (1/2, 1/2)
        kernel = toy_kernel("ab", {"a": {"a": 0.5, "b": 0.5}, "b": {"a": 0.5, "b": 0.5}})
        diag = diagnostics(kernel, compute_stationary=True)
        assert diag.period == 1
        assert np.allclose(diag.stationary, [0.5, 0.5], atol=1e-10)

    def test_periodic_chain_stationary_exact(self):
        # a -> b; b -> a or c, 1/2 each; c -> b: period 2, stationary (1/4, 1/2, 1/4)
        kernel = toy_kernel("abc", {"a": {"b": 1.0}, "b": {"a": 0.5, "c": 0.5}, "c": {"b": 1.0}})
        t0 = time.perf_counter()
        diag = diagnostics(kernel, compute_stationary=True)
        assert time.perf_counter() - t0 < 0.1
        assert diag.period == 2
        assert np.abs(diag.stationary - [0.25, 0.5, 0.25]).max() <= 1e-15

    def test_two_closed_classes_is_solver_error(self):
        kernel = toy_kernel("ab", {"a": {"a": 1.0}, "b": {"b": 1.0}})
        with pytest.raises(SolverError, match="exactly singular"):
            diagnostics(kernel, compute_stationary=True)


@pytest.mark.parametrize("x_max", [4, 30, 200, 400])
def test_pot_chain_stationary_is_a_law(x_max):
    diag = diagnostics(build_pot_chain(x_max), compute_stationary=True)
    pi = diag.stationary
    assert (pi >= 0).all() and abs(pi.sum() - 1.0) <= 1e-15 and diag.residual <= 1e-15


def bfs_period(csr: sp.csr_matrix) -> int:
    """Period by a Python search from state 0: the oracle for `matrix_period`."""
    level = np.full(csr.shape[0], -1, dtype=np.int64)
    level[0] = 0
    queue = [0]
    indptr, indices = csr.indptr, csr.indices
    while queue:
        u = queue.pop()
        for j in indices[indptr[u]:indptr[u + 1]]:
            if level[j] < 0:
                level[j] = level[u] + 1
                queue.append(j)
    rows, cols = csr.nonzero()
    seen = (level[rows] >= 0) & (level[cols] >= 0)
    g = int(np.gcd.reduce(np.abs(level[rows[seen]] + 1 - level[cols[seen]])))
    return g if g else 1


@pytest.mark.parametrize("x_max", [4, 20, 200])
def test_pot_chain_period_matches_bfs_oracle(x_max):
    csr = build_pot_chain(x_max).csr
    assert matrix_period(csr) == bfs_period(csr)


@pytest.mark.parametrize("flavor", ["game", "formal"])
@pytest.mark.parametrize("n", range(1, 9))
def test_mod_chain_period_matches_bfs_oracle(n, flavor):
    for cap in (8 * n, 16 * n):
        csr = build_mod_chain(ModChainSpec(n, cap, flavor)).csr
        assert matrix_period(csr) == bfs_period(csr)


def _quarter_rows(step, states) -> dict:
    """{state: {successor: probability}} from a scalar one-spin rule."""
    rows = {}
    for s in states:
        row = rows.setdefault(s, {})
        for outcome in (NISHT, GANZ, HALB, SHTEL):
            t = step(s, outcome)
            row[t] = row.get(t, 0.0) + 0.25
    return rows


def _engine_spin(n, overdraft, state, outcome) -> GameState:
    """The two-player position (pot x, P1 holding y, player z on turn)
    after one spin by the scalar rules engine."""
    x, y, z = state
    before = GameState(GameConfig(2, n, overdraft=overdraft), x, (y, 2 * n - x - y), z - 1, (True, True))
    return apply_spin(before, outcome)[0]


class TestRowsMatchScalarRules:
    """Every CSR row against the successors recomputed state by state."""

    @pytest.mark.parametrize("flavor", ["game", "formal"])
    @pytest.mark.parametrize("n, p_max", [(3, 12), (4, 32)])
    def test_mod_chain(self, n, p_max, flavor):
        spec = ModChainSpec(n=n, p_max=p_max, flavor=flavor)
        kernel = build_mod_chain(spec)
        assert kernel.n_states == p_max * spec.lam * 2
        want = _quarter_rows(lambda s, o: mod_chain_step(spec, s, o), kernel.states)
        assert all(dict(kernel.successors(s)) == want[s] for s in kernel.states)

    @pytest.mark.parametrize("flavor", ["game", "formal"])
    @pytest.mark.parametrize("n, p_max", [(3, 12), (4, 32)])
    def test_mod_chain_matches_apply_spin(self, n, p_max, flavor):
        """Game-flavor rows at real positions (x + y <= 2n) and P1's
        formal-flavor rows, all with the pot below the cap, are real
        overdraft spins with y read mod Lambda."""
        spec = ModChainSpec(n=n, p_max=p_max, flavor=flavor)
        kernel = build_mod_chain(spec)
        if flavor == "game":
            checked = [s for s in kernel.states if s[0] + s[1] <= 2 * n and s[0] < p_max]
        else:
            checked = [s for s in kernel.states if s[2] == 1 and s[0] < p_max]
        assert len(checked) >= n * n

        def step(s, o):
            after = _engine_spin(n, True, s, o)
            return (after.pot, after.stacks[0] % spec.lam, after.turn + 1)

        want = _quarter_rows(step, checked)
        assert all(dict(kernel.successors(s)) == want[s] for s in checked)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_game_chain(self, n):
        """The game chain unfolds the fold's step table `fold_steps`, which
        the duration chain reads too; this is the check of that unfolding,
        every row against `apply_spin`."""
        kernel = build_game_chain(n)
        live = [s for s in kernel.states if s not in (P_LOSS_1, P_LOSS_2)]

        def step(s, o):
            after = _engine_spin(n, False, s, o)
            if after.terminated:
                return P_LOSS_1 if after.winner == 1 else P_LOSS_2
            return (after.pot, after.stacks[0], after.turn + 1)

        want = _quarter_rows(step, live)
        assert kernel.states[:3] == [P_LOSS_1, P_LOSS_2, game_chain_start(n)]
        assert all(dict(kernel.successors(s)) == want[s] for s in live)
        # exactly the states reachable from the start, loss states absorbing
        reached, stack = {game_chain_start(n)}, [game_chain_start(n)]
        while stack:
            for t in want[stack.pop()]:
                if t not in reached and t not in (P_LOSS_1, P_LOSS_2):
                    reached.add(t)
                    stack.append(t)
        assert set(live) == reached
        assert len(live) == 2 * n * (2 * n + 1)  # every (pot >= 1, stack >= 0, pot + stack <= 2n), either turn
        assert kernel.successors(P_LOSS_1) == [] and kernel.absorbing.tolist() == [True, True] + [False] * len(live)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_duration_chain(self, n):
        kernel = build_duration_chain(n)
        live = kernel.states[1:]

        def step(s, o):
            x, a = s
            before = GameState(GameConfig(2, n), x, (a, 2 * n - x - a), 0, (True, True))
            after = apply_spin(before, o)[0]
            return GAME_OVER if after.terminated else (after.pot, after.stacks[after.turn])

        want = _quarter_rows(step, live)
        assert kernel.states[:2] == [GAME_OVER, (2, n - 1)]
        assert all(dict(kernel.successors(s)) == want[s] for s in live)
        # the fold of the game chain's states, which are all reachable
        folded = {(x, y if z == 1 else 2 * n - x - y) for x, y, z in build_game_chain(n).states[2:]}
        assert set(live) == folded
        assert len(live) == n * (2 * n + 1)
        assert kernel.successors(GAME_OVER) == [] and kernel.absorbing.tolist() == [True] + [False] * len(live)

    def test_pot_chain(self):
        x_max = 40
        kernel = build_pot_chain(x_max)
        want = _quarter_rows(lambda x, o: {NISHT: x, GANZ: 2, HALB: x - x // 2, SHTEL: min(x + 1, x_max)}[o],
                             range(1, x_max + 1))
        assert kernel.states == list(range(1, x_max + 1))
        assert all(dict(kernel.successors(x)) == want[x] for x in kernel.states)

    def test_row_view(self):
        kernel = build_pot_chain(10)
        assert len(kernel.rows) == 10
        assert kernel.rows[-1] == kernel.rows[9] == [(1, 0.25), (4, 0.25), (9, 0.5)]  # pot 10: 2, 5, 10
        assert sum(len(r) for r in kernel.rows) == kernel.csr.nnz
        kernel.rows[3] = [(5, 0.5), (0, 0.25), (5, 0.25)]  # duplicates are summed
        assert kernel.rows[3] == [(0, 0.25), (5, 0.75)]
        assert dict(kernel.successors(4)) == {1: 0.25, 6: 0.75}
        assert kernel.rows[2] == [(1, 0.5), (2, 0.25), (3, 0.25)] and kernel.rows[9][-1] == (9, 0.5)
        kernel.validate()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20])
def test_folded_times_match_game_chain(n):
    """The expected remaining duration from every reachable (x, y, z) is
    that of its fold (x, y) or (x, 2n - x - y)."""
    game = absorption_stats(build_game_chain(n), game_chain_start(n))
    folded = absorption_stats(build_duration_chain(n), (2, n - 1))
    for x, y, z in game.kernel.states[2:]:
        t = game.expected_time_from((x, y, z))
        assert abs(folded.expected_time_from((x, y if z == 1 else 2 * n - x - y)) - t) <= 1e-12 * t


class TestValidate:
    def _kernel(self, rows, absorbing=(False, False)):
        csr = sp.csr_matrix(np.array(rows, dtype=float))
        return SparseKernel(states=["a", "b"], csr=csr, absorbing=np.array(absorbing))

    def test_accepts_stochastic_rows(self):
        self._kernel([[0.5, 0.5], [0.0, 1.0]]).validate()

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValueError, match="row b has a nonpositive"):
            self._kernel([[0.5, 0.5], [-0.5, 1.5]]).validate()

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError, match="row a sums to 0.75"):
            self._kernel([[0.5, 0.25], [0.0, 1.0]]).validate()

    def test_rejects_absorbing_row_with_successors(self):
        with pytest.raises(ValueError, match="absorbing state b has successors"):
            self._kernel([[0.5, 0.5], [0.0, 1.0]], absorbing=(False, True)).validate()


def test_kernels_do_not_load_montecarlo():
    """The kernels take their array engine from `game`, so importing them
    pulls in no Monte Carlo code.  The package root imports nothing, so
    the modules loaded are exactly the root, `kernels` and what it
    imports, `game` and `rng`; a root that re-exported from `epochs`
    would load `epochs` too."""
    src = str(Path(dreidel_lab.__file__).resolve().parents[1])
    code = ("import sys, dreidel_lab.kernels; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dreidel_lab'))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout == str(["dreidel_lab", "dreidel_lab.game", "dreidel_lab.kernels", "dreidel_lab.rng"]) + "\n"
