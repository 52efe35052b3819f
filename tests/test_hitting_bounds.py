"""Hitting-bound tables and chain identity checks."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conftest import mod_chain_step
from dreidel_lab import hitting_bounds as hb
from dreidel_lab import solvers
from dreidel_lab.kernels import ModChainSpec, build_mod_chain, build_pot_chain, diagnostics
from dreidel_lab.rng import OUTCOME_CODES
from dreidel_lab.solvers import HitSolver


class TestStableQuantities:
    def test_settles(self):
        q, p_max, drift = hb.stable_quantities(3)
        assert drift < 1e-10
        assert p_max >= 16 * 3
        assert set(q) >= {"A_1", "B_1", "omega1", "omega2", "p_f", "mu0"}

    def test_deterministic(self):
        a, _, _ = hb.stable_quantities(3)
        b, _, _ = hb.stable_quantities(3)
        assert a == b

    @pytest.mark.parametrize("flavor", ["game", "formal"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_small_n_doubles_more_than_once(self, n, flavor):
        # from 8n the cap doubles to 64: three times at n = 1, twice at n = 2
        _, p_max, drift = hb.stable_quantities(n, flavor)
        assert p_max == 64
        assert drift < hb.CAP_TOL
        assert hb.bound_tables(n, flavor).ok


class TestBoundTables:
    @pytest.mark.parametrize("n", [3, 4])
    def test_game_flavor_passes(self, n):
        rep = hb.bound_tables(n, flavor="game")
        assert rep.ok, str(rep)
        names = [e.name for e in rep.entries]
        assert any(name.startswith("A_1 ") for name in names)
        assert any(name.startswith(f"A_{n + 1} ") for name in names)

    def test_a1_b1_specials(self):
        rep = hb.bound_tables(3, flavor="game")
        by_name = {e.name: e for e in rep.entries}
        assert by_name["A_1 >= 1/(m+3)"].measured >= 0.25
        assert by_name["B_1 >= 1/(m+63)"].measured >= 1 / 64

    def test_formal_flavor_reported(self):
        # formal-lambda failures are allowed; the report must still build
        rep = hb.bound_tables(3, flavor="formal")
        assert rep.entries


class TestIdentities:
    @pytest.mark.parametrize("flavor", ["game", "formal"])
    def test_residuals(self, flavor):
        res = hb.identity_checks(3, flavor=flavor, n_queries=40, seed=0)
        assert res.max_complementarity < 1e-10
        assert res.max_translation < 1e-10
        assert res.duality.size == 40  # duality is computed and reported only

    def test_deterministic(self):
        a = hb.identity_checks(3, n_queries=10, seed=5)
        b = hb.identity_checks(3, n_queries=10, seed=5)
        assert (a.complementarity == b.complementarity).all()
        assert (a.duality == b.duality).all()

    def test_kernel_translation_symmetry(self):
        # relabeling y -> y + m maps the kernel onto itself
        spec = ModChainSpec(n=3, p_max=16)
        lam = spec.lam
        m = 4
        for x in (1, 2, 5, 16):
            for y in range(lam):
                for z in (1, 2):
                    for o in OUTCOME_CODES:
                        x2, y2, z2 = mod_chain_step(spec, (x, y, z), o)
                        x3, y3, z3 = mod_chain_step(spec, (x, (y + m) % lam, z), o)
                        assert (x3, z3) == (x2, z2)
                        assert y3 == (y2 + m) % lam


def _quantities_per_query(spec: ModChainSpec) -> dict[str, float]:
    """The bound-table quantities with one HitSolver per query, and mu0 by
    Kac's formula 1/pi(s0) from a dense stationary solve."""
    n, lam = spec.n, spec.lam
    kernel = build_mod_chain(spec)
    y1 = (n - 1) % lam
    s0 = spec.start
    out = {}
    for m in range(1, n + 2):
        out[f"A_{m}"] = HitSolver(kernel, frozenset({(2, (y1 + m) % lam, 2)}),
                                  frozenset({(2, (y1 - 1) % lam, 1)})).prob(s0)
        out[f"B_{m}"] = HitSolver(kernel, frozenset({(2, (y1 - m) % lam, 2)}),
                                  frozenset({(2, (y1 + 1) % lam, 1)})).prob(s0)
    s1 = frozenset({(2, (n - 1) % lam, 1), (2, (n - 2) % lam, 1)})
    s2 = frozenset({(2, (n - 1) % lam, 1), (2, n % lam, 1)})
    out["omega1"] = HitSolver(kernel, frozenset({(2, n % lam, 1)}), s1).prob(s0, first_step_exempt=True)
    out["omega2"] = HitSolver(kernel, frozenset({(2, (n - 2) % lam, 1)}), s2).prob(s0, first_step_exempt=True)
    ends = frozenset(filter(spec.is_end_state, kernel.states))
    out["p_f"] = HitSolver(kernel, ends, frozenset({s0})).prob(s0, first_step_exempt=True)
    a = kernel.csr.toarray().T - np.eye(kernel.n_states)
    a[-1] = 1.0
    rhs = np.zeros(kernel.n_states)
    rhs[-1] = 1.0
    out["mu0"] = 1.0 / np.linalg.solve(a, rhs)[kernel.index[s0]]
    return out


class TestGroupedSolves:
    @pytest.mark.parametrize("flavor", ["game", "formal"])
    @pytest.mark.parametrize("n", [3, 4])
    def test_quantities_match_per_query_oracle(self, n, flavor):
        spec = ModChainSpec(n=n, p_max=8 * n, flavor=flavor)
        got = hb._quantities(spec)
        want = _quantities_per_query(spec)
        assert got.keys() == want.keys()
        assert all(type(v) is float for v in got.values())
        for name, v in got.items():
            assert abs(v - want[name]) < (1e-10 * want[name] if name == "mu0" else 1e-12), name

    @pytest.fixture
    def lu_count(self, monkeypatch):
        calls = []

        def counting_splu(a, *args, **kwargs):
            calls.append(a.shape[0])
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(solvers, "splu", counting_splu)
        return calls

    def test_quantities_factor_twice(self, lu_count):
        # one LU off s0 for A, B, omega and mu0, and p_f's own off the end states
        hb._quantities(ModChainSpec(n=4, p_max=32))
        assert len(lu_count) == 2

    def test_identity_checks_factor_once(self, lu_count):
        hb.identity_checks(8, "game", n_queries=100)
        assert len(lu_count) == 1

    def test_complementary_pair_uses_two_boundary_systems(self, monkeypatch, lu_count):
        columns = []  # (boundary, column state)
        green = solvers.RestrictedLU.green

        def spy(self, state):
            # the residual check runs on I - P off this boundary, not the base's
            u = self.unknown
            assert not {self.kernel.states[i] for i in u} & self.boundary
            own = sp.identity(u.size, format="csr") - self.kernel.csr[u][:, u]
            assert abs(self.a - own).max() == 0
            columns.append((self.boundary, state))
            return green(self, state)

        monkeypatch.setattr(solvers.RestrictedLU, "green", spy)
        hb.identity_checks(5, "game", n_queries=1, seed=3)
        assert len(columns) == 4 and len(lu_count) == 1
        # p = P(hit a before b) off {b} and p_swap = P(hit b before a) off {a}
        pairs = [(u, v) for u in columns for v in columns
                 if u[0] == frozenset({v[1]}) and v[0] == frozenset({u[1]})]
        assert pairs


class TestKac:
    @pytest.fixture(scope="class")
    def pi2(self):
        kernel = build_pot_chain(400)
        return float(diagnostics(kernel, compute_stationary=True).stationary[kernel.index[2]])

    @pytest.mark.parametrize("flavor", ["game", "formal"])
    @pytest.mark.parametrize("n", [3, 5, 8, 11])
    def test_mu0_is_kac_return_time(self, pi2, n, flavor):
        # Kac: mu0 = 1 / pi(s0), and the stationary mass pi_2 of pot 2 is
        # spread evenly over the Lambda residues y and the two turns z
        spec = ModChainSpec(n=n, p_max=8 * n, flavor=flavor)
        want = 2 * spec.lam / pi2
        assert abs(hb._quantities(spec)["mu0"] - want) < 1e-10 * want
