"""Hitting-probability tables, fast/slow decomposition bounds and the
algebraic identity checks on the mod-Lambda chain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import ModChainSpec, build_mod_chain
from .reporting import BoundReport
from .rng import make_generator
from .solvers import HitSolver, RestrictedLU, exact_mean_duration, mean_return_time, next_step_mean

START_CAP_PER_N = 8  # the mod chain's pot cap starts at 8n,
MAX_DOUBLINGS = 6  # doubles at most this many times,
CAP_TOL = 1e-10  # and stops once a doubling moves no bound quantity this much


class TruncationError(RuntimeError):
    """Reported quantities kept moving while the pot cap grew."""


def _hits(base: RestrictedLU, queries) -> list[float]:
    """P_x(hit a before b) for each (x, a, b) in `queries`, as
    G(x, a) / G(a, a) with G = (I - P off {b})^-1: one low-rank update of
    `base` per avoid state b, in order of first appearance, and one
    Green's-function column per query.  Each system off {b} is
    residual-checked against I - P off {b} itself, not the base's."""
    index = base.kernel.index
    by_avoid: dict = {}
    for slot, (x, a, b) in enumerate(queries):
        by_avoid.setdefault(b, []).append((slot, x, a))
    out = [0.0] * len(queries)
    for b, group in by_avoid.items():
        lu = RestrictedLU(base.kernel, {b}, base=base)
        for slot, x, a in group:
            g = lu.green(a)
            out[slot] = float(g[index[x]] / g[index[a]])
    return out


def _quantities(spec: ModChainSpec) -> dict[str, float]:
    """Every bound-table quantity on one mod chain instance, from two
    factorizations.  One LU off {s0} gives mu0 directly and serves A, B
    and omega, whose small boundaries it reaches by low-rank updates; p_f
    has its own LU off the end states, made once the first is released."""
    n = spec.n
    kernel = build_mod_chain(spec)
    s0 = spec.start  # pot2(n - 1, 1)
    base = RestrictedLU(kernel, {s0})

    # A_m: reach pot2(n - 1 + m, 2) before pot2(n - 2, 1); B_m mirrors it
    ms = range(1, n + 2)
    queries = [(s0, spec.pot2(n - 1 + sign * m, 2), spec.pot2(n - 1 - sign, 1))
               for sign in (1, -1) for m in ms]
    out: dict[str, float] = dict(zip([f"{name}_{m}" for name in "AB" for m in ms], _hits(base, queries)))

    # omega1: reach y = n before n-1, n-2; omega2: reach n-2 before n-1, n;
    # both leave s0 = (2, n-1, 1) on the first step
    points = [spec.pot2(n + d, 1) for d in (-2, -1, 0)]
    lu = RestrictedLU(kernel, points, base=base)
    out["omega1"] = next_step_mean(kernel, s0, lu.harmonic({points[2]}))
    out["omega2"] = next_step_mean(kernel, s0, lu.harmonic({points[0]}))
    mu0 = mean_return_time(base)
    del lu, base

    ends = frozenset(filter(spec.is_end_state, kernel.states))
    out["p_f"] = HitSolver(kernel, ends, frozenset({s0})).prob(s0, first_step_exempt=True)
    out["mu0"] = mu0
    return out


def stable_quantities(n: int, flavor: str = "game") -> tuple[dict[str, float], int, float]:
    """Grow the pot cap (doubling from 8n) until every quantity settles.

    Returns (quantities, final cap, worst step-to-step change).
    """
    p_max = START_CAP_PER_N * n
    prev = _quantities(ModChainSpec(n=n, p_max=p_max, flavor=flavor))
    for _ in range(MAX_DOUBLINGS):
        p_max *= 2
        cur = _quantities(ModChainSpec(n=n, p_max=p_max, flavor=flavor))
        drift = max(abs(cur[k] - prev[k]) for k in cur)
        if drift < CAP_TOL:
            return cur, p_max, drift
        prev = cur
    raise TruncationError(f"quantities unstable after cap {p_max}")


def bound_tables(n: int, flavor: str = "game") -> BoundReport:
    """Every inequality of the fast/slow Markov analysis, with verdicts."""
    q, p_max, drift = stable_quantities(n, flavor=flavor)
    rep = BoundReport(f"hitting bounds, n={n}, flavor={flavor}, cap={p_max}")
    for m in range(1, n + 2):
        rep.check_ge(f"A_{m} >= 1/(m+3)", q[f"A_{m}"], 1.0 / (m + 3))
        rep.check_ge(f"B_{m} >= 1/(m+63)", q[f"B_{m}"], 1.0 / (m + 63))
    rep.check_ge("omega1 >= 1/8", q["omega1"], 0.125)
    rep.check_ge("omega2 >= 1/8", q["omega2"], 0.125)
    rep.check_ge("p_f >= 1/(4(n+63))", q["p_f"], 1.0 / (4 * (n + 63)))
    rep.check_le("mu0 <= 13(2n+3)/3", q["mu0"], 13 * (2 * n + 3) / 3, slack=1e-6)

    mu_d = exact_mean_duration(n)
    rep.check_le("mu_d <= mu0/p_f", mu_d, q["mu0"] / q["p_f"], slack=1e-6)
    rep.report_only("mu_d", mu_d)
    rep.check_le("cap stability drift", drift, CAP_TOL)
    return rep


# ---------------------------------------------------------------------------
# identity checks


@dataclass
class IdentityResiduals:
    n: int
    flavor: str
    complementarity: np.ndarray
    translation: np.ndarray
    duality: np.ndarray

    @property
    def max_complementarity(self) -> float:
        return float(np.max(self.complementarity))

    @property
    def max_translation(self) -> float:
        return float(np.max(self.translation))

    @property
    def max_duality(self) -> float:
        return float(np.max(self.duality))


def identity_checks(
    n: int,
    flavor: str = "game",
    n_queries: int = 100,
    seed: int = 0,
) -> IdentityResiduals:
    """Complementarity / translation-invariance / duality residuals on a
    grid of random pot-2 hitting queries.

    The first two are algebraic identities of the truncated chain and
    must vanish to solver precision; duality is reported as measured (it
    holds to solver precision in the game flavor, not in the formal one).
    """
    spec = ModChainSpec(n=n, p_max=START_CAP_PER_N * n, flavor=flavor)
    lam = spec.lam
    kernel = build_mod_chain(spec)
    flavor_tag = {"game": 0, "formal": 1}[flavor]
    rng = make_generator(seed, n, flavor_tag)

    # four queries (start, target, avoid) per draw: p, p_swap, p_shift, p_dual
    queries = []
    while len(queries) < 4 * n_queries:
        y1, y2, y3 = (int(v) for v in rng.integers(0, lam, size=3))
        z1, z2, z3 = (int(v) for v in rng.integers(1, 3, size=3))
        if (y2, z2) == (y3, z3) or (y1, z1) in ((y2, z2), (y3, z3)):
            continue
        m = int(rng.integers(1, lam))
        yz = ((y1, z1), (y2, z2), (y3, z3))
        x, a, b = (spec.pot2(y, z) for y, z in yz)
        queries += [
            (x, a, b),
            (x, b, a),
            tuple(spec.pot2(y + m, z) for y, z in yz),
            tuple(spec.pot2(-y - 2, 3 - z) for y, z in yz),
        ]

    # one LU per call, off the start state.  Each avoid state b has its own
    # boundary system off {b}, so p (off {b}) and p_swap (off {a}) come from
    # two different systems, each checked on its own, and complementarity
    # is a real check.
    probs = np.array(_hits(RestrictedLU(kernel, {spec.start}), queries))
    p, p_swap, p_shift, p_dual = probs.reshape(-1, 4).T
    return IdentityResiduals(
        n=n,
        flavor=flavor,
        complementarity=np.abs(p + p_swap - 1.0),
        translation=np.abs(p_shift - p),
        duality=np.abs(p_dual - p),
    )
