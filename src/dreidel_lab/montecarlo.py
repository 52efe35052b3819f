"""Monte Carlo estimators and bound-check reports for the epoch analysis.

The samplers spin many games in lockstep, off a step table wherever a
spin's effect depends on a small state: overdraft epochs a round at a
time off `game.overdraft_steps` (by pot), and two-player durations off
the fold's `game.fold_steps` (by pot and the stack of the player on
turn).  Durations at k >= 3 run on the array engine `game.SpinBatch`.
Each sampler draws the outcomes of the array-engine loop it replaced,
in the same order, so its results are that loop's (a test oracle) bit
for bit.  Epochs of the free-running overdraft process are independent
(the pot returns to k at every boundary and stacks are unbounded), so a
batch of epochs has the same law as a consecutive run.  An epoch sample
is its counts: the epoch sampler folds each chunk of epochs into payoff
and length histograms before it draws the next, so its memory is bounded
by one chunk, whatever the number of epochs.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import game
from .epochs import window_side
from .game import GameConfig, SpinBatch, SpinCapExceeded, fold_steps, overdraft_steps
from .reporting import BoundReport
from .rng import GANZ, SHTEL, make_generator
from .solvers import exact_mean_duration

Z99 = 2.576
CHUNK = 1 << 15
TAIL_Q_MAX = 15  # epoch-length tails are checked at P(len >= kq+1), q = 0..TAIL_Q_MAX


# ---------------------------------------------------------------------------
# epochs


@dataclass
class EpochSample:
    """Counts over `count` epochs: `y_counts[i]` epochs paid the last player
    `lo + i`, and `length_hist[s]` epochs lasted s spins."""

    k: int
    count: int
    lo: int                # the least payoff
    y_counts: np.ndarray   # int64
    length_hist: np.ndarray
    landslide_count: int
    landslide_payoffs_exact: bool  # every landslide paid the last player 2k - 2


def _merge(a: np.ndarray, a_lo: int, b: np.ndarray, b_lo: int) -> tuple[np.ndarray, int]:
    """Sum of two histograms whose first bins count the values a_lo and b_lo."""
    lo = min(a_lo, b_lo)
    out = np.zeros(max(a_lo + a.size, b_lo + b.size) - lo, dtype=np.int64)
    out[a_lo - lo:a_lo - lo + a.size] += a
    out[b_lo - lo:b_lo - lo + b.size] += b
    return out, lo


def _chunks(seed: int, draws: int) -> list[tuple[np.random.Generator, int]]:
    """Split `draws` into chunks of at most CHUNK; chunk c draws from the
    stream (seed, c), so no result depends on which worker runs it."""
    return [(make_generator(seed, c), min(CHUNK, draws - lo)) for c, lo in enumerate(range(0, draws, CHUNK))]


def _run_epochs(k: int, m: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """m independent overdraft epochs, each ended by the last seat's Ganz;
    returns (last player's payoff, length, landslide).

    A round draws the k seats' outcomes for every live epoch in one call,
    the same stream as k draws of one per epoch, and spins them through
    `overdraft_steps`: an overdraft spin depends on the pot alone.  The
    pot is carried as 4·pot, the table's row offset, so a spin is one add
    and one `take`.  The last seat gains on its own spins and pays one
    ante on every Ganz of the round, its own included."""
    y = np.zeros(m, dtype=np.int64)
    lengths = np.zeros(m, dtype=np.int64)
    landslide = np.zeros(m, dtype=bool)
    q = np.full(m, 4 * k, dtype=np.int64)  # 4·pot per live epoch
    held = np.zeros(m, dtype=np.int64)  # the last seat's tokens
    games = np.arange(m)
    r = cap = 0
    while games.size:
        # after r rounds the pot is at most k(r + 1), so round r reads rows below k(r + 2)
        if k * (r + 2) > cap:
            cap = 2 * k * (r + 2)
            steps = overdraft_steps(k, cap)
            after, gain = 4 * steps[:, :, 0].ravel(), steps[:, :, 1].ravel()
        o = rng.integers(0, 4, size=k * games.size).reshape(k, games.size)
        for seat in range(k - 1):
            q = after.take(q + o[seat])
        q += o[k - 1]
        held += gain.take(q) - np.count_nonzero(o == GANZ, axis=0)
        q = after.take(q)
        done = o[k - 1] == GANZ
        ended = np.flatnonzero(done)
        idx = games.take(ended)
        y[idx] = held.take(ended)
        lengths[idx] = k * (r + 1)
        if r == 0:
            landslide[idx] = (o[:k - 1, ended] == SHTEL).all(axis=0)
        cols = np.flatnonzero(~done)
        q, held, games = q.take(cols), held.take(cols), games.take(cols)
        r += 1
    return y, lengths, landslide


def sample_epochs(k: int, epochs: int, seed: int) -> EpochSample:
    """Counts over `epochs` overdraft epochs, drawn chunk by chunk as
    `_chunks` splits them; each chunk is folded into the counts before the
    next is drawn."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got k={k}")
    if epochs < 1:
        raise ValueError(f"epochs must be at least 1, got epochs={epochs}")
    sample = None
    for rng, m in _chunks(seed, epochs):
        y, lengths, landslide = _run_epochs(k, m, rng)
        lo = int(y.min())
        y_counts, length_hist = np.bincount(y - lo), np.bincount(lengths)
        ls_count = int(np.count_nonzero(landslide))
        exact = bool(np.all(y[landslide] == 2 * k - 2))
        if sample is not None:
            y_counts, lo = _merge(sample.y_counts, sample.lo, y_counts, lo)
            length_hist, _ = _merge(sample.length_hist, 0, length_hist, 0)
            ls_count += sample.landslide_count
            exact &= sample.landslide_payoffs_exact
            m += sample.count
        sample = EpochSample(k, m, lo, y_counts, length_hist, ls_count, exact)
    return sample


# ---------------------------------------------------------------------------
# payoff statistics


@dataclass
class PayoffStats:
    k: int
    count: int
    mean: float
    second_moment: float
    variance: float
    fourth_moment: float
    central_m4: float
    abs_y_hist: np.ndarray
    length_hist: np.ndarray
    landslide_count: int
    landslide_payoffs_exact: bool

    @classmethod
    def from_sample(cls, sample: EpochSample) -> "PayoffStats":
        """Moments off the payoff counts, from the exact power sums
        S_j = sum of y**j: mean = S1/N, E(Y^2) = S2/N and E(Y^4) = S4/N, each
        correctly rounded.  These are the floats of summing the epochs' y,
        y**2 and y**4 in float64 wherever that sum is exact, i.e. every
        partial sum is below 2**53: at k = 4, E(Y^4) is about 350, so up to
        about 2e13 epochs.  `central_m4` is the correctly rounded exact
        E((Y - S1/N)^4); a float sum over the epochs differs from it only by
        rounding, which reaches the last digits of the bound `wald_report`
        prints for the second Wald identity (3 SE, through `se_variance`)."""
        n = sample.count
        values = range(sample.lo, sample.lo + sample.y_counts.size)
        counts = [(v, c) for v, c in zip(values, sample.y_counts.tolist()) if c]
        s1 = sum(c * v for v, c in counts)
        mean = s1 / n
        m2 = sum(c * v * v for v, c in counts) / n
        m4c = Fraction(sum(c * (n * v - s1) ** 4 for v, c in counts), n**5)
        abs_y_hist = np.zeros(max(-sample.lo, values[-1]) + 1, dtype=np.int64)
        np.add.at(abs_y_hist, np.abs(np.arange(sample.lo, values.stop)), sample.y_counts)
        return cls(
            k=sample.k,
            count=n,
            mean=mean,
            second_moment=m2,
            variance=m2 - mean**2,
            fourth_moment=sum(c * v**4 for v, c in counts) / n,
            central_m4=float(m4c),
            abs_y_hist=abs_y_hist,
            length_hist=sample.length_hist,
            landslide_count=sample.landslide_count,
            landslide_payoffs_exact=sample.landslide_payoffs_exact,
        )

    @property
    def se_mean(self) -> float:
        return math.sqrt(self.variance / self.count)

    @property
    def se_variance(self) -> float:
        return math.sqrt(max(self.central_m4 - self.variance**2, 0.0) / self.count)

    @property
    def se_second_moment(self) -> float:
        return math.sqrt(max(self.fourth_moment - self.second_moment**2, 0.0) / self.count)

    def tail_ge(self, threshold: int, hist: np.ndarray) -> float:
        """Empirical P(value >= threshold) from a bincount histogram."""
        if threshold >= len(hist):
            return 0.0
        return float(hist[threshold:].sum()) / self.count


def payoff_sample(k: int, epochs: int, seed: int) -> PayoffStats:
    """Statistics over consecutive epochs of the free-running process.

    The overdraft payoff law does not depend on n.
    """
    return PayoffStats.from_sample(sample_epochs(k, epochs, seed))


# ---------------------------------------------------------------------------
# duration estimation


@dataclass(frozen=True)
class Estimate:
    trials: int
    mean: float
    se: float  # NaN for one trial
    ci99: tuple[float, float]


def _estimate(values: np.ndarray) -> Estimate:
    """Mean, its standard error (NaN for one value) and the Z99 interval."""
    std = float(values.std(ddof=1)) if len(values) > 1 else float("nan")
    return _interval(len(values), float(values.mean()), std)


def _interval(n: int, mean: float, std: float) -> Estimate:
    se = std / math.sqrt(n)
    return Estimate(n, mean, se, (mean - Z99 * se, mean + Z99 * se))


def _duration_chunk(args) -> np.ndarray:
    """Spin counts of m plain-dreidel games, each run until at most one
    player is left."""
    config, rng, m = args
    if config.k == 2:
        return _fold_durations(config.n, m, rng)
    batch = SpinBatch(config.k, m, config.n - 1)
    out = np.zeros(m, dtype=np.int64)
    spins = np.zeros(m, dtype=np.int64)
    steps = 0
    while batch.games.size:
        # no game has spun more often than the batch has stepped
        if steps >= game.SPIN_CAP and spins.max() >= game.SPIN_CAP:
            raise SpinCapExceeded(f"game exceeded {game.SPIN_CAP} spins")
        spins += batch.step(rng) >= 0
        steps += 1
        done = batch.live <= 1
        if done.any():
            out[batch.games[done]] = spins[done]
            spins = spins.take(batch.keep(~done))
    return out


def _fold_durations(n: int, m: int, rng) -> np.ndarray:
    """`_duration_chunk` at k = 2, on the fold's step table
    `game.fold_steps`: both players are in every live game, so every game
    spins on every step, in column order as in `SpinBatch`, and a game's
    spin count is the step at which it reaches either end code.  The
    state is carried as 4·code, the row offset of the transposed table."""
    after = 4 * fold_steps(n).T.ravel()
    end = after.size  # 4 · the first end code
    out = np.zeros(m, dtype=np.int64)
    q = np.full(m, 4 * (2 * n + 1 + n - 1), dtype=np.int64)  # pot 2, n - 1 held by each
    games = np.arange(m)
    steps = 0
    while games.size:
        if steps >= game.SPIN_CAP:  # every live game has spun once per step
            raise SpinCapExceeded(f"game exceeded {game.SPIN_CAP} spins")
        q = after.take(q + rng.integers(0, 4, size=games.size))
        steps += 1
        done = q >= end
        if done.any():
            out[games[done]] = steps
            cols = np.flatnonzero(~done)
            q, games = q.take(cols), games.take(cols)
    return out


def sample_durations(config: GameConfig, trials: int, seed: int, jobs: int = 1) -> np.ndarray:
    if config.overdraft:  # an overdraft game never ends
        raise ValueError("sample_durations requires a non-overdraft config")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got trials={trials}")
    chunks = [(config, rng, m) for rng, m in _chunks(seed, trials)]
    if jobs > 1 and len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            parts = list(pool.map(_duration_chunk, chunks))
    else:
        parts = [_duration_chunk(c) for c in chunks]
    return np.concatenate(parts)


def estimate_mean_duration(config: GameConfig, trials: int, seed: int, jobs: int = 1) -> Estimate:
    return _estimate(sample_durations(config, trials, seed, jobs=jobs))


# ---------------------------------------------------------------------------
# stopping records (vectorized metaslowdel)


@dataclass
class StoppingSample:
    k: int
    n: int
    w0: int
    t: np.ndarray
    s_t: np.ndarray
    u: np.ndarray
    side_upper: np.ndarray  # bool: True where the opponents were ruined


def check_stopping(k: int, n: int, w0: int, records: int) -> None:
    """Raise ValueError unless `sample_stopping` can run on these
    arguments.  It draws nothing, so a caller can check before it samples."""
    if n < 1:  # else the empty window [0, k(n - 1)] would be blamed on w0
        raise ValueError(f"n must be at least 1, got n={n}")
    if k < 2:
        raise ValueError(f"k must be at least 2, got k={k}")
    if records < 2:  # wald_report needs sample variances
        raise ValueError(f"records must be at least 2, got records={records}")
    if window_side(w0, k, n):
        raise ValueError(f"w0 must lie in [0, {k * (n - 1)}], got w0={w0}")


def sample_stopping(k: int, n: int, w0: int, records: int, seed: int) -> StoppingSample:
    """Vectorized metaslowdel stopping records for the last player."""
    check_stopping(k, n, w0, records)
    s = np.zeros(records, dtype=np.int64)
    t = np.zeros(records, dtype=np.int64)
    u = np.zeros(records, dtype=np.int64)
    active = np.arange(records)
    epoch = 0
    while active.size:  # a run's totals stop changing once it leaves `active`
        y, lengths, _ = _run_epochs(k, active.size, make_generator(seed, epoch))
        s[active] += y
        t[active] += 1
        u[active] += lengths
        active = active[window_side(w0 + s[active], k, n) == 0]
        epoch += 1
    return StoppingSample(k=k, n=n, w0=w0, t=t, s_t=s, u=u, side_upper=window_side(w0 + s, k, n) > 0)


# ---------------------------------------------------------------------------
# reports


def moment_report(stats: PayoffStats) -> BoundReport:
    """The three closed-form payoff-moment bounds."""
    k = stats.k
    rep = BoundReport(f"payoff moments, k={k}")
    rep.check_ge("E(Y1^2) >= 1/4", stats.second_moment, 0.25, slack=3 * stats.se_second_moment)
    rep.check_le("|mean(Y1)| <= 5k", abs(stats.mean), 5 * k, slack=3 * stats.se_mean)
    rep.check_le("var(Y1) <= 41k^2", stats.variance, 41 * k * k, slack=3 * stats.se_variance)
    return rep


def landslide_report(stats: PayoffStats) -> BoundReport:
    k = stats.k
    rep = BoundReport(f"landslide epochs, k={k}")
    p_hat = stats.landslide_count / stats.count
    target = 4.0 ** (-k)
    se = math.sqrt(target * (1 - target) / stats.count)
    rep.check_le("|freq - 4^-k|", abs(p_hat - target), 3 * se)
    rep.check_ge("landslide payoffs all 2k-2", float(stats.landslide_payoffs_exact), 1.0)
    return rep


def tail_report(stats: PayoffStats) -> BoundReport:
    """Epoch-length and |Y1| tails against the (3/4)-geometric bounds."""
    k = stats.k
    rep = BoundReport(f"tail bounds, k={k}")
    u_max = max((len(stats.abs_y_hist) - 2) // k, 1)
    rows = [(f"P(len >= {k}q+1), q={q}", stats.length_hist, k * q + 1, 0.75**q) for q in range(TAIL_Q_MAX + 1)]
    rows += [(f"P(|Y1| >= {k * u + 1})", stats.abs_y_hist, k * u + 1, 0.75 ** (u - 1)) for u in range(1, u_max + 1)]
    for name, hist, threshold, bound in rows:
        p_hat = stats.tail_ge(threshold, hist)
        se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / stats.count)
        rep.check_le(name, p_hat, bound, slack=3 * se)
    return rep


def wald_report(sample: StoppingSample, stats: PayoffStats) -> BoundReport:
    """Wald's identities on a stopping sample, using moments from `stats`."""
    rep = BoundReport(f"Wald checks, k={sample.k}, n={sample.n}, W0={sample.w0}")
    r = len(sample.t)
    t = sample.t.astype(np.float64)
    s = sample.s_t.astype(np.float64)
    mu = stats.mean
    var = stats.variance

    # first Wald identity: E(S_T) = mu E(T)
    resid = s - mu * t
    d1 = float(resid.mean())
    se1 = math.sqrt(float(resid.var(ddof=1)) / r + float(t.mean()) ** 2 * stats.se_mean**2)
    rep.check_le("|E(S_T) - mu E(T)|", abs(d1), 3 * se1)

    # standard second form: E[(S_T - mu T)^2] = sigma^2 E(T)
    sq = resid**2
    d2_terms = sq - var * t
    d2 = float(d2_terms.mean())
    dmu = float((-2 * t * resid).mean())  # sensitivity of the LHS to mu error
    se2 = math.sqrt(
        float(d2_terms.var(ddof=1)) / r
        + float(t.mean()) ** 2 * stats.se_variance**2
        + (dmu * stats.se_mean) ** 2
    )
    rep.check_le("|E[(S_T - mu T)^2] - var E(T)|", abs(d2), 3 * se2)

    # alternative second-moment form, report-only
    lhs = float((s**2).mean())
    rhs = var * float(t.mean()) + mu**2 * float((t**2).mean())
    rep.report_only("E(S_T^2)", lhs)
    rep.report_only("var E(T) + mu^2 E(T^2)", rhs)

    # E(|S_T|) <= kn + k sum_{q>=n} (3/4)^q
    k, n = sample.k, sample.n
    est = _estimate(np.abs(s))
    rep.check_le("E(|S_T|) <= kn + tail", est.mean, k * n + 4 * k * 0.75**n, slack=3 * est.se)
    return rep


# ---------------------------------------------------------------------------
# Ganz waiting time


@dataclass(frozen=True)
class GanzWaitEstimate(Estimate):
    counts: tuple[int, ...]  # histogram of waiting times, index = wait


def ganz_wait(trials: int, seed: int) -> GanzWaitEstimate:
    """Mean number of spins until a seat's first Ganz (geometric, p = 1/4),
    read off the epoch sampler: a k = 2 epoch lasts until the last seat's
    first Ganz, so it is that many rounds of two spins."""
    if trials < 1:
        raise ValueError("need at least one trial")
    counts = sample_epochs(2, trials, seed).length_hist[::2].tolist()  # counts[w]: epochs of w rounds
    s1 = sum(c * w for w, c in enumerate(counts))
    # the sample variance, exact: sum of c (trials·w - s1)^2 over trials^2 (trials - 1)
    ss = sum(c * (trials * w - s1) ** 2 for w, c in enumerate(counts))
    std = math.sqrt(Fraction(ss, trials**2 * (trials - 1))) if trials > 1 else float("nan")
    return GanzWaitEstimate(**vars(_interval(trials, s1 / trials, std)), counts=tuple(counts))


# ---------------------------------------------------------------------------
# duration scaling


@dataclass
class ScalingRow:
    n: int
    mean: float
    se: float | None
    ratio_n2: float
    ratio_asymptotic: float


@dataclass
class ScalingFit:
    mode: str
    rows: list[ScalingRow] = field(default_factory=list)
    slope: float = float("nan")


def scaling_report(
    k: int,
    ns: list[int],
    mode: str = "mc",
    trials: int = 10_000,
    seed: int = 0,
    jobs: int = 1,
) -> ScalingFit:
    """Log-log slope of mean game duration over n.

    mode="exact" (k=2 only) solves the absorbing duration chain; mode="mc"
    uses Monte Carlo with `trials` games per n.
    """
    if len(set(ns)) < 2:
        raise ValueError("need at least two distinct n values")
    fit = ScalingFit(mode=mode)
    means = []
    for n in ns:
        if mode == "exact":
            if k != 2:
                raise ValueError("exact durations are only available for k=2")
            mean = exact_mean_duration(n)
            se = None
        else:
            est = estimate_mean_duration(GameConfig(k=k, n=n), trials, seed, jobs=jobs)
            mean, se = est.mean, est.se
        means.append(mean)
        fit.rows.append(
            ScalingRow(
                n=n,
                mean=mean,
                se=se,
                ratio_n2=mean / n**2,
                ratio_asymptotic=mean / (104 * n**2 / 3),
            )
        )
    slope, _ = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(np.asarray(means)), 1)
    fit.slope = float(slope)
    return fit
