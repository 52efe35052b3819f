"""Correctness checks for the benchmark's workloads.

Every check takes outputs the program produced and returns a list of
failure messages (empty when the output is correct).  The expected values
come from computations made here, apart from the program, or from
properties the method must have; none is a stored copy of an earlier run.

Statistical checks are Z standard errors wide: a correct method fails one
with probability below 1e-6, so no seed has to be picked to pass them.
"""

from __future__ import annotations

import csv
import itertools
import math
import re

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dreidel_lab.epochs import new_custom
from dreidel_lab.game import GameConfig, GameState, apply_spin, new_game
from dreidel_lab.gamelets import gamelet_signature

Z = 5.0
LETTERS = "NGHS"  # spin codes 0..3, as the program writes them
NISHT, GANZ, HALB, SHTEL = range(4)


# ---------------------------------------------------------------------------
# reading the program's outputs


def read_csv(path) -> list[dict]:
    """Rows of a CLI CSV artifact, without its '#' header lines."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def report_rows(path) -> dict[str, dict]:
    """A bound-report CSV keyed by check name, with floats parsed.

    Names such as "P(len >= 2q+1), q=3" hold an unquoted comma, so each
    line is split from the right into name and the four value columns.
    """
    out = {}
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    if lines[0] != "name,paper_bound,measured,margin,verdict":
        raise ValueError(f"not a bound report: {lines[0]!r}")
    for line in lines[1:]:
        name, bound, measured, _, verdict = line.rsplit(",", 4)
        out[name] = {"bound": float(bound) if bound else None, "measured": float(measured), "verdict": verdict}
    return out


def read_plot(path) -> dict[int, int]:
    """Two-column plot data as {x: y}."""
    out = {}
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            x, y = line.split()
            out[int(x)] = int(y)
    return out


def read_report_md(text: str) -> dict[int, list[tuple[str, str]]]:
    """`report` markdown as {n: [(check name, verdict), ...]}."""
    tables: dict[int, list[tuple[str, str]]] = {}
    current = None
    for line in text.splitlines():
        m = re.match(r"## hitting bounds, n=(\d+)$", line)
        if m:
            current = tables.setdefault(int(m.group(1)), [])
        elif current is not None and line.startswith("| ") and not line.startswith("| name"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            current.append((cells[0], cells[-1]))
    return tables


# ---------------------------------------------------------------------------
# small helpers


def _fail_if(cond: bool, msg: str, out: list[str]) -> None:
    if cond:
        out.append(msg)


def agree(label: str, a: float, se_a: float, b: float, se_b: float) -> list[str]:
    """Two independent estimates of one quantity agree within Z combined SE."""
    se = math.hypot(se_a, se_b)
    if not abs(a - b) <= Z * se:
        return [f"{label}: {a:.6g} vs {b:.6g} differ by more than {Z} SE ({se:.3g})"]
    return []


def mean_se(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))


def chi2_critical(df: int, z: float = Z) -> float:
    """Upper chi-square quantile at the one-sided normal tail of z
    (Wilson-Hilferty), so the test is as wide as a z-SE check."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * math.sqrt(c)) ** 3


# ---------------------------------------------------------------------------
# sampling


def check_epochs(k: int, epochs: int, rows: dict[str, dict], length_hist: dict[int, int]) -> list[str]:
    """`epochs` output against the exact epoch law.

    The round count R of an epoch is Geom(1/4) on {1, 2, ...}, so the
    length kR has mean 4k, P(len >= kq+1) = (3/4)^q exactly, and a
    landslide (k-1 Shtels then a Ganz) has probability 4^-k and pays
    the last player exactly 2k-2.
    """
    out: list[str] = []
    _fail_if(rows["epochs"]["measured"] != epochs, f"k={k}: epoch count {rows['epochs']['measured']}", out)
    n = sum(length_hist.values())
    _fail_if(n != epochs, f"k={k}: length histogram holds {n} epochs, not {epochs}", out)
    bad = [length for length in length_hist if length <= 0 or length % k]
    _fail_if(bool(bad), f"k={k}: epoch lengths not positive multiples of k: {bad[:5]}", out)
    if out:
        return out

    mean_len = sum(length * c for length, c in length_hist.items()) / n
    out += agree(f"k={k}: mean epoch length", mean_len, 0.0, 4.0 * k, k * math.sqrt(12.0 / n))

    # rounds ~ Geom(1/4): chi-square over bins with >= 20 expected, tail lumped
    pmf = lambda r: 0.25 * 0.75 ** (r - 1)  # noqa: E731
    top = 1
    while n * pmf(top + 1) >= 20:
        top += 1
    observed = [length_hist.get(k * r, 0) for r in range(1, top)]
    observed.append(n - sum(observed))
    expected = [n * pmf(r) for r in range(1, top)] + [n * 0.75 ** (top - 1)]
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected))
    crit = chi2_critical(len(observed) - 1)
    _fail_if(stat > crit, f"k={k}: round counts fail Geom(1/4) (chi2 {stat:.1f} > {crit:.1f})", out)

    for name, row in rows.items():
        m = re.match(r"P\(len >= \d+q\+1\), q=(\d+)$", name)
        if m:
            q = int(m.group(1))
            exact = 0.75**q
            hist_tail = sum(c for length, c in length_hist.items() if length >= k * q + 1) / n
            _fail_if(abs(row["measured"] - hist_tail) > 1e-12,
                     f"k={k}: {name} = {row['measured']} disagrees with the histogram ({hist_tail})", out)
            out += agree(f"k={k}: {name}", row["measured"], 0.0, exact, math.sqrt(exact * (1 - exact) / n))
        elif name.startswith("P(|Y1| >= "):
            b = row["bound"]
            _fail_if(row["measured"] > b + Z * math.sqrt(b * (1 - b) / n),
                     f"k={k}: {name} = {row['measured']} above its bound {b}", out)

    second, mu, var = rows["E(Y1^2)"]["measured"], rows["mean(Y1)"]["measured"], rows["var(Y1)"]["measured"]
    _fail_if(not second >= 0.25, f"k={k}: E(Y1^2) = {second} < 1/4", out)
    _fail_if(not abs(mu) <= 5 * k, f"k={k}: |mean(Y1)| = {abs(mu)} > 5k", out)
    _fail_if(not var <= 41 * k * k, f"k={k}: var(Y1) = {var} > 41k^2", out)
    _fail_if(abs(var - (second - mu * mu)) > 1e-9 * max(1.0, second), f"k={k}: var != E(Y^2) - mean^2", out)

    p = 4.0 ** (-k)
    gap = rows["|freq - 4^-k|"]["measured"]
    _fail_if(gap > Z * math.sqrt(p * (1 - p) / n), f"k={k}: landslide frequency off 4^-k by {gap}", out)
    _fail_if(rows["landslide payoffs all 2k-2"]["measured"] != 1.0, f"k={k}: a landslide payoff is not 2k-2", out)
    return out


def check_wald(rows: dict[str, dict]) -> list[str]:
    """Wald's identities within Z SE (the report's bound column is 3 SE)."""
    out: list[str] = []
    for name in ("|E(S_T) - mu E(T)|", "|E[(S_T - mu T)^2] - var E(T)|"):
        row = rows[name]
        se = row["bound"] / 3.0
        _fail_if(row["measured"] > Z * se, f"wald: {name} = {row['measured']:.4g} above {Z} SE ({se:.3g})", out)
    row = rows["E(|S_T|) <= kn + tail"]
    _fail_if(row["measured"] > row["bound"], f"wald: E(|S_T|) = {row['measured']} above {row['bound']}", out)
    return out


def check_stopping_arrays(k: int, n: int, w0: int, t, s_t, u, side_upper) -> list[str]:
    """Vectorized stopping records: each lies outside its window."""
    out: list[str] = []
    upper = k * (n - 1) - w0
    t, s_t, u, side_upper = (np.asarray(a) for a in (t, s_t, u, side_upper))
    outside = (s_t < -w0) | (s_t > upper)
    _fail_if(not outside.all(), f"stopping: {int((~outside).sum())} records inside the window", out)
    _fail_if(not np.array_equal(side_upper, s_t > upper), "stopping: side flag disagrees with S_T", out)
    _fail_if(bool((t < 1).any()), "stopping: a record with T < 1", out)
    _fail_if(bool((u % k).any()), "stopping: a spin count U not a multiple of k", out)
    _fail_if(bool((u < k * t).any()), "stopping: a record with U < kT", out)
    return out


def check_stopping_records(k: int, n: int, records) -> list[str]:
    """Scalar `run_metaslowdel` records: the partial sums stay inside the
    window until T and leave it at T."""
    out: list[str] = []
    for i, rec in enumerate(records):
        upper = k * (n - 1) - rec.w0
        partial = list(itertools.accumulate(rec.payoffs))
        ok = (
            len(partial) == rec.t
            and partial[-1] == rec.s_t
            and all(-rec.w0 <= s <= upper for s in partial[:-1])
            and (rec.s_t < -rec.w0 or rec.s_t > upper)
            and rec.side == ("upper" if rec.s_t > upper else "lower")
            and rec.u % k == 0
            and rec.u >= k * rec.t
        )
        _fail_if(not ok, f"metaslowdel record {i} breaks the stopping rule: {rec}", out)
    return out


def check_simulate(rows: list[dict], k: int, n: int, trials: int) -> list[str]:
    out: list[str] = []
    row = rows[0]
    mean, se = float(row["mean"]), float(row["se"])
    _fail_if((int(row["k"]), int(row["n"]), int(row["trials"])) != (k, n, trials), f"simulate: header {row}", out)
    _fail_if(not (se > 0 and mean > 0), f"simulate k={k}: mean {mean}, se {se}", out)
    for col, sign in (("ci99_lo", -1), ("ci99_hi", 1)):
        _fail_if(abs(float(row[col]) - (mean + sign * 2.576 * se)) > 1e-9 * mean, f"simulate: {col} inconsistent", out)
    return out


def check_transcripts(transcripts) -> list[str]:
    """Scalar oracle games end with one winner and conserve tokens."""
    out: list[str] = []
    for i, tr in enumerate(transcripts):
        last = tr.entries[-1]
        k, n = tr.config.k, tr.config.n
        ok = tr.terminal.startswith("won:") and last.pot + sum(last.stacks) == k * n
        _fail_if(not ok, f"oracle game {i}: terminal {tr.terminal}, tokens {last.pot + sum(last.stacks)}", out)
    return out


# ---------------------------------------------------------------------------
# chains


def _bound_entries(n: int) -> set[str]:
    names = {f"A_{m} >= 1/(m+3)" for m in range(1, n + 2)} | {f"B_{m} >= 1/(m+63)" for m in range(1, n + 2)}
    return names | {"omega1 >= 1/8", "omega2 >= 1/8", "p_f >= 1/(4(n+63))", "mu0 <= 13(2n+3)/3",
                    "mu_d <= mu0/p_f", "mu_d", "cap stability drift"}


def check_report(tables: dict[int, list[tuple[str, str]]], ns: list[int]) -> list[str]:
    """Every game-flavor bound check of every table passes."""
    out: list[str] = []
    _fail_if(sorted(tables) != sorted(ns), f"report: tables for n={sorted(tables)}, wanted {ns}", out)
    for n, entries in tables.items():
        names = {name for name, _ in entries}
        _fail_if(names != _bound_entries(n), f"report n={n}: entries {sorted(names ^ _bound_entries(n))} differ", out)
        failed = [name for name, verdict in entries if verdict == "fail"]
        _fail_if(bool(failed), f"report n={n}: failed checks {failed}", out)
    return out


def check_bounds_formal(n: int, rows: dict[str, dict]) -> list[str]:
    """Formal-flavor tables: probabilities in [0, 1], a settled cap."""
    out: list[str] = []
    _fail_if(set(rows) != _bound_entries(n), f"bounds n={n}: entries differ", out)
    for name, row in rows.items():
        if name[:2] in ("A_", "B_", "om", "p_"):
            _fail_if(not 0.0 <= row["measured"] <= 1.0, f"bounds n={n}: {name} = {row['measured']}", out)
    drift = rows["cap stability drift"]
    _fail_if(drift["measured"] > drift["bound"], f"bounds n={n}: cap drift {drift['measured']}", out)
    _fail_if(not rows["mu0 <= 13(2n+3)/3"]["measured"] >= 1.0, f"bounds n={n}: mu0 < 1", out)
    return out


def check_identities(res, n_queries: int, tol: float = 1e-10) -> list[str]:
    out: list[str] = []
    _fail_if(len(res.complementarity) != n_queries, f"identities: {len(res.complementarity)} queries", out)
    _fail_if(not res.max_complementarity < tol,
             f"identities n={res.n} {res.flavor}: complementarity residual {res.max_complementarity}", out)
    _fail_if(not res.max_translation < tol,
             f"identities n={res.n} {res.flavor}: translation residual {res.max_translation}", out)
    _fail_if(not np.all((res.duality >= 0) & (res.duality <= 1)), "identities: duality gap outside [0, 1]", out)
    return out


def loglog_slope(ns, means) -> float:
    x = np.log(np.asarray(ns, dtype=float))
    y = np.log(np.asarray(means, dtype=float))
    xc = x - x.mean()
    return float((xc * (y - y.mean())).sum() / (xc * xc).sum())


def check_scaling(rows: list[dict], ns: list[int]) -> list[str]:
    """Exact durations grow like n^2: log-log slope in [1.7, 2.2]."""
    out: list[str] = []
    got = [int(r["n"]) for r in rows]
    _fail_if(got != ns, f"scaling: rows for n={got}", out)
    means = [float(r["mean"]) for r in rows]
    _fail_if(any(b <= a for a, b in zip(means, means[1:])), f"scaling: means not increasing {means}", out)
    for r, n, mu in zip(rows, got, means):
        _fail_if(abs(float(r["ratio_to_n2"]) - mu / n**2) > 1e-12 * mu, f"scaling n={n}: ratio column", out)
    slope = loglog_slope(got, means)
    _fail_if(not 1.7 <= slope <= 2.2, f"scaling: log-log slope {slope:.4f} outside [1.7, 2.2]", out)
    return out


def transient_system(kernel):
    """(Q, R_by_label, transient indices) of an absorbing kernel, from its CSR form."""
    csr = kernel.to_csr()
    trans = np.flatnonzero(~kernel.absorbing)
    q = csr[trans][:, trans]
    r = {kernel.states[j]: np.asarray(csr[trans][:, [j]].todense()).ravel()
         for j in np.flatnonzero(kernel.absorbing)}
    return q, r, trans


def check_absorption(kernel, result, tol: float = 1e-9) -> list[str]:
    """Residuals of (I-Q)t = 1 and of the absorption equations, and
    absorption probabilities that sum to 1, recomputed from to_csr()."""
    out: list[str] = []
    q, r, trans = transient_system(kernel)
    _fail_if(list(trans) != list(result.transient), "absorption: transient states differ", out)
    t = result.times
    resid = float(np.abs(t - q @ t - 1.0).max())
    _fail_if(resid > tol * max(1.0, float(np.abs(t).max())), f"absorption: (I-Q)t=1 residual {resid}", out)
    total = np.zeros(len(trans))
    for label, h in result.absorb_probs.items():
        res_h = float(np.abs(h - q @ h - r[label]).max())
        _fail_if(res_h > tol, f"absorption: probability residual {res_h} for {label}", out)
        total += h
    _fail_if(float(np.abs(total - 1.0).max()) > tol, "absorption: probabilities do not sum to 1", out)
    return out


def check_pot_chain(rows: dict[str, dict], kernel, pi) -> list[str]:
    """pi_2 >= 6/13 and pi P = pi; pi is also solved here directly."""
    out: list[str] = []
    p = kernel.to_csr().toarray()
    pi = np.asarray(pi)
    _fail_if(abs(pi.sum() - 1.0) > 1e-12 or bool((pi < 0).any()), "pot chain: pi is not a distribution", out)
    resid = float(np.abs(pi @ p - pi).sum())
    _fail_if(resid > 1e-10, f"pot chain: |pi P - pi| = {resid}", out)
    # pi (P - I) = 0 with one equation replaced by sum(pi) = 1, solved directly
    a = p.T - np.eye(p.shape[0])
    a[-1] = 1.0
    b = np.zeros(p.shape[0])
    b[-1] = 1.0
    direct = spla.spsolve(sp.csc_matrix(a), b)
    i2 = kernel.index[2]
    _fail_if(abs(direct[i2] - pi[i2]) > 1e-9, f"pot chain: pi_2 {pi[i2]} vs direct solve {direct[i2]}", out)
    pi2 = rows["pi_2 >= 6/13"]["measured"]
    _fail_if(abs(pi2 - direct[i2]) > 1e-9, f"pot chain: reported pi_2 {pi2} vs {direct[i2]}", out)
    _fail_if(not pi2 >= 6 / 13, f"pot chain: pi_2 = {pi2} < 6/13", out)
    _fail_if(rows["stationarity residual"]["measured"] > 1e-10, "pot chain: reported residual too large", out)
    return out


def check_mod_chain_rules(kernel, n: int, p_max: int, flavor: str) -> list[str]:
    """The mod-Lambda chain's rows against the rules engine: from every state
    that is a real two-player position below the pot cap, each outcome of
    `apply_spin` must lead to its successor with probability 1/4 per
    outcome.  The formal flavor applies P1's maps on every spin, so only
    its P1 rows are real game steps."""
    lam = 2 * n + 3
    config = GameConfig(k=2, n=n, overdraft=True)
    bad = []
    for x, y, z in kernel.states:
        if x >= p_max or x + y > 2 * n or (flavor == "formal" and z == 2):
            continue
        state = GameState(config=config, pot=x, stacks=(y, 2 * n - x - y), turn=z - 1, alive=(True, True))
        want: dict = {}
        for o in range(4):
            nxt, _ = apply_spin(state, o)
            key = (nxt.pot, nxt.stacks[0] % lam, nxt.turn + 1)
            want[key] = want.get(key, 0.0) + 0.25
        if dict(kernel.successors((x, y, z))) != want:
            bad.append((x, y, z))
    return [f"mod chain n={n} {flavor}: rows differ from game.apply_spin at {bad[:3]}"] if bad else []


def check_hitprob(kernel, values, start, target, avoid, prob: float, tol: float = 1e-10) -> list[str]:
    """Harmonic equations h = P h off the boundary, h = 1 on the target,
    h = 0 on the avoid set, recomputed from to_csr()."""
    out: list[str] = []
    csr = kernel.to_csr()
    h = np.asarray(values)
    tgt = [kernel.index[s] for s in target]
    avd = [kernel.index[s] for s in avoid]
    inner = np.ones(kernel.n_states, dtype=bool)
    inner[tgt + avd] = False
    resid = float(np.abs((h - csr @ h)[inner]).max())
    _fail_if(resid > tol, f"hitprob: harmonic residual {resid}", out)
    _fail_if(not (np.all(h[tgt] == 1.0) and np.all(h[avd] == 0.0)), "hitprob: boundary values", out)
    _fail_if(bool((h < -tol).any() or (h > 1 + tol).any()), "hitprob: h outside [0, 1]", out)
    _fail_if(abs(prob - h[kernel.index[start]]) > 1e-12, f"hitprob: reported {prob} vs h = {h[kernel.index[start]]}", out)
    return out


# ---------------------------------------------------------------------------
# exact


def check_exact(rows: list[dict], n: int) -> list[str]:
    out: list[str] = []
    v = {r["quantity"]: float(r["value"]) for r in rows}
    mu, rat = v["mu_d"], v["mu_d_rational"]
    _fail_if(abs(mu - rat) > 1e-9 * max(1.0, rat), f"exact n={n}: float {mu!r} vs rational {rat!r}", out)
    _fail_if(abs(v["absorb_1"] + v["absorb_2"] - 1.0) > 1e-12, f"exact n={n}: absorption split does not sum to 1", out)
    _fail_if(not mu >= 1.0, f"exact n={n}: mean duration {mu}", out)
    return out


def low_epoch_bound(k: int, s: int, t_s: int) -> int:
    """4^(s(k-1)) * sum_{r < t_s} C(s, r) 3^(s-r)."""
    return 4 ** (s * (k - 1)) * sum(math.comb(s, r) * 3 ** (s - r) for r in range(t_s))


def replay_low_epoch(k: int, s: int, n: int) -> dict[int, int]:
    """Epoch counts of the games where the last player goes home exactly at
    spin ks, by replaying every outcome sequence through the rules engine."""
    upper = k * (n - 1)
    start = new_game(GameConfig(k=k, n=n, overdraft=True))
    by_epochs: dict[int, int] = {}
    for seq in itertools.product(range(4), repeat=k * s):
        state, epochs, alive = start, 0, True
        for t, o in enumerate(seq):
            state, _ = apply_spin(state, o)
            if t % k == k - 1 and o == GANZ:
                w = state.stacks[k - 1]
                home = w < 0 or w > upper
                epochs += 1
                if t == k * s - 1:
                    alive = alive and home
                elif home:
                    alive = False
                    break
            elif t == k * s - 1:
                alive = False
        if alive:
            by_epochs[epochs] = by_epochs.get(epochs, 0) + 1
    return by_epochs


def check_low_epoch(count, k: int, s: int, t_s: int, reference: dict[int, int] | None = None) -> list[str]:
    out: list[str] = []
    by = count.by_epochs
    _fail_if(count.total_games != sum(by.values()), "low-epoch: total != sum of epoch counts", out)
    _fail_if(count.low_epoch_games != sum(c for e, c in by.items() if e < t_s), "low-epoch: low count", out)
    bound = low_epoch_bound(k, s, t_s)
    _fail_if(count.bound != bound, f"low-epoch k={k} s={s}: bound {count.bound} != {bound}", out)
    _fail_if(not count.low_epoch_games <= bound, f"low-epoch k={k} s={s}: {count.low_epoch_games} > bound", out)
    _fail_if(any(e < 1 or e > s for e in by), f"low-epoch: epoch counts outside [1, s]: {sorted(by)}", out)
    if reference is not None:
        _fail_if(by != reference, f"low-epoch k={k} s={s}: {by} vs replay {reference}", out)
    return out


def replay_signatures(k: int, p: int, signature=gamelet_signature) -> dict[tuple, int]:
    """Signature counts of all 4^(pk) gamelets, each replayed through the
    rules engine from an overdraft start (pot k, player 0 on turn).
    `signature` must give the same signature for every sequence; where it
    does not, the sequence is counted under None."""
    n = p * k + 1
    start = new_custom([n] * k, GameConfig(k=k, n=n, overdraft=True))
    counts: dict[tuple, int] = {}
    for seq in itertools.product(range(4), repeat=p * k):
        outcomes = list(seq) + [GANZ]
        state = start
        for o in outcomes:
            state, _ = apply_spin(state, o)
        sig = tuple(e - s for e, s in zip(state.stacks[: k - 1], start.stacks))
        if signature(k, outcomes) != sig:
            sig = None
        counts[sig] = counts.get(sig, 0) + 1
    return counts


def check_gamelets(k: int, p: int, rows: dict[str, dict], table: list[dict],
                   reference: dict[tuple, int] | None = None) -> list[str]:
    out: list[str] = []
    counts = {tuple(int(r[f"u{i + 1}"]) for i in range(k - 1)): int(r["count"]) for r in table}
    total = sum(counts.values())
    _fail_if(total != 4 ** (p * k), f"gamelets k={k} p={p}: total {total} != 4^{p * k}", out)
    failed = [name for name, row in rows.items() if row["verdict"] == "fail"]
    _fail_if(bool(failed), f"gamelets k={k} p={p}: failed {failed}", out)
    if reference is not None:
        _fail_if(counts != reference, f"gamelets k={k} p={p}: table differs from the per-sequence replays", out)
    return out


def check_construct(payload: dict, k: int, n: int, s: int) -> list[str]:
    """Replay a constructed game through the rules engine: k*s legal spins,
    at least floor(alpha*s) epochs, the last player going home at the end
    and nobody earlier."""
    out: list[str] = []
    text = payload["outcomes"]
    if len(text) != k * s or set(text) - set(LETTERS):
        return [f"construct k={k} n={n} s={s}: outcome string of length {len(text)}"]
    t_s = math.floor(payload["alpha"] * s)
    _fail_if(payload["t_s"] != t_s, f"construct: t_s {payload['t_s']} != floor(alpha s) = {t_s}", out)
    upper = k * (n - 1)
    state = new_custom([n] * k, GameConfig(k=k, n=n, overdraft=True))
    epochs = 0
    for t, o in enumerate(LETTERS.index(c) for c in text):
        state, events = apply_spin(state, o)
        if any(e.kind == "eliminated" for e in events):
            return out + [f"construct: elimination at spin {t + 1}"]
        if t % k == k - 1 and o == GANZ:
            epochs += 1
            w = state.stacks[k - 1]
            home = w < 0 or w > upper
            if t == k * s - 1:
                _fail_if(not home, "construct: last player not home at the final spin", out)
            elif home or any(x < 0 for x in state.stacks[: k - 1]):
                return out + [f"construct: a player went home early, at spin {t + 1}"]
        elif t == k * s - 1:
            out.append("construct: the final spin does not close an epoch")
    _fail_if(epochs < t_s, f"construct: {epochs} epochs < {t_s}", out)
    _fail_if(epochs != payload["epochs"], f"construct: replay gives {epochs} epochs, reported {payload['epochs']}", out)
    _fail_if(state.stacks[k - 1] != payload["final_w"], "construct: final_w differs from the replay", out)
    return out


def check_restorative(start, plan) -> list[str]:
    """The plan replays to its end state: pot k, player 0 on turn, stacks
    within one token, tokens conserved."""
    state = start
    for o in plan.outcomes:
        state, _ = apply_spin(state, o)
    k = start.config.k
    ok = (
        state == plan.end_state
        and state.pot == k
        and state.turn == 0
        and max(state.stacks) - min(state.stacks) <= 1
        and plan.m == min(state.stacks)
        and plan.spins == len(plan.outcomes)
        and state.pot + sum(state.stacks) == start.pot + sum(start.stacks)
    )
    return [] if ok else [f"restorative: bad plan from {start.pot, start.stacks, start.turn}"]


def check_concat(report, n_tuples: int) -> list[str]:
    rows = {e.name: e for e in report.entries}
    out: list[str] = []
    _fail_if(rows["illegal or nonzero-payoff concatenations"].measured != 0.0,
             f"concat: {rows['illegal or nonzero-payoff concatenations'].measured} bad concatenations", out)
    _fail_if(rows["tuples checked"].measured != n_tuples, "concat: tuple count", out)
    return out
