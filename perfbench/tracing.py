"""Spans around the calls into each dreidel_lab layer, recorded from the
benchmark's side.

Nothing inside the program is instrumented.  `Tracer.install` replaces a
public function by a timing wrapper in every dreidel_lab module namespace
that holds it, which is where callers look it up (`from .solvers import
HitSolver` makes a second binding in hitting_bounds), and `uninstall`
puts the originals back.  The per-layer metrics are then sums over the
recorded spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


def _kernel_size(kernel) -> dict:
    return {"states": kernel.n_states, "transitions": sum(len(r) for r in kernel.rows)}


# (module, attribute, span name, counts taken from (args, kwargs, result));
# an attribute "Class.method" wraps a method on the class itself.
TARGETS = [
    ("game", "play_game", "game.play_game", lambda a, kw, r: {"spins": r.duration}),
    ("epochs", "run_metaslowdel", "epochs.run_metaslowdel", lambda a, kw, r: {"records": 1}),
    ("montecarlo", "sample_epochs", "montecarlo.sample_epochs", lambda a, kw, r: {"k": a[0], "epochs": a[1]}),
    ("montecarlo", "sample_stopping", "montecarlo.sample_stopping", lambda a, kw, r: {"records": a[3]}),
    ("montecarlo", "sample_durations", "montecarlo.sample_durations",
     lambda a, kw, r: {"k": a[0].k, "spins": int(r.sum())}),
    ("montecarlo", "PayoffStats.from_sample", "montecarlo.stats", None),
    ("montecarlo", "moment_report", "montecarlo.stats", None),
    ("montecarlo", "tail_report", "montecarlo.stats", None),
    ("montecarlo", "landslide_report", "montecarlo.stats", None),
    ("montecarlo", "wald_report", "montecarlo.stats", None),
    ("kernels", "build_mod_chain", "kernels.build_mod_chain", lambda a, kw, r: _kernel_size(r)),
    ("kernels", "build_game_chain", "kernels.build_game_chain", lambda a, kw, r: _kernel_size(r)),
    ("kernels", "build_pot_chain", "kernels.build_pot_chain", lambda a, kw, r: _kernel_size(r)),
    ("kernels", "diagnostics", "kernels.diagnostics", None),
    ("solvers", "HitSolver.__init__", "solvers.hit_solver", None),
    ("solvers", "mean_return_time", "solvers.mean_return", None),
    ("solvers", "absorption_stats", "solvers.absorption_stats", None),
    ("solvers", "absorption_time_exact", "solvers.absorption_exact", lambda a, kw, r: {"states": a[0].n_states}),
    ("hitting_bounds", "bound_tables", "hitting_bounds.bound_tables", None),
    ("hitting_bounds", "stable_quantities", "hitting_bounds.stable_quantities",
     lambda a, kw, r: {"n": a[0], "cap": r[1]}),
    ("hitting_bounds", "identity_checks", "hitting_bounds.identity_checks",
     lambda a, kw, r: {"queries": 4 * len(r.complementarity)}),
    ("gamelets", "enumerate_signatures", "gamelets.enumerate_signatures",
     lambda a, kw, r: {"gamelets": 4 ** (a[0] * a[1])}),
    ("gamelets", "concat_check", "gamelets.concat_check", None),
    ("construction", "count_low_epoch_games", "construction.count_low_epoch_games",
     lambda a, kw, r: {"sequences": 4 ** (a[0] * a[1])}),
    ("construction", "construct_long_game", "construction.construct_long_game",
     lambda a, kw, r: {"spins": r.total_spins}),
    ("construction", "restorative_sequence", "construction.restorative_sequence", None),
]

CLI_COMMANDS = ["epochs", "wald", "simulate", "report", "bounds", "scaling", "pot-chain",
                "hitprob", "exact", "gamelets", "construct"]


class Tracer:
    """In-memory spans: name, start, end, parent, and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if counter is not None:
                    rec["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "dreidel_lab", targets=TARGETS) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, attr, name, counter in targets:
            owner = sys.modules.get(f"{package}.{mod_name}")
            if owner is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, counter))
                else:
                    new = self.wrap(raw, name, counter)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(orig, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    selft = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            selft[s["parent"]] -= s["end"] - s["start"]
    return selft


# metric name -> (unit, better)
PER_LAYER = {
    "game.play_game_s": ("s", "lower"),
    "game.spins_per_s": ("1/s", "higher"),
    "epochs.run_metaslowdel_s": ("s", "lower"),
    "epochs.records_per_s": ("1/s", "higher"),
    "montecarlo.sample_epochs_s": ("s", "lower"),
    **{f"montecarlo.epochs_per_s.k{k}": ("1/s", "higher") for k in (2, 3, 4)},
    "montecarlo.sample_stopping_s": ("s", "lower"),
    "montecarlo.stopping_records_per_s": ("1/s", "higher"),
    **{f"montecarlo.sample_durations_s.k{k}": ("s", "lower") for k in (2, 3, 4)},
    **{f"montecarlo.spins_per_s.k{k}": ("1/s", "higher") for k in (2, 3, 4)},
    "montecarlo.stats_s": ("s", "lower"),
    "kernels.build_mod_chain_s": ("s", "lower"),
    "kernels.build_game_chain_s": ("s", "lower"),
    "kernels.states_built": ("count", "lower"),
    "kernels.transitions_built": ("count", "lower"),
    "kernels.states_per_s": ("1/s", "higher"),
    "kernels.diagnostics_s": ("s", "lower"),
    "solvers.hit_solver_s": ("s", "lower"),
    "solvers.hit_solvers": ("count", "lower"),
    "solvers.hit_solver_ms": ("ms", "lower"),
    "solvers.mean_return_s": ("s", "lower"),
    "solvers.absorption_stats_s": ("s", "lower"),
    "solvers.absorption_exact_s": ("s", "lower"),
    "solvers.exact_states": ("count", "lower"),
    "hitting_bounds.bound_tables_s": ("s", "lower"),
    "hitting_bounds.identity_checks_s": ("s", "lower"),
    "hitting_bounds.self_s": ("s", "lower"),
    "hitting_bounds.queries": ("count", "lower"),
    "hitting_bounds.final_cap": ("count", "lower"),
    "gamelets.enumerate_signatures_s": ("s", "lower"),
    "gamelets.gamelets_per_s": ("1/s", "higher"),
    "gamelets.concat_check_s": ("s", "lower"),
    "construction.count_low_epoch_games_s": ("s", "lower"),
    "construction.sequences_per_s": ("1/s", "higher"),
    "construction.construct_long_game_s": ("s", "lower"),
    "construction.restorative_sequence_s": ("s", "lower"),
    "construction.spins_per_s": ("1/s", "higher"),
    **{f"cli.{c}_s": ("s", "lower") for c in CLI_COMMANDS},
    "trace.wall_s": ("s", "lower"),
}


def layer_metrics(spans: list[dict], rounds: int, round_wall: float) -> dict[str, float]:
    """Per-layer metrics of a traced run, per round: times and counts are
    averaged over the rounds, rates are total work over total time, and
    trace.wall_s is the traced run's round time `round_wall`."""
    time_in: dict[str, float] = {}
    counts: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0) + value

    selft = self_times(spans)
    for s, own in zip(spans, selft):
        name, c = s["name"], s["counts"]
        dur = s["end"] - s["start"]
        keys = [name]
        if "k" in c:
            keys.append(f"{name}.k{c['k']}")
        for key in keys:
            time_in[key] = time_in.get(key, 0.0) + dur
            for field, value in c.items():
                if field != "k":
                    add(f"{key}:{field}", value)
            add(f"{key}:calls", 1)
        if name.startswith("hitting_bounds."):
            time_in["hitting_bounds.self"] = time_in.get("hitting_bounds.self", 0.0) + own
        if name == "hitting_bounds.stable_quantities":
            n, cap = c["n"], c["cap"]
            levels = (cap // (8 * n)).bit_length()  # caps 8n, 16n, ..., cap
            add("hitting_bounds.queries", levels * (2 * (n + 1) + 4))

    def t(key: str) -> float:
        return time_in.get(key, 0.0)

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    build = [f"kernels.build_{c}_chain" for c in ("mod", "game", "pot")]
    states = sum(counts.get(f"{b}:states", 0) for b in build)
    out = {
        "game.play_game_s": t("game.play_game"),
        "game.spins_per_s": rate(counts.get("game.play_game:spins", 0), t("game.play_game")),
        "epochs.run_metaslowdel_s": t("epochs.run_metaslowdel"),
        "epochs.records_per_s": rate(counts.get("epochs.run_metaslowdel:records", 0), t("epochs.run_metaslowdel")),
        "montecarlo.sample_epochs_s": t("montecarlo.sample_epochs"),
        "montecarlo.sample_stopping_s": t("montecarlo.sample_stopping"),
        "montecarlo.stopping_records_per_s": rate(counts.get("montecarlo.sample_stopping:records", 0),
                                                  t("montecarlo.sample_stopping")),
        "montecarlo.stats_s": t("montecarlo.stats"),
        "kernels.build_mod_chain_s": t("kernels.build_mod_chain"),
        "kernels.build_game_chain_s": t("kernels.build_game_chain"),
        "kernels.states_built": states,
        "kernels.transitions_built": sum(counts.get(f"{b}:transitions", 0) for b in build),
        "kernels.states_per_s": rate(states, sum(t(b) for b in build)),
        "kernels.diagnostics_s": t("kernels.diagnostics"),
        "solvers.hit_solver_s": t("solvers.hit_solver"),
        "solvers.hit_solvers": counts.get("solvers.hit_solver:calls", 0),
        "solvers.hit_solver_ms": 1e3 * rate(t("solvers.hit_solver"), counts.get("solvers.hit_solver:calls", 0)),
        "solvers.mean_return_s": t("solvers.mean_return"),
        "solvers.absorption_stats_s": t("solvers.absorption_stats"),
        "solvers.absorption_exact_s": t("solvers.absorption_exact"),
        "solvers.exact_states": counts.get("solvers.absorption_exact:states", 0),
        "hitting_bounds.bound_tables_s": t("hitting_bounds.bound_tables"),
        "hitting_bounds.identity_checks_s": t("hitting_bounds.identity_checks"),
        "hitting_bounds.self_s": t("hitting_bounds.self"),
        "hitting_bounds.queries": counts.get("hitting_bounds.queries", 0)
        + counts.get("hitting_bounds.identity_checks:queries", 0),
        "hitting_bounds.final_cap": counts.get("hitting_bounds.stable_quantities:cap", 0),
        "gamelets.enumerate_signatures_s": t("gamelets.enumerate_signatures"),
        "gamelets.gamelets_per_s": rate(counts.get("gamelets.enumerate_signatures:gamelets", 0),
                                        t("gamelets.enumerate_signatures")),
        "gamelets.concat_check_s": t("gamelets.concat_check"),
        "construction.count_low_epoch_games_s": t("construction.count_low_epoch_games"),
        "construction.sequences_per_s": rate(counts.get("construction.count_low_epoch_games:sequences", 0),
                                             t("construction.count_low_epoch_games")),
        "construction.construct_long_game_s": t("construction.construct_long_game"),
        "construction.restorative_sequence_s": t("construction.restorative_sequence"),
        "construction.spins_per_s": rate(counts.get("construction.construct_long_game:spins", 0),
                                         t("construction.construct_long_game")),
        "trace.wall_s": round_wall,
    }
    for k in (2, 3, 4):
        out[f"montecarlo.epochs_per_s.k{k}"] = rate(counts.get(f"montecarlo.sample_epochs.k{k}:epochs", 0),
                                                    t(f"montecarlo.sample_epochs.k{k}"))
        out[f"montecarlo.sample_durations_s.k{k}"] = t(f"montecarlo.sample_durations.k{k}")
        out[f"montecarlo.spins_per_s.k{k}"] = rate(counts.get(f"montecarlo.sample_durations.k{k}:spins", 0),
                                                   t(f"montecarlo.sample_durations.k{k}"))
    for c in CLI_COMMANDS:
        out[f"cli.{c}_s"] = t(f"cli.{c}")
    # totals become per-round figures; rates, means and the round time already are
    for key, (unit, _) in PER_LAYER.items():
        if unit in ("s", "count") and key != "trace.wall_s":
            out[key] /= rounds
    return out
