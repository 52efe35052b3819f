"""Simulation and exact-numerics laboratory for dreidel variants."""

from .game import (
    GameConfig,
    GameError,
    GameOverError,
    GameState,
    Spin,
    SpinCapExceeded,
    Transcript,
    apply_spin,
    new_custom,
    new_game,
    play_game,
)
from .epochs import (
    EpochBoundaryError,
    EpochRecord,
    StoppingRecord,
    run_epoch,
    run_metaslowdel,
)
from .rng import GANZ, HALB, NISHT, SHTEL, make_generator

__version__ = "0.1.0"

__all__ = [
    "GameConfig",
    "GameError",
    "GameOverError",
    "GameState",
    "Spin",
    "SpinCapExceeded",
    "Transcript",
    "apply_spin",
    "new_custom",
    "new_game",
    "play_game",
    "EpochBoundaryError",
    "EpochRecord",
    "StoppingRecord",
    "run_epoch",
    "run_metaslowdel",
    "GANZ",
    "HALB",
    "NISHT",
    "SHTEL",
    "make_generator",
    "__version__",
]
