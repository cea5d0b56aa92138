"""Run configuration: a flat key = value text file with documented
defaults; command-line flags override file values and unknown keys are
errors."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, DataError
from .evoml import GpConfig

#: the GpConfig fields set by the options named gp_<field>
GP_OPTIONS = ("population_size", "generations", "max_depth", "init_depth",
              "tournament_size", "p_reproduction", "p_crossover", "p_mutation")
#: the least value of each bounded integer option
MINIMUMS = {"seed": 0, "t1_default": 1, "t2_day": 1, "t3_day": 1, "refine_passes": 0, "n_strata": 2,
            "kmeans_k": 1, "synth_n": 0}
#: the options that must lie in (0, 1]
FRACTIONS = ("p_enter", "refine_fraction")


@dataclass
class RunConfig:
    extracts_dir: str = "extracts"
    out_dir: str = "out"
    seed: int = 0
    # variable preparation
    t1_default: int = 4
    t2_day: int = 3
    t3_day: int = 4
    # propensity modeling
    p_enter: float = 0.05
    refine_passes: int = 1
    refine_fraction: float = 0.25
    n_strata: int = 5
    # ML layer
    kmeans_k: int = 4
    gp_population_size: int = 100
    gp_generations: int = 10
    gp_max_depth: int = 17
    gp_init_depth: int = 6
    gp_tournament_size: int = 4
    gp_p_reproduction: float = 0.1
    gp_p_crossover: float = 0.5
    gp_p_mutation: float = 0.5
    # synthetic generation
    synth_n: int = 300
    synth_prevalence: float = 0.12

    @classmethod
    def option_names(cls) -> list:
        return [f.name for f in fields(cls)]

    @classmethod
    def from_text(cls, text: str) -> "RunConfig":
        config = cls()
        known = set(cls.option_names())
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown option {key!r}")
            config.set_option(key, value)
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        return cls.from_text(path.read_text())

    def set_option(self, key: str, value: str) -> None:
        if key not in self.option_names():
            raise ConfigError(f"unknown option {key!r}")
        try:
            parsed = type(getattr(RunConfig, key))(value)  # int, float or str, as the default
        except ValueError:
            raise ConfigError(f"bad value for {key!r}: {value!r}") from None
        if key in MINIMUMS and parsed < MINIMUMS[key]:
            raise ConfigError(f"{key} must be at least {MINIMUMS[key]}, got {parsed}")
        if key in FRACTIONS and not 0.0 < parsed <= 1.0:  # NaN fails too
            raise ConfigError(f"{key} must be in (0, 1], got {parsed}")
        if key == "synth_prevalence" and not 0.0 < parsed < 1.0:
            raise ConfigError(f"synth_prevalence must be in (0, 1), got {parsed}")
        setattr(self, key, parsed)

    def gp_config(self) -> GpConfig:
        """The GP settings of the gp_* options, as GpConfig checks them."""
        try:
            return GpConfig(seed=self.seed, **{name: getattr(self, f"gp_{name}") for name in GP_OPTIONS})
        except DataError as exc:
            raise ConfigError(f"GP options: {exc}") from None
