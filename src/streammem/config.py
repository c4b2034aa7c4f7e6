"""Run configuration and the flat key=value config file format."""

from dataclasses import dataclass, fields

from .errors import ConfigError

TEMPORAL_MODES = ("per_layer", "final")
Z_REPR_MODES = ("mean", "concat")


@dataclass
class RunConfig:
    d: int = 64
    heads: int = 4
    layers: int = 8
    n_read: int = 32  # read/perceiver query count (N_R = N_Q)
    n_write: int = 2  # tokens written to memory per frame (W)
    subclip_frames: int = 16  # F
    L: int = 64  # instruction-based top-L candidate count
    knn_k: int = 5  # K in the density estimate, clamped to |Z|-1
    Kc: int = 8  # number of selected representative frames
    pool_tokens: int = 32  # p pooled tokens per selected frame
    seed: int = 0
    residual_read: bool = True
    temporal: str = "per_layer"
    z_repr: str = "mean"

    def validate(self) -> "RunConfig":
        for name in ("d", "heads", "layers", "n_read", "n_write",
                     "subclip_frames", "L", "knn_k", "Kc", "pool_tokens"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must not be negative")
        if self.d % self.heads != 0:
            raise ConfigError("d must be divisible by heads")
        if self.L < self.Kc:
            raise ConfigError("L must be at least Kc")
        if self.temporal not in TEMPORAL_MODES:
            raise ConfigError(f"temporal mode must be one of {TEMPORAL_MODES}")
        if self.z_repr not in Z_REPR_MODES:
            raise ConfigError(f"z_repr must be one of {Z_REPR_MODES}")
        return self


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


# config-file key -> (attribute, parser)
_KEYS = {
    "model.d": ("d", int),
    "model.heads": ("heads", int),
    "model.layers": ("layers", int),
    "memory.n_read": ("n_read", int),
    "memory.n_write": ("n_write", int),
    "stream.subclip_frames": ("subclip_frames", int),
    "dfs.L": ("L", int),
    "dfs.knn_k": ("knn_k", int),
    "dfs.Kc": ("Kc", int),
    "dfs.pool_tokens": ("pool_tokens", int),
    "mode.residual_read": ("residual_read", _parse_bool),
    "mode.temporal": ("temporal", str),
    "mode.z_repr": ("z_repr", str),
    "seed": ("seed", int),
}

_ATTR_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}

# the keys only Stage 2 reads; every other key shaped the bank, the spill
# or the model whose tau `assemble` draws
STAGE2_KEYS = ("dfs.L", "dfs.knn_k", "dfs.Kc", "dfs.pool_tokens",
               "mode.z_repr")


def check_stage2_override(run: RunConfig, given: RunConfig) -> None:
    """Raise ConfigError naming the first key, other than a Stage-2 key,
    in which `given` differs from `run`, the config the run was made
    with."""
    for key, (attr, _) in _KEYS.items():
        value, run_value = getattr(given, attr), getattr(run, attr)
        if key not in STAGE2_KEYS and value != run_value:
            raise ConfigError(f"{key}={value} differs from the run's "
                              f"{run_value}; a config may change only "
                              f"{', '.join(STAGE2_KEYS)}")


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parser = _KEYS[key]
        try:
            value = parser(raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
        setattr(config, attr, value)
    return config.validate()


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {exc}") from exc
    return parse_config(text)


def format_config(config: RunConfig) -> str:
    """Canonical key=value dump, stable field order."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{_ATTR_TO_KEY[f.name]}={value}")
    return "\n".join(lines) + "\n"
