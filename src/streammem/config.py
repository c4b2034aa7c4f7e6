"""Run configuration and the flat key=value config file format.

Each key is declared once, on its `RunConfig` field (`_key`): its name,
its lower bound or choices, and whether only Stage 2 reads it. Parsing,
validation, the dump and the Stage-2 override check read those fields.
"""

from dataclasses import dataclass, field, fields

from .errors import ConfigError

TEMPORAL_MODES = ("per_layer", "final")


def _key(key: str, default, low=None, choices=None, stage2=False):
    """A field read from the config-file key `key`, at least `low` or one
    of `choices` when given; `stage2` if only Stage 2 reads it."""
    return field(default=default, metadata=dict(
        key=key, low=low, choices=choices, stage2=stage2))


@dataclass
class RunConfig:
    d: int = _key("model.d", 64, low=1)
    heads: int = _key("model.heads", 4, low=1)
    layers: int = _key("model.layers", 8, low=1)
    n_read: int = _key("memory.n_read", 32, low=1)  # N_R = N_Q
    n_write: int = _key("memory.n_write", 2, low=1)  # W, tokens per frame
    subclip_frames: int = _key("stream.subclip_frames", 16, low=1)  # F
    L: int = _key("dfs.L", 64, low=1, stage2=True)  # top-L candidates
    knn_k: int = _key("dfs.knn_k", 5, low=1, stage2=True)  # K, <= |Z|-1
    Kc: int = _key("dfs.Kc", 8, low=1, stage2=True)  # selected frames
    pool_tokens: int = _key("dfs.pool_tokens", 32, low=1, stage2=True)  # p
    seed: int = _key("seed", 0, low=0)
    residual_read: bool = _key("mode.residual_read", True)
    temporal: str = _key("mode.temporal", "per_layer",
                         choices=TEMPORAL_MODES)
    z_repr: str = _key("mode.z_repr", "mean", choices=("mean", "concat"),
                       stage2=True)

    def validate(self) -> "RunConfig":
        for f in fields(self):
            value, low, choices = (getattr(self, f.name), f.metadata["low"],
                                   f.metadata["choices"])
            if low is not None and value < low:
                raise ConfigError(f"{f.name} must be at least {low}")
            if choices and value not in choices:
                raise ConfigError(f"{f.name} must be one of {choices}")
        if self.d % self.heads != 0:
            raise ConfigError("d must be divisible by heads")
        if self.L < self.Kc:
            raise ConfigError("L must be at least Kc")
        return self

    def require(self, name: str, value, what: str) -> None:
        """Raise ConfigError unless `value`, the `what` of an artifact, is
        this config's `name` field."""
        if value != getattr(self, name):
            key = self.__dataclass_fields__[name].metadata["key"]
            raise ConfigError(f"{what} {value} does not match {key} "
                              f"{getattr(self, name)}")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


# the keys only Stage 2 reads; every other key shaped the bank, the spill
# or the model whose tau `assemble` draws
STAGE2_KEYS = tuple(f.metadata["key"] for f in fields(RunConfig)
                    if f.metadata["stage2"])


def check_stage2_override(run: RunConfig, given: RunConfig) -> None:
    """Raise ConfigError naming the first key, other than a Stage-2 key,
    in which `given` differs from `run`, the config the run was made
    with."""
    for f in fields(RunConfig):
        value, run_value = getattr(given, f.name), getattr(run, f.name)
        if not f.metadata["stage2"] and value != run_value:
            raise ConfigError(f"{f.metadata['key']}={value} differs from "
                              f"the run's {run_value}; a config may change "
                              f"only {', '.join(STAGE2_KEYS)}")


def parse_config(text: str) -> RunConfig:
    config = RunConfig()
    by_key = {f.metadata["key"]: f for f in fields(RunConfig)}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key not in by_key:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        # the default's type picks the parser; a postponed annotation
        # would be a string
        default = by_key[key].default
        parser = _parse_bool if isinstance(default, bool) else type(default)
        try:
            value = parser(raw_value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}")
        setattr(config, by_key[key].name, value)
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
        lines.append(f"{f.metadata['key']}={value}")
    return "\n".join(lines) + "\n"
