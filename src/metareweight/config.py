"""Plain-text experiment configuration.

Format: ``key = value`` lines grouped under ``[blob]``, ``[noise]``,
``[train]`` and ``[experiment]`` section headers; ``#`` starts a comment.
Unknown sections, unknown or repeated keys and unparsable values are
rejected with the offending line number; values that break a rule (a range,
a repeated grid entry, a size beyond memory) with the rule and the line
that set them.  An empty file yields the documented defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .bilevel import TrainConfig, Variant, check_group_memory
from .data import BlobSpec, format_value
from .noise import NoiseKind, NoiseSpec
from .numkit import FieldError, Rng, check_fields


def rate_label(rate: float) -> str:
    """A noise rate as it appears in run file names."""
    return f"{rate:g}"


def _owned(field: str, rule, *args) -> None:
    """``rule(*args)``, its ValueError or TypeError raised as a FieldError on
    ``field``."""
    try:
        rule(*args)
    except (TypeError, ValueError) as exc:
        raise FieldError(field, str(exc)) from exc


def _distinct(values: tuple, field: str, what: str) -> None:
    """FieldError on ``field`` at the first repeated entry of ``values``."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise FieldError(field, f"duplicate {what} {getattr(v, 'value', v)!r}")


def _check_output_dir(path: str) -> None:
    # The serialized config writes the value bare on one line, so it must
    # survive comment stripping, line splitting and whitespace stripping.
    if "#" in path or len(path.splitlines()) > 1 or path != path.strip():
        raise FieldError("output_dir", f"output_dir {path!r} must not contain '#' or a "
                         "line break, nor start or end with whitespace")


@dataclass(frozen=True)
class ExperimentConfig:
    blob: BlobSpec = BlobSpec()
    noise_kinds: tuple[NoiseKind, ...] = (NoiseKind.UNIFORM,)
    noise_rates: tuple[float, ...] = (0.0, 0.4)
    variants: tuple[Variant, ...] = (Variant.CLEAN_CE, Variant.NOISY_CE, Variant.NOISY_MAE)
    train: TrainConfig = TrainConfig()
    num_seeds: int = 5
    seed: int = 1
    output_dir: str = "out"
    workers: int = 1

    def __post_init__(self):
        check_fields(self, ("num_seeds", "workers"), lambda v: v >= 1, "be >= 1")
        check_fields(self, ("noise_kinds", "noise_rates", "variants"), len, "be nonempty")
        _owned("seed", Rng, self.seed)
        for kind in self.noise_kinds:
            _owned("noise_kinds", NoiseSpec, kind, 0.0, self.blob.num_classes)
        for rate in self.noise_rates:
            _owned("noise_rates", NoiseSpec, NoiseKind.UNIFORM, rate, self.blob.num_classes)
        _distinct(self.noise_kinds, "noise_kinds", "noise kind")
        _distinct(self.noise_rates, "noise_rates", "noise rate")
        named = {}
        for rate in self.noise_rates:  # distinct rates, so a shared name is a collision
            other = named.setdefault(rate_label(rate), rate)
            if other != rate:
                raise FieldError("noise_rates", f"noise rates {other!r} and {rate!r} would "
                                 f"both write run files named *_{rate_label(rate)}_*.csv")
        _distinct(self.variants, "variants", "variant")
        _check_output_dir(self.output_dir)
        check_group_memory(self.blob, self.train,
                           len(self.variants) * len(self.noise_kinds) * len(self.noise_rates))


class ConfigError(ValueError):
    """A config that cannot be used.  When a rule rejects a value the file
    set, the message states the rule as its owner words it and
    ``location`` gives the file, line and text that set the value."""

    def __init__(self, message: str, location: str | None = None):
        super().__init__(message)
        self.location = location


def _parse_list(s: str, item):
    return tuple(item(part.strip()) for part in s.split(",") if part.strip())


# section -> key -> (target field, parser)
_SCHEMA = {
    "blob": {
        "classes": ("num_classes", int),
        "dim": ("dim", int),
        "n_train": ("n_train", int),
        "n_meta": ("n_meta", int),
        "n_test": ("n_test", int),
        "separation": ("separation", float),
        "cluster_std": ("cluster_std", float),
    },
    "noise": {
        "kinds": ("noise_kinds", lambda s: _parse_list(s, lambda x: NoiseKind(x.lower()))),
        "rates": ("noise_rates", lambda s: _parse_list(s, float)),
    },
    "train": {
        "train_batch": ("train_batch", int),
        "meta_batch": ("meta_batch", int),
        "classifier_lr": ("classifier_lr", float),
        "meta_lr": ("meta_lr", float),
        "momentum": ("momentum", float),
        "weight_decay": ("weight_decay", float),
        "epochs": ("epochs", int),
        "lr_milestones": ("lr_milestones", lambda s: _parse_list(s, int)),
    },
    "experiment": {
        "variants": ("variants", lambda s: _parse_list(s, lambda x: Variant(x.lower()))),
        "num_seeds": ("num_seeds", int),
        "seed": ("seed", int),
        "output_dir": ("output_dir", str),
        "workers": ("workers", int),
    },
}


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    sections: dict[str, dict] = {name: {} for name in _SCHEMA}
    set_at: dict[str, str] = {}  # field -> "file:line: key = value" (fields are unique)
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip().lower()
            if current not in _SCHEMA:
                raise ConfigError(f"{source}:{lineno}: unknown section [{current}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if current is None:
            raise ConfigError(f"{source}:{lineno}: key outside any section")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}' in section [{current}]")
        field_name, parser = _SCHEMA[current][key]
        if field_name in sections[current]:
            raise ConfigError(f"{source}:{lineno}: key '{key}' repeated in section [{current}]")
        try:
            sections[current][field_name] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {exc}") from exc
        set_at[field_name] = f"{source}:{lineno}: {key} = {value}"

    try:
        return ExperimentConfig(blob=BlobSpec(**sections["blob"]),
                                train=TrainConfig(**sections["train"]),
                                **sections["noise"], **sections["experiment"])
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}",
                          set_at.get(getattr(exc, "field", None))) from exc


def parse_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text(), source=str(p))


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(map(format_value, value))
    return format_value(value)


def serialize_config(cfg: ExperimentConfig) -> str:
    """Every schema key, in schema order, in the format ``parse_config_text``
    reads back to an equal config."""
    owners = {"blob": cfg.blob, "train": cfg.train}
    blocks = []
    for section, keys in _SCHEMA.items():
        owner = owners.get(section, cfg)
        blocks.append("\n".join(
            [f"[{section}]"] + [f"{key} = {_format_value(getattr(owner, name))}"
                                for key, (name, _) in keys.items()]))
    return "\n\n".join(blocks) + "\n"
