"""Flat key=value run configuration with strict validation.

Lines are `key = value`; blank lines and `#` comments are ignored.
Unknown keys are rejected, and every value is checked against its allowed
set before any work starts.
"""

from dataclasses import dataclass, field, fields

from .params import ATTENTION_KINDS, MASS_VARIANTS, MDR_VARIANTS
from .training import Hyperparams

MODELS = ("mdr", "mass", "masr")


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes"):
        return True
    if v in ("0", "false", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


_HYPER_KEYS = tuple(f.name for f in fields(Hyperparams))

# key -> (parser, default); each hyperparameter's type parses it
_SCHEMA = {
    "model": (str, "mdr"),
    "mdr_variant": (str, "ups"),
    "mass_variant": (str, "us"),
    "attention": (str, "mem_metric"),
    "alpha": (float, 0.5),
    "use_bias": (_parse_bool, True),
    "split_dir": (str, ""),
    "out_dir": (str, "."),
    "mdr_checkpoint": (str, ""),
    "mass_checkpoint": (str, ""),
    **{f.name: (f.type, f.default) for f in fields(Hyperparams)},
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)

    def __getattr__(self, key):
        try:
            return self.values[key]
        except KeyError:
            raise AttributeError(key)

    def hyperparams(self):
        return Hyperparams(**{k: self.values[k] for k in _HYPER_KEYS})

    def validate(self):
        v = self.values
        if v["model"] not in MODELS:
            raise ValueError(f"invalid config key model: {v['model']!r}")
        if v["mdr_variant"] not in MDR_VARIANTS:
            raise ValueError(f"invalid config key mdr_variant: {v['mdr_variant']!r}")
        if v["mass_variant"] not in MASS_VARIANTS:
            raise ValueError(f"invalid config key mass_variant: {v['mass_variant']!r}")
        if v["attention"] not in ATTENTION_KINDS:
            raise ValueError(f"invalid config key attention: {v['attention']!r}")
        if not 0.0 <= v["alpha"] <= 1.0:
            raise ValueError(f"invalid config key alpha: {v['alpha']!r}")
        self.hyperparams().validate()
        return self


def parse_config(path):
    """Read and validate a config file. A key given twice is refused, not
    overridden by its last line."""
    raw, lines = {}, {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: malformed config line {lineno}: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in raw:
                raise ValueError(f"{path}: config key {key} repeated on lines "
                                 f"{lines[key]} and {lineno}")
            raw[key], lines[key] = value, lineno

    values = {k: default for k, (_, default) in _SCHEMA.items()}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ValueError(f"unknown config key: {key}")
        parser, _ = _SCHEMA[key]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ValueError(f"invalid config key {key}: {exc}") from exc
    return RunConfig(values=values).validate()
