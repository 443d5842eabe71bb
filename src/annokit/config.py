"""Pipeline configuration: key=value files, environment overrides.

Precedence, lowest to highest: built-in defaults, config file,
ANNOKIT_<KEY> environment variables, explicit overrides (CLI flags).
"""

import os
from dataclasses import dataclass

from .documents import DEFAULT_ABBREVIATIONS, content_lines
from .errors import ConfigError, ValidationError
from .inline import OffsetConvention

ENV_PREFIX = "ANNOKIT_"

DEFAULTS = {
    "store_path": "annokit.db",
    "guideline": "",
    "lexicon_terms": "",
    "lexicon_tuis": "",
    "lexicon_pos": "",
    "function_words": "",
    "abbreviations": "",
    "max_phrase_tokens": "12",
    "min_support": "2",
    "max_nodes": "4",
    "convention": "half_open_0",
    "record_element": "RECORD",
    "jobs": "1",
}

_PATH_KEYS = ("guideline", "lexicon_terms", "lexicon_tuis", "lexicon_pos",
              "function_words", "abbreviations")
_INT_KEYS = ("max_phrase_tokens", "min_support", "max_nodes", "jobs")


@dataclass
class PipelineConfig:
    store_path: str
    guideline: str
    lexicon_terms: str
    lexicon_tuis: str
    lexicon_pos: str
    function_words: str
    abbreviations: str
    max_phrase_tokens: int
    min_support: int
    max_nodes: int
    convention: OffsetConvention
    record_element: str
    jobs: int

    def validate(self) -> None:
        """Referenced paths must exist; the store path must be set."""
        if not self.store_path:
            raise ConfigError("store_path must not be empty")
        missing = [key for key in _PATH_KEYS
                   if getattr(self, key) and not os.path.exists(
                       getattr(self, key))]
        if missing:
            detail = ", ".join(
                f"{key}={getattr(self, key)!r}" for key in missing)
            raise ConfigError(f"configured paths do not exist: {detail}")

    def abbreviation_set(self) -> frozenset:
        if not self.abbreviations:
            return DEFAULT_ABBREVIATIONS
        return frozenset(line.strip().casefold()
                         for _, line in content_lines(self.abbreviations))


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source} line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ConfigError(
                f"{source} line {lineno}: unknown setting {key!r}")
        values[key] = value.strip()
    return values


def load_config(path: str | None = None, env=None,
                overrides: dict | None = None) -> PipelineConfig:
    env = os.environ if env is None else env
    values = dict(DEFAULTS)

    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        values.update(parse_config_text(text, source=path))

    for key in DEFAULTS:
        env_value = env.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            values[key] = env_value

    for key, value in (overrides or {}).items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown setting {key!r}")
        if value is not None:
            values[key] = str(value)

    kwargs = dict(values)
    for key in _INT_KEYS:
        try:
            kwargs[key] = int(values[key])
        except ValueError as exc:
            raise ConfigError(
                f"{key} must be an integer, got {values[key]!r}") from exc
        if kwargs[key] < 1:
            raise ConfigError(f"{key} must be positive, got {kwargs[key]}")
    try:
        kwargs["convention"] = OffsetConvention.from_string(
            values["convention"])
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    return PipelineConfig(**kwargs)
