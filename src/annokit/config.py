"""Pipeline configuration: key=value files, environment overrides.

Each setting is one ``PipelineConfig`` field, declared once with its
default. Precedence, lowest to highest: those defaults, the config
file, ANNOKIT_<KEY> environment variables, explicit overrides (CLI
flags). A value from any of these is parsed and validated the same way.
"""

import os
from dataclasses import dataclass, fields

from .documents import DEFAULT_ABBREVIATIONS, content_lines, read_text
from .errors import ConfigError, ValidationError
from .inline import OffsetConvention

ENV_PREFIX = "ANNOKIT_"

_PATH_KEYS = ("guideline", "lexicon_terms", "lexicon_tuis", "lexicon_pos",
              "function_words", "abbreviations")


@dataclass
class PipelineConfig:
    store_path: str = "annokit.db"
    guideline: str = ""
    lexicon_terms: str = ""
    lexicon_tuis: str = ""
    lexicon_pos: str = ""
    function_words: str = ""
    abbreviations: str = ""
    min_support: int = 2
    max_nodes: int = 4
    convention: OffsetConvention = OffsetConvention.HALF_OPEN_0
    record_element: str = "RECORD"

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


# setting name -> type, in declaration order
SETTINGS = {f.name: f.type for f in fields(PipelineConfig)}


def _parse_value(key: str, text: str):
    """The typed value of setting ``key`` given as ``text``."""
    kind = SETTINGS[key]
    if kind is int:
        try:
            number = int(text)
        except ValueError as exc:
            raise ConfigError(
                f"{key} must be an integer, got {text!r}") from exc
        if number < 1:
            raise ConfigError(f"{key} must be positive, got {number}")
        return number
    if kind is OffsetConvention:
        try:
            return OffsetConvention.from_string(text)
        except ValidationError as exc:
            raise ConfigError(str(exc)) from exc
    return text


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
        if key not in SETTINGS:
            raise ConfigError(
                f"{source} line {lineno}: unknown setting {key!r}")
        values[key] = value.strip()
    return values


def load_config(path: str | None = None, env=None,
                overrides: dict | None = None) -> PipelineConfig:
    """The configuration from the defaults, the file at ``path``, ``env``
    (default ``os.environ``) and ``overrides``, each over the last; an
    override of None is ignored."""
    env = os.environ if env is None else env
    values = {}

    if path is not None:
        try:
            text = read_text(path)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        values.update(parse_config_text(text, source=path))

    for key in SETTINGS:
        env_value = env.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            values[key] = env_value

    for key, value in (overrides or {}).items():
        if key not in SETTINGS:
            raise ConfigError(f"unknown setting {key!r}")
        if value is not None:
            values[key] = str(value)

    return PipelineConfig(**{key: _parse_value(key, text)
                             for key, text in values.items()})
