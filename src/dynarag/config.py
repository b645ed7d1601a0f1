"""Structured configuration for the whole pipeline.

One document (YAML or JSON) drives every module: encoder dimension, hard
negative rate, domain taxonomy and keyword table, routing lexicons, rerank
cascade parameters, verifier weights and the per-turn/per-session time
budgets. Everything has a working default so ``PipelineConfig()`` alone runs
the mock stack.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import yaml

DEFAULT_TAXONOMY = (
    "books", "food", "shopping", "vehicles", "animal",
    "plant", "math", "text", "other",
)

DEFAULT_DOMAIN_KEYWORDS: dict[str, tuple[str, ...]] = {
    "books": ("book", "novel", "author", "wrote", "paperback", "chapter"),
    "food": ("food", "dish", "cafe", "restaurant", "recipe", "meal", "drink", "coffee"),
    "shopping": ("price", "brand", "buy", "cost", "store", "product", "shop"),
    "vehicles": ("car", "vehicle", "truck", "motorcycle", "engine", "production"),
    "animal": ("animal", "dog", "cat", "bird", "breed", "species", "whale"),
    "plant": ("plant", "flower", "tree", "leaf", "succulent", "species"),
    "math": ("integral", "derivative", "sum", "calculate", "equation", "plus", "times"),
    "text": ("written", "sign", "label", "translate", "text", "says"),
}

DEFAULT_UNANSWERABLE_PHRASES = (
    "i don't know",
    "i cannot determine",
    "cannot be determined",
    "unable to identify",
)

DEFAULT_SPECULATIVE_PATTERNS = (
    "likely", "probably", "possibly", "perhaps", "might", "may be",
    "appears to", "seems to", "i think", "i believe", "i assume",
    "roughly", "approximately", "presumably", "could be", "i guess",
)

DEFAULT_OCR_PATTERNS = (
    "written on", "printed on", "text reads", "says", "reads",
    "inscribed", "label shows", "sign shows", "engraved",
)

# Query/trace cues that point at facts not visible in the image.
DEFAULT_OPEN_WORLD_CUES = (
    "price", "cost", "how much", "year", "date", "when", "founded",
    "production", "history", "statistics", "population", "specifications",
    "release", "author", "wrote", "designed", "sculpted", "built",
    "invented", "ceo", "headquarters", "capacity", "how tall", "how high",
    "how heavy", "awards", "who made", "species",
)

# Generic head-noun labels: an object named only by one of these does not
# count as a specific identity.
DEFAULT_GENERIC_LABELS = (
    "car", "cafe", "statue", "building", "jacket", "dog", "cat", "book",
    "plant", "sign", "umbrella", "umbrellas", "kettle", "machine", "tower",
    "bottle", "shoe", "bag", "chair", "table", "phone", "laptop", "drink",
    "food", "toy", "clothing", "brand", "device", "animal", "object",
    "flower", "tree", "vase", "receipt", "expression", "turn", "scene",
    "image", "picture", "photo", "mug", "pastry",
)

DEFAULT_ANALYTIC_PATTERNS = (
    "translate", "translation", "calculate", "integral", "derivative",
    "sum of", "solve", "convert", "how many letters", "plus", "minus",
    "times", "divided",
)

DEFAULT_EXCLUSION_CATEGORIES: dict[str, tuple[str, ...]] = {
    "book": ("book", "novel", "paperback", "hardcover", "textbook"),
    "packaged goods": (
        "bottle", "can", "box", "package", "packet", "jar", "carton",
        "snack", "cereal", "soda", "packaged", "wrapper",
    ),
    "plant": ("plant", "flower", "succulent", "tree", "shrub", "cactus", "leaf"),
}


@dataclass
class EncoderConfig:
    dim: int = 256


@dataclass
class HardNegativeConfig:
    # Negatives injected per positive result; 0.5 means one after every
    # two positives, 0 disables interleaving.
    rate: float = 0.0


@dataclass
class AgentConfig:
    k_per_query: int = 10
    k_total: int = 10
    object_num: int = 5
    entity_threshold: float = 0.5

    def __post_init__(self):
        for name in ("k_per_query", "k_total", "object_num"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class RerankConfig:
    k1: int = 20
    k2: int = 5
    tau_coarse: float = 0.2
    tau_fine: float = 0.3
    n_query_tokens: int = 8
    max_chunk_chars: int = 512
    chunk_overlap: int = 64

    def __post_init__(self):
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("k1 and k2 must be positive")
        if self.k2 > self.k1:
            raise ValueError("k2 must not exceed k1")
        for name in ("tau_coarse", "tau_fine"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.n_query_tokens < 1:
            raise ValueError("n_query_tokens must be positive")
        if not (0 <= self.chunk_overlap < self.max_chunk_chars):
            raise ValueError("chunk_overlap must be smaller than max_chunk_chars")


@dataclass
class VerifierConfig:
    w_min: float = 0.5
    w_mean: float = 0.5
    tau_white: float = 0.75


@dataclass
class LimitsConfig:
    turn_deadline_s: float = 10.0
    session_budget_s: float = 30.0


@dataclass
class RoutingConfig:
    unanswerable_phrases: tuple[str, ...] = DEFAULT_UNANSWERABLE_PHRASES
    speculative_patterns: tuple[str, ...] = DEFAULT_SPECULATIVE_PATTERNS
    ocr_patterns: tuple[str, ...] = DEFAULT_OCR_PATTERNS
    open_world_cues: tuple[str, ...] = DEFAULT_OPEN_WORLD_CUES
    generic_labels: tuple[str, ...] = DEFAULT_GENERIC_LABELS
    analytic_patterns: tuple[str, ...] = DEFAULT_ANALYTIC_PATTERNS
    exclusion_categories: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_EXCLUSION_CATEGORIES)
    )


@dataclass
class DomainConfig:
    taxonomy: tuple[str, ...] = DEFAULT_TAXONOMY
    keywords: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_DOMAIN_KEYWORDS)
    )

    def __post_init__(self):
        if "other" not in self.taxonomy:
            raise ValueError('taxonomy must contain the catch-all "other"')


@dataclass
class PathsConfig:
    web_corpus: str | None = None
    kg_corpus: str | None = None
    image_fixtures: str | None = None
    model_fixtures: str | None = None


@dataclass
class PipelineConfig:
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    hard_negative: HardNegativeConfig = field(default_factory=HardNegativeConfig)
    agents: AgentConfig = field(default_factory=AgentConfig)
    rerank: RerankConfig = field(default_factory=RerankConfig)
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    limits: LimitsConfig = field(default_factory=LimitsConfig)
    routing: RoutingConfig = field(default_factory=RoutingConfig)
    domains: DomainConfig = field(default_factory=DomainConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Defaults overridden by ``raw``; an unknown section or key raises
        ValueError, so a misspelt setting cannot run silently on defaults."""
        return _load_section(cls(), raw, "config")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        """``from_dict`` of the YAML or JSON document at ``path``. A relative
        ``paths.*`` entry names a file relative to the config file's own
        directory, not the current one; an absolute entry is kept."""
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        try:
            raw = json.loads(text) if path.suffix == ".json" else yaml.safe_load(text)
        except yaml.YAMLError as exc:
            # one line: the parser's message spans several
            raise ValueError("invalid YAML: " + " ".join(str(exc).split())) from exc
        config = cls.from_dict(raw or {})
        base = path.absolute().parent
        for f in fields(config.paths):
            value = getattr(config.paths, f.name)
            if value:
                setattr(config.paths, f.name, str(base / value))
        return config


def _load_section(defaults, overrides: dict, where: str):
    names = [f.name for f in fields(defaults)]
    unknown = sorted(set(overrides) - set(names))
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(str, unknown))}")
    kwargs = {}
    for name in names:
        value = getattr(defaults, name)
        if name in overrides:
            override = overrides[name]
            if is_dataclass(value):
                override = _load_section(value, override, name)
            elif isinstance(value, tuple) and isinstance(override, list):
                override = tuple(override)
            elif isinstance(value, dict) and isinstance(override, dict):
                override = {
                    k: tuple(v) if isinstance(v, list) else v for k, v in override.items()
                }
            value = override
        kwargs[name] = value
    return type(defaults)(**kwargs)
