"""Pipeline configuration: one JSON document with defaults baked in.

A bare ``{"dataset_path": ..., "out_dir": ...}`` reproduces the reference
setting.  The config digest is a sha256 over every semantic field; the
dataset path and output directory are excluded so the same corpus
processed in two locations yields byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import DATASET_FORMATS
from .features import FAMILY_PHRASE, FAMILY_STRUCTURAL, FAMILY_WORD
from .uncertainty import OUTPUT_UQ_METHODS, REPRESENTATIONS


class ConfigError(ValueError):
    """Unusable configuration (unknown key, invalid value, bad JSON)."""


DIGEST_EXCLUDED = ("dataset_path", "out_dir")
FAMILIES = (FAMILY_WORD, FAMILY_PHRASE, FAMILY_STRUCTURAL)
# Each integer setting's least value (None: any); n_coalitions may be null.
INT_FIELDS = {"seed": 0, "min_df": None, "word_quota": 0, "phrase_quota": 0,
              "k_related": 0, "epochs": 1, "svm_epochs": 1,
              "background_size": 1, "n_coalitions": 1, "k_top": 1,
              "n_topics": 1, "nmf_max_iters": 1, "k_nn": 1}
# The types each flag, real-valued and text setting may have, and their
# name: a real is an int or a float, and a bool is neither.
FLAG, REAL, TEXT = (bool,), (int, float), (str,)
TYPE_NAMES = {FLAG: "true or false", REAL: "a number", TEXT: "a string"}
TYPED_FIELDS = {"subsample_train": FLAG, "nb_linear_attribution": FLAG,
                **dict.fromkeys(("split_ratio", "l2_strength", "svm_c",
                                 "nb_alpha", "tau_p", "nmf_tol",
                                 "temperature", "trr_fix"), REAL),
                **dict.fromkeys(("dataset_path", "out_dir", "label_column",
                                 "text_column"), TEXT)}


@dataclass
class PipelineConfig:
    dataset_path: str = ""
    out_dir: str = ""
    dataset_format: str = "sms_tsv"
    label_column: str = "label"
    text_column: str = "text"
    label_map: dict[str, int] | None = None
    seed: int = 42

    split_ratio: float = 0.5
    min_df: int = 2
    stoplist: str = "default"
    word_quota: int = 7000
    phrase_quota: int = 3000

    classifier: str = "logreg"
    l2_strength: float = 1.0
    svm_c: float = 1.0
    nb_alpha: float = 1.0
    epochs: int = 500
    svm_epochs: int = 2000
    subsample_train: bool = False

    background_size: int = 50
    n_coalitions: int | None = None
    nb_linear_attribution: bool = False

    k_top: int = 200
    tau_p: float = 0.05
    rho: dict[str, float] = field(default_factory=lambda: {
        "word": 0.65, "phrase": 0.3, "structural": 0.05})

    n_topics: int = 10
    nmf_max_iters: int = 500
    nmf_tol: float = 1e-5

    k_related: int = 2
    temperature: float = 2.0
    k_nn: int = 25

    trr_fix: float = 0.95
    base_detector: str = "rel_u"
    repair_representation: str = "original"

    def __post_init__(self):
        for name, least in INT_FIELDS.items():
            value = getattr(self, name)
            if value is None and name == "n_coalitions":
                continue
            # type(), not isinstance: a bool is no count.
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer")
            if least is not None and value < least:
                raise ConfigError(f"{name} must be at least {least}")
        for name, types in TYPED_FIELDS.items():
            if type(getattr(self, name)) not in types:
                raise ConfigError(f"{name} must be {TYPE_NAMES[types]}")
        if self.dataset_format not in DATASET_FORMATS:
            raise ConfigError(f"unknown dataset_format "
                              f"{self.dataset_format!r}")
        if self.label_map is not None and not (
                isinstance(self.label_map, dict)
                and all(type(v) is int and v in (0, 1)
                        for v in self.label_map.values())
                and len({k.lower() for k in self.label_map})
                == len(self.label_map)):
            raise ConfigError("label_map must map label tokens, distinct "
                              "ignoring case, to 0 or 1")
        if self.dataset_format != "generic_csv":
            # sms_tsv has no header and fixed ham/spam labels.
            for name in ("label_column", "text_column", "label_map"):
                if getattr(self, name) != getattr(PipelineConfig, name):
                    raise ConfigError(f"{name} applies only to "
                                      "dataset_format 'generic_csv'")
        if self.classifier not in ("logreg", "svm", "nb"):
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if self.stoplist not in ("default", "none"):
            raise ConfigError("stoplist must be 'default' or 'none'")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError("split_ratio must be in (0, 1)")
        if not 0.0 < self.trr_fix <= 1.0:
            raise ConfigError("trr_fix must be in (0, 1]")
        for name in ("svm_c", "nb_alpha"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be positive")
        if not self.l2_strength >= 0.0:
            raise ConfigError("l2_strength must not be negative")
        if not (isinstance(self.rho, dict)
                and set(self.rho) <= set(FAMILIES)
                and all(type(share) in REAL and 0.0 <= share <= 1.0
                        for share in self.rho.values())
                and abs(sum(self.rho.values()) - 1.0) <= 1e-9):
            raise ConfigError(f"rho must map some of {', '.join(FAMILIES)} "
                              "to shares in [0, 1] summing to 1")
        if not 0.0 < self.tau_p <= 1.0:
            raise ConfigError("tau_p must be in (0, 1]")
        if not self.temperature > 0.0:
            raise ConfigError("temperature must be positive")
        if self.k_related >= self.n_topics:
            raise ConfigError("k_related must be below n_topics")
        if self.n_topics > self.k_top:
            # NMF factors the k_top selected columns into n_topics.
            raise ConfigError("n_topics must not exceed k_top")
        if self.base_detector not in OUTPUT_UQ_METHODS:
            raise ConfigError(f"unknown base_detector {self.base_detector!r}")
        if self.repair_representation not in REPRESENTATIONS:
            raise ConfigError(f"unknown repair_representation "
                              f"{self.repair_representation!r}")

    def digest(self) -> str:
        payload = dataclasses.asdict(self)
        for key in DIGEST_EXCLUDED:
            payload.pop(key)
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path: str | Path, out_dir: str | None = None,
                seed: int | None = None) -> PipelineConfig:
    """Read a JSON config, applying optional command-line overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(PipelineConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    if out_dir is not None:
        raw["out_dir"] = out_dir
    if seed is not None:
        raw["seed"] = seed
    try:
        return PipelineConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc))
