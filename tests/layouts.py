"""Every file a run writes and the members of each archive, written out by
hand: each member's dtype exactly or, where its width varies (the U
strings), its kind.  pipeline.ARTIFACTS states the same layouts for the
program; this record stays apart from it, so that a wrong table cannot
pass its own check.  A layout change edits ARTIFACTS, this file and
README's archive table.

    python tests/layouts.py CONFIG RUN_DIR [CONFIG RUN_DIR ...]

runs check_run on each finished run directory and its config.
"""

from __future__ import annotations

import sys
import zipfile
from pathlib import Path

import numpy as np

FILES = ("dataset.npz", "detector_report.json", "model.npz",
         "repair_report.json", "report.md", "scores.npz", "shap.npz",
         "topics.npz")

DATASET = {"digest": "S64", "gold": "bool", "train": "bool",
           "text": "uint8", "text_offsets": "int64",
           "word_vocab": "uint8", "word_vocab_offsets": "int64",
           "phrase_vocab": "uint8", "phrase_vocab_offsets": "int64",
           "idf": "float64", "shape": "int64", "indptr": "int64",
           "indices": "int64", "data": "float64"}

TOPICS = {"digest": "S64",
          "columns_minus": "int64", "H_minus": "float64",
          "assignment_minus": "int64", "objective_minus": "float64",
          "columns_plus": "int64", "H_plus": "float64",
          "assignment_plus": "int64", "objective_plus": "float64"}

SCORES = {"digest": "S64", "p_pos": "float64", "contributions": "float64",
          "xmap_rel_u": "float64"}

# model.npz of each classifier.
MODEL = {
    "logreg": {"digest": "S64", "kind": "U", "weights": "float64",
               "bias": "float64"},
    "svm": {"digest": "S64", "kind": "U", "weights": "float64",
            "bias": "float64", "calibration": "float64"},
    "nb": {"digest": "S64", "kind": "U", "weights": "float64",
           "bias": "float64", "structural_start": "int64",
           "struct_min": "float64", "struct_max": "float64"},
}

# shap.npz of each explained output: margin for a linear run, probability
# for kernel SHAP.
SHAP = {
    "margin": {"digest": "S64", "base_values": "float64",
               "explained_output": "U", "mu": "float64"},
    "probability": {"digest": "S64", "base_values": "float64",
                    "explained_output": "U", "mu": "float64",
                    "data": "float64"},
}

# The float members where NaN means not available (NA); every other float
# member is finite.
NA = {"scores.npz": ("xmap_rel_u",)}

# Each archive's layouts by the variant a config selects (layout); None
# where every run writes the same members.
LAYOUTS = {"dataset.npz": {None: DATASET}, "model.npz": MODEL,
           "shap.npz": SHAP, "topics.npz": {None: TOPICS},
           "scores.npz": {None: SCORES}}


def layout(name: str, cfg) -> dict[str, str]:
    """Each member of the archive under the config, with its dtype."""
    if name == "model.npz":
        return MODEL[cfg.classifier]
    if name == "shap.npz":
        linear = cfg.classifier == "logreg" or (
            cfg.classifier == "nb" and cfg.nb_linear_attribution)
        return SHAP["margin" if linear else "probability"]
    return LAYOUTS[name][None]


def check_archive(path, members: dict[str, str]) -> None:
    """The archive holds exactly these members, each of its dtype (a
    one-letter one is a kind) and deflated."""
    with zipfile.ZipFile(path) as archive:
        methods = {info.compress_type for info in archive.infolist()}
    assert methods == {zipfile.ZIP_DEFLATED}, (str(path), methods)
    with np.load(path) as npz:
        dtypes = {key: npz[key].dtype for key in npz.files}
    assert dtypes.keys() == members.keys(), (str(path), sorted(dtypes))
    for key, dtype in dtypes.items():
        want = members[key]
        assert (dtype.kind == want if len(want) == 1
                else dtype == np.dtype(want)), (str(path), key, dtype)


def check_run(out_dir, cfg) -> None:
    """The run directory holds exactly FILES, and each archive its layout
    under the config."""
    out_dir = Path(out_dir)
    found = sorted(path.name for path in out_dir.iterdir())
    assert found == sorted(FILES), (str(out_dir), found)
    for name in LAYOUTS:
        check_archive(out_dir / name, layout(name, cfg))


if __name__ == "__main__":
    from topicaudit.config import load_config

    args = sys.argv[1:]
    if not args or len(args) % 2:
        sys.exit(__doc__)
    for config, out_dir in zip(args[::2], args[1::2]):
        check_run(out_dir, load_config(config, out_dir=out_dir))
