"""Output check: a finished pipeline's reports against recorded values.

``detector_report.json`` and ``repair_report.json`` are compared with the
reference recorded for the same workload and corpus seed.  Integers,
strings, nulls and id lists must match exactly; floats must agree within
``REL_TOL`` relative plus ``ABS_TOL`` absolute.  The config digest is
left out, since it changes whenever a config field is added.  For a seed
with no recorded reference, each pipeline is compared with the first one
of the same run instead, so a run still fails if its outputs drift.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9

CHECKED = {"evaluate": "detector_report.json", "repair": "repair_report.json"}
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _strip_digest(obj):
    if isinstance(obj, dict):
        return {k: _strip_digest(v) for k, v in obj.items()
                if k != "config_digest"}
    if isinstance(obj, list):
        return [_strip_digest(v) for v in obj]
    return obj


def read_reports(out_dir: Path) -> dict:
    """The checked reports of one pipeline, keyed by producing stage;
    a missing or unparsable report reads as None."""
    reports = {}
    for stage, name in CHECKED.items():
        try:
            text = (out_dir / name).read_text(encoding="utf-8")
            reports[stage] = _strip_digest(json.loads(text))
        except (OSError, ValueError):
            reports[stage] = None
    return reports


def mismatches(found, expected, where: str = "") -> list[str]:
    """Every place where ``found`` differs from ``expected``."""
    if isinstance(expected, dict) and isinstance(found, dict):
        out = [f"{where}/{k}: missing" for k in expected if k not in found]
        out += [f"{where}/{k}: unexpected" for k in found if k not in expected]
        for k in expected:
            if k in found:
                out += mismatches(found[k], expected[k], f"{where}/{k}")
        return out
    if isinstance(expected, list) and isinstance(found, list):
        if len(found) != len(expected):
            return [f"{where}: length {len(found)} != {len(expected)}"]
        out = []
        for i, (f, e) in enumerate(zip(found, expected)):
            out += mismatches(f, e, f"{where}[{i}]")
        return out
    if _is_float_pair(found, expected):
        f, e = float(found), float(expected)
        if math.isnan(f) and math.isnan(e):
            return []
        if abs(f - e) <= ABS_TOL + REL_TOL * abs(e):
            return []
        return [f"{where}: {f!r} != {e!r}"]
    if type(found) is not type(expected) or found != expected:
        return [f"{where}: {found!r} != {expected!r}"]
    return []


def _is_float_pair(a, b) -> bool:
    numbers = (int, float)
    return (isinstance(a, numbers) and isinstance(b, numbers)
            and not isinstance(a, bool) and not isinstance(b, bool)
            and (isinstance(a, float) or isinstance(b, float)))


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str, seed: int, corpus_sha256: str,
                   n_messages: int):
    """The recorded reports for this seed, or None when none is recorded.

    Raises ValueError when the recorded corpus differs from the generated
    one: the outputs would then be compared across different inputs."""
    path = reference_path(workload)
    if not path.exists():
        return None
    table = json.loads(gzip.decompress(path.read_bytes()))
    if table.get("n_messages") != n_messages:
        return None
    entry = table["seeds"].get(str(seed))
    if entry is None:
        return None
    if entry["corpus_sha256"] != corpus_sha256:
        raise ValueError(f"corpus for seed {seed} has sha256 "
                         f"{corpus_sha256[:12]}, reference was recorded on "
                         f"{entry['corpus_sha256'][:12]}")
    return entry["reports"]


def record_reference(workload: str, n_messages: int, seed: int,
                     corpus_sha256: str, reports: dict) -> None:
    path = reference_path(workload)
    table = {"workload": workload, "n_messages": n_messages,
             "rel_tol": REL_TOL, "abs_tol": ABS_TOL, "seeds": {}}
    if path.exists():
        old = json.loads(gzip.decompress(path.read_bytes()))
        if old.get("n_messages") == n_messages:
            table["seeds"] = old["seeds"]
    table["seeds"][str(seed)] = {"corpus_sha256": corpus_sha256,
                                 "reports": reports}
    table["seeds"] = dict(sorted(table["seeds"].items(),
                                 key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(table, sort_keys=True, indent=0) + "\n"
    path.write_bytes(gzip.compress(text.encode("utf-8"), mtime=0))


class OutputCheck:
    """Checks each pipeline of one run; counts failed stage invocations."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.reference_used = expected is not None
        self.errors: list[str] = []

    def failed_stages(self, out_dir: Path) -> list[str]:
        """Stages whose output does not match; also sets the baseline for
        a seed without a reference from the first pipeline checked."""
        found = read_reports(out_dir)
        if self.expected is None:
            self.expected = found
        bad = []
        for stage in CHECKED:
            if found[stage] is None:
                diffs = [f"{CHECKED[stage]}: missing or unreadable"]
            else:
                diffs = mismatches(found[stage], self.expected[stage],
                                   CHECKED[stage])
            if diffs:
                bad.append(stage)
                self.errors.extend(diffs[:5])
        report = out_dir / "report.md"
        if not report.exists() or report.stat().st_size == 0:
            bad.append("report")
            self.errors.append("report.md: missing or empty")
        return bad
