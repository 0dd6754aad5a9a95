"""Reference outputs and the correctness gate.

The reference file of a workload holds, for every job, the sha256 and the
parsed columns of each CSV artifact and every output value computed outside
a CSV, all recorded from the seed commit by record_reference.py.  A run is
compared value by value; the deviation of a value v from its reference r is

    |v - r| / max(|r|, REL_FLOOR)

which is relative for |r| >= REL_FLOOR and absolute (scaled) below it, so
round-off residual columns near zero do not read as large relative changes.
A job whose largest deviation exceeds GATE_MAX_DEV, or whose artifacts or
columns differ in shape or text, fails the gate.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REL_FLOOR = 1e-3
GATE_MAX_DEV = 1e-6

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save(workload: str, jobs: dict) -> None:
    # mtime=0: the file is byte-identical whenever the outputs are
    with gzip.GzipFile(reference_path(workload), "wb", mtime=0) as fh:
        fh.write((json.dumps(jobs) + "\n").encode())


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path: Path) -> dict:
    """Columns of a CSV artifact by header name; '#' lines are metadata."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    cols = {h: [] for h in header}
    for ln in lines[1:]:
        cells = ln.split(",", len(header) - 1)
        for h, c in zip(header, cells):
            cols[h].append(_cell(c))
    return cols


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def record(result) -> dict:
    """The reference entry for one job result (run with every pool point)."""
    return {
        "artifacts": {p.name: {"sha256": sha256(p), "columns": read_csv(p)}
                      for p in result.artifacts},
        "values": {k: [float(x) for x in vals] for k, (_, vals) in result.values.items()},
    }


def _dev(v, r) -> float:
    if isinstance(v, str) or isinstance(r, str):
        return 0.0 if v == r else math.inf
    if v == r or (math.isnan(v) and math.isnan(r)):
        return 0.0
    if not (math.isfinite(v) and math.isfinite(r)):
        return math.inf    # NaN or an infinity on one side only
    return abs(v - r) / max(abs(r), REL_FLOOR)


def _max_dev(values, refs) -> float:
    if len(values) != len(refs):
        return math.inf
    return max((_dev(v, r) for v, r in zip(values, refs)), default=0.0)


class Comparison:
    def __init__(self):
        self.max_dev = 0.0
        self.csv_identical = 0
        self.csv_total = 0
        self.problems: list[str] = []

    def note(self, what: str, dev: float):
        self.max_dev = max(self.max_dev, dev)
        if dev > GATE_MAX_DEV:
            self.problems.append(f"{what}: deviation {dev:.3g}")

    @property
    def ok(self) -> bool:
        return not self.problems


def compare(result, ref: dict) -> Comparison:
    cmp = Comparison()
    written = {p.name: p for p in result.artifacts}
    for name in sorted(set(written) | set(ref["artifacts"])):
        if name not in written or name not in ref["artifacts"]:
            cmp.note(f"artifact {name} missing on one side", math.inf)
            continue
        want = ref["artifacts"][name]
        cmp.csv_total += 1
        if sha256(written[name]) == want["sha256"]:
            cmp.csv_identical += 1
            continue
        cols = read_csv(written[name])
        for col in sorted(set(cols) | set(want["columns"])):
            if col in cols and col in want["columns"]:
                dev = _max_dev(cols[col], want["columns"][col])
            else:
                dev = math.inf
            cmp.note(f"{name} column {col}", dev)
    for key in sorted(set(result.values) | set(ref["values"])):
        if key not in result.values or key not in ref["values"]:
            cmp.note(f"value {key} missing on one side", math.inf)
            continue
        idx, vals = result.values[key]
        refs = np.asarray(ref["values"][key])
        if idx is not None:
            refs = refs[idx]
        cmp.note(f"value {key}", _max_dev([float(v) for v in vals], refs.tolist()))
    return cmp
