"""Run configuration, dataset loading, and JSON run reports.

Reports serialize to JSON with non-finite floats written as "nan", "inf" and
"-inf" so files stay standard-compliant; parsing maps them back outside the
config echo, and writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from qanneal._version import __version__
from qanneal.densities import LogisticModel


class ConfigError(ValueError):
    """Invalid run configuration; ``errors`` lists every violated field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class RunConfig:
    """One experiment invocation.

    ``particles`` doubles as the chain count for the AIS-style commands and
    as the prior sample count for the heuristic.  Driver-specific knobs (toy
    endpoint parameters, escort nu, grid size, heuristic settings, HMC
    step-size tuning, the trace CSV) ride in ``extras``.  The command's row
    of ``qanneal.cli.COMMANDS`` decides which fields may leave their defaults
    and which extras may be given.
    """

    command: str
    path_kind: str = "geometric"
    q: float | None = None
    particles: int = 64
    K: int = 16
    schedule: str = "linear"
    moves: int = 1
    seed: int = 0
    dataset: str | None = None
    output: str | None = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return cls(**_checked_fields(cls, d))


# the per-step traces of a report, in the order of the trace CSV's columns
TRACES = ("beta_trace", "ess_trace", "acceptance_trace")


@dataclass(frozen=True, eq=False, kw_only=True)
class RunReport:
    """Machine-readable outcome of one run.

    The ``TRACES`` are aligned by annealing step: ``beta_trace[i]`` is the
    beta reached at step i, with the matching carried-weight ESS and mean
    HMC acceptance; a run with no annealing steps leaves them empty.
    ``stderr_estimate`` is sqrt(sum(n / ESS - 1) / n) over n chains.  AIS
    takes the final ESS alone, so its value is exactly the delta-method SE
    of log Z, CV(w) / sqrt(n) of the per-chain weights (a population
    variance).  SMC sums over every step's ESS, a proxy under an
    independence approximation.  Command-specific outputs live in ``extras``.
    """

    log_Z: float
    stderr_estimate: float
    ess_trace: tuple = ()
    beta_trace: tuple = ()
    acceptance_trace: tuple = ()
    wallclock_s: float
    config_echo: RunConfig
    library_version: str = __version__
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        d = _checked_fields(cls, d)
        traces = {key: tuple(d[key]) for key in TRACES}
        return cls(**{**d, **traces, "config_echo": RunConfig.from_dict(d["config_echo"])})

    def __eq__(self, other) -> bool:
        """Equal when both write the same file: nan equals nan, -0.0 does not
        equal 0.0, and extras must hold the same keys in the same order."""
        if not isinstance(other, RunReport):
            return NotImplemented
        return report_to_json(self) == report_to_json(other)


def _checked_fields(cls, d: dict) -> dict:
    """``d`` if its keys are exactly the fields of ``cls``; else a ValueError
    that names each missing and each unknown one."""
    names = [f.name for f in fields(cls)]
    problems = [f"missing field {k!r}" for k in names if k not in d]
    problems += [f"unknown field {k!r}" for k in d if k not in names]
    if problems:
        raise ValueError(f"{cls.__name__}: " + "; ".join(problems))
    return d


_SPECIAL_FLOATS = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def _encode(obj):
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)  # "nan", "inf" or "-inf"
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_encode(v) for v in obj]
    raise TypeError(f"cannot encode {type(obj).__name__} into a report")


def _decode(obj):
    if isinstance(obj, str) and obj in _SPECIAL_FLOATS:
        return _SPECIAL_FLOATS[obj]
    if isinstance(obj, dict):
        return {k: _decode(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_decode(v) for v in obj]
    return obj


def report_to_json(report: RunReport) -> str:
    return json.dumps(_encode(report.to_dict()), indent=2) + "\n"


def report_from_json(text: str) -> RunReport:
    """The report ``text`` holds; the config echo, finite numbers and
    strings only, keeps its strings as written."""
    d = json.loads(text)
    return RunReport.from_dict({k: v if k == "config_echo" else _decode(v) for k, v in d.items()})


def _atomic_write_text(text: str, path) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_report_json(report: RunReport, path) -> None:
    _atomic_write_text(report_to_json(report), path)


def write_trace_csv(report: RunReport, path) -> None:
    """Step-aligned traces as CSV for plotting: the step number, then one
    column per entry of ``TRACES``, named without its ``_trace``."""
    lines = [",".join(["step", *(key.removesuffix("_trace") for key in TRACES)])]
    rows = zip(*(getattr(report, key) for key in TRACES))
    lines += [",".join([str(i), *map(repr, row)]) for i, row in enumerate(rows, start=1)]
    _atomic_write_text("\n".join(lines) + "\n", path)


def _parse_cell(cell: str, row: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"row {row}: non-numeric cell {cell.strip()!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"row {row}: non-finite cell {cell.strip()!r}")
    return value


def _is_numeric_row(cells: list[str]) -> bool:
    try:
        for cell in cells:
            float(cell)
    except ValueError:
        return False
    return True


def load_binary_regression_csv(path) -> LogisticModel:
    """Read a label-first CSV into a standardized logistic regression design.

    The first column is the binary label; files using -1/+1 are remapped to
    0/1 with a warning.  A header row is skipped when any of its cells fails
    to parse as a number.  Features are standardized per column (population
    variance) and an intercept column of ones is prepended; constant columns
    standardize to zero.  Row numbers in errors count from 1 including any
    header.  prior_sd is fixed at 5.
    """
    with open(path, newline="") as fh:
        raw = [line.rstrip("\n").rstrip("\r") for line in fh]
    rows = [(i, line.split(",")) for i, line in enumerate(raw, start=1) if line.strip()]
    if not rows:
        raise ValueError("empty dataset file")
    if not _is_numeric_row(rows[0][1]):
        rows = rows[1:]
        if not rows:
            raise ValueError("dataset has a header but no data rows")

    width = len(rows[0][1])
    if width < 2:
        raise ValueError(f"row {rows[0][0]}: need a label and at least one feature")
    labels = []
    features = []
    for row_no, cells in rows:
        if len(cells) != width:
            raise ValueError(f"row {row_no}: expected {width} columns, got {len(cells)}")
        values = [_parse_cell(c, row_no) for c in cells]
        if values[0] not in (0.0, 1.0, -1.0):
            raise ValueError(f"row {row_no}: label {values[0]!r} is not binary")
        labels.append(values[0])
        features.append(values[1:])

    y = np.asarray(labels)
    if np.any(y == -1.0):
        if np.any(y == 0.0):
            raise ValueError("labels mix -1 and 0; cannot tell which coding is meant")
        warnings.warn("labels use -1/+1; remapping to 0/1", UserWarning)
        y = (y + 1.0) / 2.0

    X = np.asarray(features)
    mean = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    X = (X - mean) / sd
    design = np.hstack([np.ones((X.shape[0], 1)), X])
    return LogisticModel(X=design, y=y, prior_sd=5.0)
