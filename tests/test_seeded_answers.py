"""Seeded answers of eight quick CLI runs, pinned to a committed fixture.

Any change that moves one of these numbers fails here, so drift in the
answers shows in the suite rather than in diffs made by hand.  A change that
moves them on purpose regenerates the fixture, from the root of a checkout,
with

    PYTHONPATH=src python tests/test_seeded_answers.py

and says so in CHANGES.md.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import make_logistic_csv
from qanneal.cli import main

FIXTURE = Path(__file__).with_name("seeded_answers.json")

RUNS = {
    "bdmc": ["bdmc", "--path-kind", "qpath", "--q", "0.9", "--moves", "2"],
    "grid-q": ["grid-q", "--k", "8", "--grid-count", "6", "--adapt-steps", "2",
               "--target-log-scale", "2"],
    "smc": ["smc", "--schedule", "adaptive", "--dataset", "{csv}"],
    "heuristic-q": ["heuristic-q", "--restarts", "20", "--seed", "3"],
    "ais": ["ais", "--k", "8", "--chains", "32", "--adapt-steps", "3"],
    "moment": ["anneal-toy", "--path-kind", "moment", "--k", "8", "--target-log-scale", "1.5"],
    "escort": ["anneal-toy", "--path-kind", "escort", "--nu", "3", "--schedule", "adaptive",
               "--mu0", "-2", "--var1", "2"],
    "grid-q-one": ["grid-q", "--k", "4", "--grid-count", "1"],
}
FIELDS = ("log_Z", "beta_trace", "ess_trace", "acceptance_trace")
EXTRAS = ("upper_bound", "bdmc_gaps", "q", "beta1", "loss", "loss_evals")


def seeded_answers(workdir: Path) -> dict:
    """The pinned numbers of each run in ``RUNS``, solved in ``workdir``."""
    csv = make_logistic_csv(workdir / "data.csv")
    answers = {}
    for name, argv in RUNS.items():
        out = workdir / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([arg.format(csv=csv) for arg in argv] + ["--output", str(out)])
        assert code == 0, name
        report = json.loads(out.read_text())
        answers[name] = {key: report[key] for key in FIELDS}
        answers[name].update({key: report["extras"][key] for key in EXTRAS if key in report["extras"]})
    return answers


@pytest.fixture(scope="module")
def answers(tmp_path_factory):
    return seeded_answers(tmp_path_factory.mktemp("seeded"))


@pytest.mark.parametrize("name", list(RUNS))
def test_answers_match_the_fixture(name, answers):
    got, want = answers[name], json.loads(FIXTURE.read_text())[name]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        # a report writes a non-finite float as "nan", "inf" or "-inf"
        np.testing.assert_allclose(
            np.asarray(got[key], dtype=float), np.asarray(value, dtype=float),
            rtol=1e-12, atol=0.0, equal_nan=True, err_msg=f"{name}: {key}",
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        FIXTURE.write_text(json.dumps(seeded_answers(Path(tmp)), indent=1) + "\n")
