"""Shared fixtures, the Hypothesis profile and the acceptance summary hook.

Every property test runs under one profile: no deadline, derandomized
examples and no example database, so a run draws the same examples on
every machine; each test sets only its max_examples.

Every test in test_acceptance.py whose name starts with test_criterion_
gets one PASS/FAIL line in a dedicated terminal section, labeled by the
first line of its docstring.
"""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from contiform import refnet
from contiform.errors import ContiformError

settings.register_profile("contiform", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("contiform")

REPO_ROOT = Path(__file__).resolve().parent.parent
TEAM22 = REPO_ROOT / "scenarios" / "team22.yaml"

_labels = {}
_results = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if "test_acceptance.py" in item.nodeid and "test_criterion_" in item.name:
            doc = (item.function.__doc__ or item.name).strip().splitlines()
            _labels[item.nodeid] = doc[0]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if item.nodeid in _labels and report.when == "call":
        _results[item.nodeid] = report.outcome


def _criterion_key(nodeid):
    m = re.search(r"test_criterion_(\d+)", nodeid)
    return int(m.group(1)) if m else 0


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for nodeid in sorted(_results, key=_criterion_key):
        outcome = _results[nodeid]
        word = "PASS" if outcome == "passed" else outcome.upper()
        markup = {"green": True} if outcome == "passed" else {"red": True}
        terminalreporter.write_line(f"{_labels[nodeid]}: {word}", **markup)


# -- shared formation data -------------------------------------------------

# 22-agent planar formation whose convex hull has ten vertices; agents
# 1..10 are the hull corners, 11..22 sit inside.
DECAGON22 = {}
for _k, _xy in enumerate(
        [(0, 2), (12, -3), (26, -5), (40, -2), (50, 6), (47, 20),
         (38, 32), (24, 39), (10, 33), (0, 18),
         (8, 10), (3, 13), (13, 4), (12, 17), (20, 10), (19, 24),
         (27, 17), (28, 6), (33, 12), (35, 25), (30, 30), (17, 31)]):
    DECAGON22[_k + 1] = np.array([float(_xy[0]), float(_xy[1]), 0.0])


@pytest.fixture(scope="session")
def decagon22():
    return dict(DECAGON22)


@pytest.fixture(scope="session")
def decagon22_network():
    return refnet.build_reference_configuration(DECAGON22, n=2, rho=0.1)


def tilt(a, b, c):
    """A rotation by three angles; it tilts the z = 0 plane in general."""
    ca, sa, cb, sb, cc, sc = (np.cos(a), np.sin(a), np.cos(b), np.sin(b),
                              np.cos(c), np.sin(c))
    return (np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
            @ np.array([[1, 0, 0], [0, cb, -sb], [0, sb, cb]])
            @ np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]]))


def sample_formation(rng, count, n, box=24.0, min_sep=1.5):
    """Random formation dict with pairwise separation, ids 1..count."""
    pts = []
    while len(pts) < count:
        cand = rng.uniform(0.0, box, size=3)
        if n == 2:
            cand[2] = 0.0
        if all(np.linalg.norm(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    return {i + 1: p for i, p in enumerate(pts)}


def random_network(rng, count, n, **kwargs):
    """Sample formations until one supports a full network build."""
    while True:
        formation = sample_formation(rng, count, n, **kwargs)
        try:
            return formation, refnet.build_reference_configuration(
                formation, n=n)
        except ContiformError:
            continue
