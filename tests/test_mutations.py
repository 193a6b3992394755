"""A kill matrix: the checks that decide on a bracket must be able to fail.

Each mutant makes every paper bound that reaches ``harness._one_sided``
wrong by a factor 1 - delta (upper claims) or 1 + delta (lower claims), on
the side where a correct bracket can refute it, and records which
(check, body type, p >= 0) cells then give a ``fail``.  Run
``pytest -s tests/test_mutations.py`` to print the matrix.
"""

from collections import Counter

import pytest

from geominima import HarnessConfig, run_suite
from geominima import harness

CONFIG = dict(n_random=1, p_grid=(-3.0, -1.0, 0.5, 1.0, 2.0), mahler_count=0,
              checks=("santalo_style", "isoperimetric", "containment"))

# cells of the seed-0 reduced suite: (check, body type, p >= 0) -> fails;
# delta = 0 is the unmutated suite
_AT_ONE_PERCENT = {
    ("isoperimetric", "ellipsoid", True): 21,
    ("isoperimetric", "ellipsoid", False): 11,
    ("isoperimetric", "shifted-ball", True): 12,
    ("isoperimetric", "shifted-ball", False): 6,
    ("santalo_style", "ellipsoid", True): 21,
    ("santalo_style", "shifted-ball", True): 12,
}
KILLS = {
    0.0: {},
    1e-2: _AT_ONE_PERCENT,
    0.1: {**_AT_ONE_PERCENT, ("containment", "ellipsoid", True): 7},
    0.5: {**_AT_ONE_PERCENT, ("containment", "ellipsoid", True): 15,
          ("containment", "ellipsoid", False): 3},
}


@pytest.fixture(scope="module")
def records():
    """One bracket cache for every run: a mutant moves verdicts, not values."""
    return harness._GpCache(HarnessConfig(**CONFIG))


def kill_matrix(monkeypatch, records, delta):
    one_sided = harness._one_sided

    def mutant(claim_upper, lower, upper, rhs, tol):
        wrong = rhs * (1 - delta if claim_upper else 1 + delta)
        return one_sided(claim_upper, lower, upper, wrong, tol)

    monkeypatch.setattr(harness, "_one_sided", mutant)
    monkeypatch.setattr(harness, "_GpCache", lambda config: records)
    report = run_suite(HarnessConfig(**CONFIG))
    assert len(report.results) == 250
    return Counter((r.check_id, r.instance["body"]["repr"]["type"], r.instance["params"]["p"] >= 0)
                   for r in report.results if r.verdict == "fail")


@pytest.mark.parametrize("delta", sorted(KILLS))
def test_kill_matrix(monkeypatch, records, delta):
    cells = kill_matrix(monkeypatch, records, delta)
    print(f"\ndelta = {delta:g}")
    for (check, body, nonnegative), count in sorted(cells.items()):
        print(f"  {check:14s} {body:13s} {'p >= 0' if nonnegative else 'p < 0 '} {count:3d}")
    assert dict(cells) == KILLS[delta]
    # only quadrics carry a closed-form end, so no polytope or Fourier body
    # can be refuted
    assert {body for _, body, _ in cells} <= {"ellipsoid", "shifted-ball"}
