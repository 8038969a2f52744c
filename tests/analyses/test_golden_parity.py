"""Golden analysis results on every paper backend.

Every analysis runs three seeded traces (one with 16 threads) on each
applicable backend among ``incremental-csst``, ``csst``, ``st`` and
``vc-flat``.  The findings, ``details`` and operation counts must
render byte-for-byte as the checked-in golden.  See ``make_golden.py``
for the cases and for how to regenerate the file.
"""

import json

import pytest

from repro.analyses.common.base import Analysis

from make_golden import BACKENDS, CASES, GOLDEN_PATH, case_id, render, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

_CASE_PARAMS = [(analysis, shape) for analysis, (_kind, shapes) in CASES.items()
                for shape in shapes]


@pytest.mark.parametrize("analysis, shape", _CASE_PARAMS,
                         ids=[case_id(*params) for params in _CASE_PARAMS])
def test_case_matches_golden(analysis, shape):
    key = case_id(analysis, shape)
    assert render(run_case(analysis, shape)) == render(GOLDEN[key])


def test_golden_file_is_rendered_canonically():
    # The whole file, not only each case, reproduces byte for byte.
    assert render(GOLDEN) == GOLDEN_PATH.read_text(encoding="utf-8")
    assert set(GOLDEN) == {case_id(*params) for params in _CASE_PARAMS}


def test_every_analysis_is_covered():
    assert set(CASES) == set(Analysis.registered())
    for analysis in CASES:
        shapes = CASES[analysis][1]
        assert len(shapes) == 3 and any(threads == 16 for threads, _e, _s in shapes)
        assert set(Analysis.by_name(analysis).applicable_backends()) & set(BACKENDS)
