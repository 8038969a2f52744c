"""Golden ``auto`` picks on the batch, stream and inline-serve paths.

Every registered analysis runs every generator kind that feeds it, at 2
and 8 threads and seeds 1-3, plus the empty trace and the
``serve-saturate`` tenant shape.  The backend ``auto`` picks on each
path must render byte-for-byte as the checked-in golden.  See
``make_auto_golden.py`` for the cases and for how to regenerate the file.
"""

import json

import pytest

from repro.analyses.common.base import Analysis

from make_auto_golden import GOLDEN_PATH, cases, render, run_case

GOLDEN = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

_CASES = cases()


@pytest.mark.parametrize("case, analysis, shape", _CASES,
                         ids=[case for case, _a, _s in _CASES])
def test_case_matches_golden(case, analysis, shape, tmp_path):
    assert render(run_case(analysis, shape, str(tmp_path))) \
        == render(GOLDEN[case])


def test_golden_file_is_rendered_canonically():
    assert render(GOLDEN) == GOLDEN_PATH.read_text(encoding="utf-8")
    assert set(GOLDEN) == {case for case, _a, _s in _CASES}


def test_every_analysis_is_covered():
    assert {analysis for _c, analysis, _s in _CASES} \
        == set(Analysis.registered())

