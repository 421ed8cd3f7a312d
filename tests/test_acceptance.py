"""Acceptance gate: one test per top-level correctness criterion.

The tests are built from `selfcheck.acceptance_table`, the table that
`wzernike verify` runs, at full size.  Each check prints a single
pass/fail line, so `pytest -s tests/test_acceptance.py` doubles as a
human-readable report.
"""

import itertools

from wzernike import selfcheck as sc


def _gate(number, result):
    flag = "PASS" if result.passed else "FAIL"
    print(f"[criterion {number:2d}] {flag}  {result.name}  ({result.detail})")
    assert result.passed, f"criterion {number}: {result.name}: {result.detail}"


def _criterion_test(name, rows):
    def test():
        for number, _, check in rows:
            _gate(number, check())
    test.__name__ = test.__qualname__ = name
    return test


# One named test per criterion number (7 runs two checks); the table only
# lists calls here, nothing runs at import.
for (_number, _slug), _rows in itertools.groupby(sc.acceptance_table(),
                                                 key=lambda row: row[:2]):
    _name = f"test_criterion_{_number:02d}_{_slug}"
    globals()[_name] = _criterion_test(_name, list(_rows))
