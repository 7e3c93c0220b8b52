"""Every invariant check of ``periodpoly verify``, one tier-1 test each.

The test ids are the check names, so ``pytest tests/test_verify.py -k hecke``
runs the checks that ``periodpoly verify --only hecke`` runs: both select by
substring.
"""

import pytest

from periodpoly.verifysuite import CHECKS


def test_check_names_are_unique():
    names = [name for name, _ in CHECKS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("check", [fn for _, fn in CHECKS], ids=[name for name, _ in CHECKS])
def test_check(check):
    check()
