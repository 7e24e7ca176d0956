"""Every test starts with no pulse length cached, so a count of Gram
factorizations or a cache hit never depends on which tests ran before."""

import pytest

from qnd_hom.gates import _atom_mech_part, _pulse_part


@pytest.fixture(autouse=True)
def _cold_pulse_caches():
    _pulse_part.cache_clear()
    _atom_mech_part.cache_clear()
