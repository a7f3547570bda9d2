"""Joinability of the six overlapping-redex schemas."""

import zlib
from random import Random

import pytest

from critpairs import SCHEMAS


@pytest.mark.parametrize("name,check", SCHEMAS, ids=[n for n, _ in SCHEMAS])
def test_critical_pair_closes(name, check):
    rng = Random(zlib.crc32(name.encode()))
    for _ in range(40):
        check(rng)
