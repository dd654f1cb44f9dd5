"""Run the doc-comment examples as tests (the docs must not rot)."""

import doctest

import pytest

import repro
import repro.core.incremental
import repro.core.query
import repro.graph.builder
import repro.scarab.scar
import repro.shard.service

MODULES_WITH_EXAMPLES = [
    repro,
    repro.graph.builder,
    repro.core.query,
    repro.core.incremental,
    repro.scarab.scar,
    repro.shard.service,
]


@pytest.mark.parametrize(
    "module", MODULES_WITH_EXAMPLES, ids=lambda m: m.__name__
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failures"
    assert results.attempted > 0, f"{module.__name__} lost its examples"
