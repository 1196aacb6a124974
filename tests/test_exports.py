"""Every name a package re-exports in ``__all__`` resolves.

A deleted module whose name stays in a re-export list fails here rather
than in the first ``from repro.<package> import *`` of a caller.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.cluster",
    "repro.core",
    "repro.data",
    "repro.obs",
    "repro.queries",
    "repro.service",
    "repro.stats",
    "repro.storage",
    "repro.wavelets",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    names = module.__all__
    assert len(names) == len(set(names)), "a name is listed twice"
    missing = [name for name in names if not hasattr(module, name)]
    assert missing == []
