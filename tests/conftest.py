"""Fixtures shared by several test modules."""

from __future__ import annotations

import os
import random

import pytest

from altpath.parsing import parse_tptp

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="session")
def fo_filter_texts(tmp_path_factory) -> list[str]:
    """The texts of the benchmark's fo-filter inputs of seed 1."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        import workloads
    inputs = workloads.gen_fo_filter(random.Random(1), str(tmp_path_factory.mktemp("fo")))
    texts = []
    for inp in inputs:
        with open(inp.path) as fh:
            texts.append(fh.read())
    return texts


@pytest.fixture(scope="module")
def fo_filter_sets(fo_filter_texts):
    """The benchmark's fo-filter inputs of seed 1, read as the CLI reads them."""
    return [parse_tptp(text) for text in fo_filter_texts]
