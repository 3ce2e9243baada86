"""Dataset and world equality: by column rows, byte for byte."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.datasets import UserColumns, WorldCache
from repro.datasets.world import DasuDataset, FccDataset
from tests.analysis.record_model import from_records, to_records


@pytest.fixture(scope="module")
def two_loads(tiny_world, tmp_path_factory):
    cache = WorldCache(tmp_path_factory.mktemp("equality-cache"))
    cache.store(tiny_world)
    return cache.load(tiny_world.config), cache.load(tiny_world.config)


def test_two_loads_of_one_entry_compare_equal(two_loads):
    a, b = two_loads
    hourly = a.dasu.columns.rows["hourly_mean_mbps"]
    assert np.isnan(hourly).any(), "the world must hold NaN hours"
    assert a.dasu == b.dasu
    assert a.fcc == b.fcc
    assert a == b


def test_records_and_columns_forms_compare_equal(two_loads):
    a, _ = two_loads
    # Through the record model and back, a dataset is the same rows.
    assert DasuDataset(columns=from_records(to_records(a.dasu.columns))) == a.dasu
    assert FccDataset(columns=from_records(to_records(a.fcc.columns))) == a.fcc


def test_one_changed_float_makes_them_unequal(two_loads):
    a, _ = two_loads
    rows = np.array(a.dasu.columns.rows)
    rows["capacity_mbps"][0] = np.nextafter(rows["capacity_mbps"][0], np.inf)
    changed = DasuDataset(columns=UserColumns(rows))
    assert changed != a.dasu
    assert dataclasses.replace(a, dasu=changed) != a


def test_dasu_and_fcc_datasets_never_compare_equal():
    empty = UserColumns.empty()
    assert DasuDataset(columns=empty) != FccDataset(columns=empty)
