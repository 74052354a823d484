"""Sketch-ablation configurations (Tables III/IV)."""

from dataclasses import replace

import pytest

from repro.core.ablation import FULL_SELECTION, ablation_selections
from repro.core.config import SketchSelection


def test_only_mode_has_single_active_sketch():
    selections = ablation_selections("only")
    assert set(selections) == {"only_minhash", "only_numeric", "only_snapshot"}
    for selection in selections.values():
        active = sum(
            [selection.use_minhash, selection.use_numeric, selection.use_snapshot]
        )
        assert active == 1


def test_remove_mode_disables_single_sketch():
    selections = ablation_selections("remove")
    for selection in selections.values():
        active = sum(
            [selection.use_minhash, selection.use_numeric, selection.use_snapshot]
        )
        assert active == 2


def test_all_mode_includes_full():
    selections = ablation_selections("all")
    assert selections["full"] == FULL_SELECTION
    assert len(selections) == 7


def test_unknown_mode_raises():
    with pytest.raises(ValueError, match="unknown"):
        ablation_selections("bogus")


def test_selection_tags():
    assert FULL_SELECTION.tag() == "mh+num+cs"
    assert SketchSelection(False, False, False).tag() == "none"
    assert SketchSelection(True, False, False).tag() == "mh"


def test_config_with_selection_round_trip(tiny_config):
    selection = SketchSelection(use_minhash=False)
    updated = replace(tiny_config, selection=selection)
    assert updated.selection == selection
    assert updated.dim == tiny_config.dim
    assert tiny_config.selection.use_minhash  # original untouched
