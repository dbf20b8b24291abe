"""The bundled 33-specimen reference corpus."""

from __future__ import annotations

import gc
from types import SimpleNamespace

import pytest

from tangibility import (
    Count,
    classify,
    compute_hallmark,
    export_json,
    import_json,
    load_golden,
    parse_corpus,
    serialize_corpus,
    validate,
)
from tangibility import golden

# Frozen expectations: every application's hallmark vector and class, computed
# independently from the per-entity annotations before being asserted here.
EXPECTED = [
    (1, "Slot Machine", (0, 1, 1, 0, 0, 0, 0, 2, 0, 0, 1, 0), "II"),
    (2, "CAAD 3D Modelling System", (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
    (3, "Self-Builder Model (Segal Model)", (1, 0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 0), "II"),
    (4, "Marble Answering Machine", (1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0), "II"),
    (5, "Head Prop", (1, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0), "II"),
    (6, "GraspDraw", (0, 0, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0), "III"),
    (7, "MetaDESK", (1, 0, 2, 0, 1, 0, 1, 0, 0, 0, 1, 0), "II"),
    (8, "Build-IT", (0, 0, 3, 0, 1, 0, 0, 0, 2, 0, 1, 0), "III"),
    (9, "Pinwheels", ("many", 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "I"),
    (10, "Voodoo Dolls", (0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
    (11, "mediaBlocks", (0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0), "IV"),
    (12, "musicBottles", (0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1), "II"),
    (13, "Urp (Urban Planning Workbench)", (2, 0, 2, 2, 2, 0, 0, 2, 2, 0, 1, 0), "II"),
    (14, "Senseboard", (0, 1, 1, 0, 2, 0, 0, 0, 0, 0, 1, 1), "II"),
    (15, "Illuminating Clay", (1, 0, 3, 0, 0, 1, 0, 0, 0, 0, 1, 0), "II"),
    (16, "AudioPad", (0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0), "II"),
    (17, "ReacTable", (0, 1, 3, 0, 4, 0, 0, 0, 0, 0, 1, 0), "II"),
    (18, "IP Network Design Workbench", (0, 0, 2, 0, 2, 4, 0, 0, 2, 0, 1, 0), "III"),
    (19, "Query Shapes", (0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
    (20, "TUISTER", (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
    (21, "I/O Brush", (0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0), "III"),
    (22, "PICO", (0, 1, 1, 0, 0, 0, 0, 0, 0, 3, 2, 0), "II"),
    (23, "ArcheoTUI", (0, 1, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0), "II"),
    (24, "Slurp", (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
    (25, "GeoTUI", (0, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0), "III"),
    (26, "Relief", (1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0), "II"),
    (27, "Teegi", (2, 0, 1, 1, 1, 2, 0, 0, 0, 0, 1, 0), "II"),
    (28, "SoundFORMS", (1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0), "II"),
    (29, "reSpire", (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "I"),
    (30, "CairnFORM", (0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0), "I"),
    (31, "Embodied Axes", (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
    (32, "CoDa", (1, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1, 0), "II"),
    (33, "SABLIER", (0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0), "IV"),
]


def _as_counts(values):
    return tuple(Count.MANY if v == "many" else Count(v) for v in values)


def test_shape():
    corpus = load_golden()
    assert len(corpus.applications) == 33
    assert [app.id for app in corpus.applications] == list(range(1, 34))
    assert corpus.record_count == 145


def test_loading_is_cached():
    assert load_golden() is load_golden()


@pytest.mark.parametrize(
    "text, message",
    [
        ('application "a" { id: 0 }', "corrupted: application 0: id must be positive"),
        ('application "a" { id: 1 }', "corrupted: application 1: no entity records"),
        ("# no applications\n", "empty"),
        ('application "a\udcff" { id: 1 }', "corrupted: input is not valid UTF-8"),  # a 0xff byte
    ],
)
def test_a_broken_asset_raises(text, message, tmp_path, monkeypatch):
    asset = tmp_path / golden.GOLDEN_RESOURCE
    asset.parent.mkdir()
    asset.write_text(text, encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(golden, "resources", SimpleNamespace(files=lambda package: tmp_path))
    load_golden.cache_clear()
    try:
        with pytest.raises(RuntimeError) as raised:
            load_golden()
        assert str(raised.value) == f"bundled corpus asset is {message}"
    finally:
        load_golden.cache_clear()


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_a_cold_load_runs_no_collection(collecting):
    """A load pauses the cyclic collector, as a CLI command does, so reading the
    corpus meets no collection; and it leaves the collector as it found it."""
    phases = []

    def hook(phase, info):
        phases.append(phase)

    before, threshold = gc.isenabled(), gc.get_threshold()
    (gc.enable if collecting else gc.disable)()
    gc.set_threshold(100)  # a load makes some 440 objects: a running collector would run
    gc.collect()  # so that no collection is due, or scheduled (3.12+), as the hook goes in
    gc.callbacks.append(hook)
    try:
        corpus = load_golden.__wrapped__()
        assert gc.isenabled() is collecting
    finally:
        gc.callbacks.pop()
        gc.set_threshold(*threshold)
        (gc.enable if before else gc.disable)()
    assert phases == []
    assert corpus == load_golden()


def test_validates_clean():
    assert validate(load_golden()) == []


def test_metadata_samples():
    corpus = load_golden()
    urp = corpus.application(13)
    assert urp.name == "Urp (Urban Planning Workbench)"
    assert urp.year == 1999
    assert urp.genre == "Interactive Surfaces and Spaces"
    assert urp.subgenre == "Workbench"
    assert corpus.application(9).genre == "Ambient Media"
    assert corpus.application(9).subgenre == "Dynamic everyday objects"
    assert corpus.application(26).subgenre == "Transformable continuous tangibles"
    assert all(app.refs for app in corpus.applications)
    assert all(app.year is not None for app in corpus.applications)


def test_every_name_matches():
    corpus = load_golden()
    for app_id, name, _, _ in EXPECTED:
        assert corpus.application(app_id).name == name


def test_counts_are_one_except_pinwheels():
    corpus = load_golden()
    many = [
        (app.id, e.name)
        for app in corpus.applications
        for e in app.entities
        if e.count.is_many
    ]
    assert many == [(9, "Pinwheels")]
    assert all(
        e.count == Count(1)
        for app in corpus.applications
        for e in app.entities
        if not e.count.is_many
    )


def test_hallmarks_and_classes():
    corpus = load_golden()
    for app_id, _, components, label in EXPECTED:
        app = corpus.application(app_id)
        hallmark = compute_hallmark(app)
        assert hallmark.components == _as_counts(components), app.name
        assert classify(hallmark).label == label, app.name


def test_every_application_is_classified():
    corpus = load_golden()
    assert all(classify(compute_hallmark(app)).outcome is not None for app in corpus.applications)


def test_escaped_entity_name():
    bottles = load_golden().application(12)
    assert 'Central "stage" area' in [e.name for e in bottles.entities]


def test_round_trips():
    corpus = load_golden()
    via_dsl, dsl_diagnostics = parse_corpus(serialize_corpus(corpus))
    assert dsl_diagnostics == []
    assert via_dsl == corpus
    via_json, json_diagnostics = import_json(export_json(corpus))
    assert json_diagnostics == []
    assert via_json == corpus
