"""Round-trip and schema-rejection tests for the JSON document layer."""

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from fixcat import models, poset, rel
from fixcat.errors import SchemaError, ValidationError, sort_key
from fixcat.serialize import (SuiteConfig, load_document, parse_document,
                              print_document, to_document)

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "sample_inputs"
SAMPLE_FILES = sorted(SAMPLES.glob("*.json"))


def test_sample_dir_is_populated():
    assert len(SAMPLE_FILES) >= 18


@pytest.mark.parametrize("path", SAMPLE_FILES, ids=lambda p: p.name)
def test_samples_round_trip_byte_identical(path):
    text = path.read_text()
    obj = parse_document(text, validate=False)
    assert print_document(obj) == text


@pytest.mark.parametrize("path", SAMPLE_FILES, ids=lambda p: p.name)
def test_samples_parse_strict(path):
    # the corrupt category fixture is the one deliberate invalid sample
    text = path.read_text()
    if path.name == "category_corrupt.json":
        with pytest.raises(ValidationError):
            parse_document(text)
    else:
        parse_document(text)


def test_category_table_entry_on_unknown_arrows_is_rejected():
    # a table entry naming no arrow used to pass validation and then crash
    # the printer, which cannot sort its ids among the others
    doc = json.loads((SAMPLES / "category_aut.json").read_text())
    doc["table"].append([0, 0, 0])
    with pytest.raises(ValidationError, match="unknown arrows"):
        parse_document(json.dumps(doc))


def test_print_is_canonical_json():
    for path in SAMPLE_FILES:
        text = path.read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, indent=2,
                                  ensure_ascii=False) + "\n"


def test_unsorted_input_prints_sorted():
    p = poset.PointedPoset(["t", "b"],
                           [("b", "t"), ("b", "b"), ("t", "t")],
                           "b", name="two")
    text = print_document(p)
    doc = json.loads(text)
    assert doc["elements"] == ["b", "t"]
    assert print_document(parse_document(text)) == text


def test_sort_key_orders_strings_and_integers_by_value():
    assert sorted(["a", "z'", "b"], key=sort_key) == ["a", "b", "z'"]
    assert sorted([10, 2, 1], key=sort_key) == [1, 2, 10]
    # classes by name first; bool is not keyed as an int
    assert sorted([(0,), "a", 1, True], key=sort_key) == [True, 1, "a", (0,)]
    p = poset.PointedPoset(["z'", "b", "a"],
                           [(x, y) for x in "ab" for y in ["a", "b", "z'"]
                            if x <= y] + [("z'", "z'")],
                           "a", name="quoted")
    assert to_document(p)["elements"] == ["a", "b", "z'"]


def test_multiset_premises_expand():
    doc = {"kind": "multiset-relation", "name": "r",
           "source": ["a"], "target": ["a", "b"],
           "pairs": [[[["a", 2]], "b"]]}
    r = parse_document(json.dumps(doc))
    assert r.pairs == {(rel.mset(["a", "a"]), "b")}
    assert print_document(r) == print_document(to_document(r))


def test_polynomial_slot_ids_are_tuples():
    p = parse_document((SAMPLES / "poly_bintree.json").read_text())
    assert p.E and all(isinstance(e, tuple) for e in p.E)
    assert all(isinstance(k, tuple) for k in p.s)
    assert p == parse_document(print_document(p))


def test_system_step_keys_are_tuples():
    s = parse_document((SAMPLES / "system_loop_a.json").read_text())
    for _, nxt in s.step.values():
        assert all(isinstance(k, tuple) for k in nxt)
    again = parse_document(print_document(s))
    assert print_document(again) == print_document(s)


def test_suite_config_defaults():
    cfg = parse_document('{"kind": "suite-config", "models": ["poset"]}')
    assert cfg == SuiteConfig(models=["poset"], draws=60, seed=0,
                              categories=[])


def test_suite_config_full_round_trip():
    cfg = parse_document((SAMPLES / "suite_corrupt.json").read_text())
    assert cfg.categories
    assert parse_document(print_document(cfg)) == cfg


BAD_DOCS = [
    ("not json", "not valid JSON"),
    ("[1, 2]", "top level must be an object"),
    ('{"kind": "nope"}', "unknown kind"),
    ('{"kind": "finite-set", "elements": ["a"]}', "unknown kind 'finite-set'"),
    ('{"kind": ["poset"]}', "unknown kind ['poset']"),
    ('{"kind": "poset", "leq": [], "bottom": "b"}', "missing field"),
    ('{"kind": "poset", "elements": "x", "leq": [], "bottom": "b"}',
     "wrong shape"),
    ('{"kind": "poset", "elements": ["b"], "leq": [["b"]], "bottom": "b"}',
     "2-element lists"),
    ('{"kind": "multiset-relation", "source": [], "target": ["b"],'
     ' "pairs": [[[["a", 0]], "b"]]}', "bad multiplicity"),
    ('{"kind": "multiset-relation", "source": [], "target": ["b"],'
     ' "pairs": [["a", "b"]]}', "premise must be a list"),
    ('{"kind": "ideal-relation",'
     ' "source": {"elements": [], "leq": []},'
     ' "target": {"elements": [], "leq": []},'
     ' "pairs": [["a", "b"]]}', "input-set"),
    ('{"kind": "suite-config", "models": ["newton"]}', "unknown model"),
    ('{"kind": "suite-config", "models": [], "draws": -1}',
     "nonnegative"),
    ('{"kind": "suite-config", "models": [], "seed": "x"}', "seed"),
    ('{"kind": "suite-config", "models": [], "categories": "x"}',
     "list of paths"),
    ('{"kind": "coalgebra-system",'
     ' "polynomial": {"inputs": [], "slots": [], "constructors": [],'
     ' "outputs": [], "slot_input": [], "slot_constructor": [],'
     ' "constructor_output": []},'
     ' "states": ["s"], "step": [["s", "b"]]}', "step entries"),
]


@pytest.mark.parametrize("text,fragment", BAD_DOCS,
                         ids=[f[:28] for _, f in BAD_DOCS])
def test_parse_rejects(text, fragment):
    with pytest.raises(SchemaError) as exc:
        parse_document(text)
    assert fragment in str(exc.value)


def test_load_document_reports_path(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SchemaError) as exc:
        load_document(str(missing))
    assert "nope.json" in str(exc.value)


def test_to_document_rejects_unknown():
    with pytest.raises(SchemaError):
        to_document(object())
    with pytest.raises(SchemaError):
        to_document(("b", "a"))


def test_model_names_cover_cli_specs():
    assert "poset:bifree" in models.REGISTRY
    assert "rel:tree" in models.REGISTRY
    assert "scott" in models.REGISTRY
    assert "cat" in models.REGISTRY


# --- fuzzing: a mutated sample either parses and round-trips, or is rejected --

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.one_of(st.integers(0, 2), st.text(max_size=2)), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


def _mutate(data, doc):
    """Replace, delete or insert one value somewhere inside `doc`."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            if isinstance(node, list):
                node.append(data.draw(JUNK))
            else:
                node[data.draw(st.text(max_size=3))] = data.draw(JUNK)
            return
        key = data.draw(st.sampled_from(keys))
        child = node[key]
        if isinstance(child, (dict, list)) and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if action == "replace":
            node[key] = data.draw(JUNK)
        elif action == "delete":
            del node[key]
        elif isinstance(node, list):
            node.insert(key, data.draw(JUNK))
        else:
            node[data.draw(st.text(max_size=3))] = data.draw(JUNK)
        return


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_samples_parse_or_are_rejected(data):
    path = data.draw(st.sampled_from(SAMPLE_FILES), label="sample")
    doc = json.loads(path.read_text())
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(data, doc)
    try:
        obj = parse_document(json.dumps(doc))
    except (SchemaError, ValidationError):
        return
    text = print_document(obj)
    assert print_document(parse_document(text)) == text
