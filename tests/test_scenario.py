"""Scenario generation, validation, and JSON round-tripping."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavmec import scenario as sc_mod
from uavmec.scenario import (Box, FleetConfig, Scenario, ScenarioError,
                             TaskSpec, Ue, generate, load, save)


PINNED_SCENARIO = """\
{
  "schema_version": 1,
  "seed": 0,
  "channel": {
    "bandwidth_hz": 10000000.0,
    "ref_gain": 0.001,
    "pathloss_exp": 2.0,
    "noise_w": 1e-09,
    "snr_gap": 6.606934480075959,
    "k1": 0.01,
    "k2": 0.99,
    "k3": -4.7,
    "k4": 8.9
  },
  "fleet": {
    "num_uavs": 2,
    "cpu_hz": 2000000000.0,
    "box": {
      "x_min_m": 0.0,
      "x_max_m": 100.0,
      "y_min_m": 0.0,
      "y_max_m": 100.0,
      "h_min_m": 40.0,
      "h_max_m": 80.0
    }
  },
  "ues": [
    {
      "x_m": 63.69616873214543,
      "y_m": 4.0973523936194685,
      "data_bits": 1000000.0,
      "cycles": 300000000.0,
      "tx_power_w": 0.1
    },
    {
      "x_m": 26.97867137638703,
      "y_m": 1.6527635528529094,
      "data_bits": 1000000.0,
      "cycles": 300000000.0,
      "tx_power_w": 0.1
    }
  ]
}
"""


class TestGenerate:
    def test_same_seed_reproduces(self):
        a = generate(3, 12)
        b = generate(3, 12)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate(3, 12) != generate(4, 12)

    def test_positions_inside_box(self):
        sc = generate(0, 200)
        box = sc.fleet.box
        pos = sc.positions
        assert np.all(pos[:, 0] >= box.x_min) and np.all(pos[:, 0] <= box.x_max)
        assert np.all(pos[:, 1] >= box.y_min) and np.all(pos[:, 1] <= box.y_max)

    def test_default_task(self):
        sc = generate(0, 5)
        assert np.all(sc.data_bits == 1e6)
        assert np.all(sc.cycles == 300.0 * sc.data_bits)
        assert np.all(sc.tx_powers == 0.1)
        assert sc.fleet.cpu_hz == 2e9

    def test_task_range_sampled(self):
        spec = TaskSpec(data_bits_min=1e5, data_bits_max=1e6)
        sc = generate(0, 50, task_spec=spec)
        assert np.all(sc.data_bits >= 1e5) and np.all(sc.data_bits <= 1e6)
        assert sc.data_bits.std() > 0

    def test_zero_ues_rejected(self):
        with pytest.raises(ScenarioError):
            generate(0, 0)

    def test_fractional_ue_count_rejected(self):
        with pytest.raises(ScenarioError, match="n_ues"):
            generate(0, 2.5)

    def test_numpy_ue_count_accepted(self):
        assert generate(0, np.int64(3)).n_ues == 3

    @pytest.mark.parametrize("seed", [1.5, True, -1, "1", None])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ScenarioError, match="seed"):
            generate(seed, 3)


class TestValidation:
    def test_box_requires_positive_altitude(self):
        with pytest.raises(ScenarioError):
            Box(h_min=0.0)

    def test_box_requires_ordered_edges(self):
        with pytest.raises(ScenarioError):
            Box(x_min=10.0, x_max=0.0)
        with pytest.raises(ScenarioError):
            Box(h_min=80.0, h_max=40.0)

    def test_ue_requires_positive_task(self):
        with pytest.raises(ScenarioError):
            Ue(x=0, y=0, data_bits=0.0, cycles=1.0)
        with pytest.raises(ScenarioError):
            Ue(x=0, y=0, data_bits=1.0, cycles=-1.0)

    def test_ue_outside_box_rejected(self):
        ue = Ue(x=500.0, y=0.0, data_bits=1e6, cycles=3e8)
        with pytest.raises(ScenarioError, match="outside"):
            Scenario(ues=(ue,), fleet=FleetConfig(),
                     channel=sc_mod.ChannelParams(), seed=0)

    def test_fleet_requires_uavs(self):
        with pytest.raises(ScenarioError):
            FleetConfig(num_uavs=0)

    def test_fleet_rejects_bool_uav_count(self):
        with pytest.raises(ScenarioError, match="num_uavs"):
            FleetConfig(num_uavs=True)

    def test_fleet_rejects_fractional_uav_count(self):
        with pytest.raises(ScenarioError, match="num_uavs"):
            FleetConfig(num_uavs=2.5)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        sc = generate(11, 9, FleetConfig(num_uavs=4))
        path = tmp_path / "sc.json"
        save(sc, path)
        assert load(path) == sc

    def test_round_trip_is_stable(self, tmp_path):
        sc = generate(2, 3)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save(sc, p1)
        save(load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_saved_text_pinned(self, tmp_path):
        # key names and order of the schema: a drift in either fails here
        path = tmp_path / "sc.json"
        save(generate(0, 2, FleetConfig(num_uavs=2)), path)
        assert path.read_text() == PINNED_SCENARIO

    def test_schema_version_written(self, tmp_path):
        path = tmp_path / "sc.json"
        save(generate(0, 2), path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == sc_mod.SCHEMA_VERSION

    def test_unknown_schema_version_rejected(self, tmp_path):
        path = tmp_path / "sc.json"
        save(generate(0, 2), path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="schema_version"):
            load(path)

    def test_missing_field_named_in_error(self, tmp_path):
        path = tmp_path / "sc.json"
        save(generate(0, 2), path)
        doc = json.loads(path.read_text())
        del doc["ues"][1]["data_bits"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"data_bits.*ues\[1\]|ues\[1\].*data_bits"):
            load(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema_version": 1,\n  oops\n}\n')
        with pytest.raises(ScenarioError, match="line 3"):
            load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(OSError):
            load(tmp_path / "nope.json")

    @pytest.mark.parametrize("path, value", [
        (("ues", 0, "x_m"), "12.5"),
        (("ues", 0, "data_bits"), True),
        (("ues", 1, "y_m"), None),
        (("fleet", "num_uavs"), 2.5),
        (("fleet", "num_uavs"), True),
        (("fleet", "box", "x_max_m"), float("inf")),
        (("channel", "k1"), None),
        (("channel", "rician_a1"), "1"),
        (("ues", 1), [1.0, 2.0]),
        (("ues",), {"x_m": 1.0}),
        (("fleet",), []),
        (("seed",), 1.5),
        (("seed",), -1),
    ])
    def test_wrong_types_rejected(self, tmp_path, path, value):
        doc = json.loads(json.dumps(sc_mod._to_dict(generate(0, 2))))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ScenarioError, match=str(path[-1])):
            sc_mod._from_dict(doc)

    def test_old_rician_constants_ignored(self, tmp_path):
        # older writers stored rician_a1/a2, which no rate depends on
        doc = sc_mod._to_dict(generate(4, 3))
        old = json.loads(json.dumps(doc))
        old["channel"].update(rician_a1=2.5, rician_a2=0.3)
        assert sc_mod._from_dict(old) == sc_mod._from_dict(doc)
        path = tmp_path / "sc.json"
        save(sc_mod._from_dict(old), path)
        assert "rician" not in path.read_text()

    def test_non_object_document_rejected(self):
        with pytest.raises(ScenarioError, match="object"):
            sc_mod._from_dict([1, 2])

    def test_units_in_key_names(self, tmp_path):
        path = tmp_path / "sc.json"
        save(generate(0, 2), path)
        doc = json.loads(path.read_text())
        assert "x_m" in doc["ues"][0]
        assert "h_min_m" in doc["fleet"]["box"]


def test_array_properties_match_ues():
    sc = generate(1, 4)
    for i, ue in enumerate(sc.ues):
        assert sc.positions[i, 0] == ue.x
        assert sc.positions[i, 1] == ue.y
        assert sc.data_bits[i] == ue.data_bits
        assert sc.cycles[i] == ue.cycles


def test_array_properties_built_once_and_read_only():
    sc = generate(1, 4)
    for name in ("positions", "data_bits", "cycles", "tx_powers"):
        arr = getattr(sc, name)
        assert getattr(sc, name) is arr
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert sc.positions.shape == (4, 2)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10 ** 6)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


_DOC = sc_mod._to_dict(generate(0, 2, FleetConfig(num_uavs=2)))
_DOC_PATHS = list(_paths(_DOC))[1:]


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(_DOC_PATHS), value=_JSON_VALUES,
       delete=st.booleans())
def test_mutated_document_is_scenario_or_scenario_error(path, value, delete):
    doc = json.loads(json.dumps(_DOC))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    try:
        sc = sc_mod._from_dict(doc)
    except ScenarioError:
        return
    assert isinstance(sc, Scenario)
    assert np.all(np.isfinite(sc.positions)) and sc.fleet.num_uavs >= 1
