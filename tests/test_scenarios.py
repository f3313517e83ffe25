"""Scenario labels and client conditions of the corpus presets."""

import json
from dataclasses import replace

import pytest

from netdiag.errors import ConfigError
from netdiag.preprocess import DEFAULT_FAULT_REGISTRY
from netdiag.scenarios import BUFFER_LEVELS, FAULT_NAMES, client_for, preset_paper_matrix, scenario_from_json
from netdiag.simulate import HEALTHY_LINK, ClientParams, CwndProfile, LinkParams


@pytest.mark.parametrize(
    "loss, delay, label",
    [(0.0, 0.010, "HEALTHY"), (0.0, 0.0101, "FAULTY"), (0.001, 0.010, "FAULTY"), (0.0, 0.002, "HEALTHY")],
)
def test_scenario_link_label_boundary(tmp_path, loss, delay, label):
    path = tmp_path / "scenario.json"
    link = {"bandwidth": 80e6, "one_way_delay": delay, "loss_rate": loss}
    path.write_text(json.dumps({"link": link}), encoding="utf-8")
    (scenario,) = scenario_from_json(path)
    assert scenario.link_label == label


def test_scenario_fields_pass_straight_to_the_simulator(tmp_path):
    path = tmp_path / "scenario.json"
    link = {"bandwidth": 2e7, "one_way_delay": 0.02, "loss_rate": 0.01, "reorder_rate": 0.005}
    client = {"sack_enabled": False, "dsack_enabled": False, "read_buffer": 16384, "write_buffer": 32768,
              "cwnd_growth_profile": "renolike", "seed": 4}
    path.write_text(json.dumps({"link": link, "client": client, "bytes": 20000, "seed": 5, "id": "s"}), encoding="utf-8")
    (scenario,) = scenario_from_json(path)
    assert scenario.link == LinkParams(**link)
    assert scenario.client == ClientParams(**dict(client, cwnd_growth_profile=CwndProfile.RENOLIKE))
    assert (scenario.id, scenario.transfer_bytes, scenario.seed) == ("s", 20000, 5)


def test_every_registry_fault_has_a_client_condition():
    assert FAULT_NAMES == tuple(DEFAULT_FAULT_REGISTRY)
    for fault in FAULT_NAMES:
        assert client_for(fault, 0, CwndProfile.CUBICLIKE, 1) != client_for("HEALTHY", 0, CwndProfile.CUBICLIKE, 1)


@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_a_compound_condition_sets_the_fields_of_each_fault(level):
    buf = BUFFER_LEVELS[level % len(BUFFER_LEVELS)]
    client = client_for("read_buf+write_buf", level, CwndProfile.RENOLIKE, 7)
    assert client == ClientParams(read_buffer=buf, write_buffer=buf, cwnd_growth_profile=CwndProfile.RENOLIKE, seed=7)
    assert client_for("sack_disabled+read_buf", level, CwndProfile.RENOLIKE, 7) == replace(
        client_for("sack_disabled", level, CwndProfile.RENOLIKE, 7), read_buffer=buf
    )


@pytest.mark.parametrize("condition", ["readbuf", "read_buf+", "HEALTHY+read_buf", ""])
def test_an_unknown_client_condition_is_a_config_error(condition):
    with pytest.raises(ConfigError, match="unknown client condition"):
        client_for(condition, 0, CwndProfile.CUBICLIKE, 1)


def test_preset_link_labels_follow_the_link():
    for sc in preset_paper_matrix(6, 3, 4096):
        assert sc.link_label == ("HEALTHY" if sc.link == HEALTHY_LINK else "FAULTY")
        assert sc.link_label == ("FAULTY" if sc.id.startswith("link_faulty") else "HEALTHY")
