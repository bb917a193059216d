"""CampaignSpec: JSON round-trips, settings bridge, work enumeration."""

import json

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    RunnerSettings,
    config_from_dict,
    config_to_dict,
)
from repro.core.schemes import VoltageMode
from repro.experiments.configs import (
    ALL_CONFIGS,
    LV_BASELINE,
    LV_BLOCK,
    LV_BLOCK_V10,
    LV_WORD,
)

SETTINGS = RunnerSettings(
    n_instructions=3_000,
    warmup_instructions=1_000,
    n_fault_maps=2,
    benchmarks=("gzip", "crafty"),
)


def spec(**overrides) -> CampaignSpec:
    base = dict(
        configs=(LV_BASELINE, LV_BLOCK),
        benchmarks=("gzip",),
        n_instructions=3_000,
        n_fault_maps=2,
        warmup_instructions=1_000,
        figure="fig8",
    )
    base.update(overrides)
    return CampaignSpec(**base)


class TestConfigSerialization:
    @pytest.mark.parametrize("config", ALL_CONFIGS)
    def test_round_trip_every_table_iii_row(self, config):
        assert config_from_dict(config_to_dict(config)) == config

    def test_voltage_serializes_by_name(self):
        data = config_to_dict(LV_BLOCK)
        assert data["voltage"] == "LOW"
        assert config_from_dict(data).voltage is VoltageMode.LOW


class TestSpecValues:
    def test_equal_specs_compare_and_hash_equal(self):
        assert spec() == spec()
        assert hash(spec()) == hash(spec())

    def test_list_inputs_freeze_to_tuples(self):
        s = CampaignSpec(configs=[LV_BASELINE], benchmarks=["gzip"])
        assert s.configs == (LV_BASELINE,)
        assert s.benchmarks == ("gzip",)
        assert s == CampaignSpec(configs=(LV_BASELINE,), benchmarks=("gzip",))

    def test_empty_configs_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(configs=())

    def test_fidelity_validated_like_settings(self):
        with pytest.raises(ValueError):
            spec(n_instructions=0)
        with pytest.raises(ValueError):
            spec(benchmarks=("not-a-benchmark",))

    def test_settings_bridge_round_trips(self):
        s = CampaignSpec.from_settings(SETTINGS, (LV_BASELINE,), figure="fig8")
        assert s.settings() == SETTINGS
        assert s.figure == "fig8"

    def test_from_settings_benchmark_override(self):
        s = CampaignSpec.from_settings(
            SETTINGS, (LV_BASELINE,), benchmarks=("gzip",)
        )
        assert s.benchmarks == ("gzip",)
        assert s.settings().benchmarks == ("gzip",)


class TestJsonRoundTrip:
    def test_identity(self):
        s = spec()
        assert CampaignSpec.from_json(s.to_json()) == s

    def test_dict_shape_is_json_native(self):
        data = json.loads(spec().to_json())
        assert data["figure"] == "fig8"
        assert data["benchmarks"] == ["gzip"]
        assert data["configs"][0]["scheme"] == "baseline"

    def test_unknown_schema_rejected(self):
        data = spec().to_dict()
        data["schema"] = 999
        with pytest.raises(ValueError):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_fault_maps", 2.9),
            ("seed", True),
            ("n_instructions", "3000"),
            ("warmup_instructions", 1000.0),
            ("victim_entries", 15.5),
            ("victim_entries", False),
        ],
    )
    def test_mistyped_numbers_rejected_not_coerced(self, field, value):
        # A spec from outside the program must name the campaign it
        # runs: 2.9 maps would run 2, a True seed would run seed 1.
        data = spec(configs=(LV_BASELINE, LV_BLOCK_V10)).to_dict()
        if field == "victim_entries":
            data["configs"][1][field] = value
        else:
            data[field] = value
        with pytest.raises(TypeError, match=f"{field} is an int"):
            CampaignSpec.from_dict(data)

    @pytest.mark.parametrize("pfail", [5.0, -0.001, float("nan")])
    def test_pfail_outside_a_probability_rejected(self, pfail):
        data = spec().to_dict()
        data["pfail"] = pfail
        with pytest.raises(ValueError, match="pfail must be in"):
            CampaignSpec.from_dict(data)
        with pytest.raises(ValueError, match="pfail must be in"):
            RunnerSettings(pfail=pfail)

    def test_round_trip_preserves_task_keys(self):
        s = spec(configs=(LV_BASELINE, LV_WORD, LV_BLOCK, LV_BLOCK_V10))
        assert CampaignSpec.from_json(s.to_json()).task_keys() == s.task_keys()


class TestWorkItems:
    def test_fault_dependent_configs_enumerate_maps(self):
        items = list(spec().work_items())
        assert ("gzip", LV_BASELINE, None) in items
        assert ("gzip", LV_BLOCK, 0) in items
        assert ("gzip", LV_BLOCK, 1) in items
        assert len(items) == 3

    def test_duplicate_configs_enumerate_once(self):
        s = spec(configs=(LV_BLOCK, LV_BLOCK))
        assert len(list(s.work_items())) == 2

    def test_task_keys_deduplicate_content_hashes(self):
        # Two configs differing only in label share physical content.
        relabeled = LV_BLOCK.__class__(
            label="block disabling (copy)",
            scheme=LV_BLOCK.scheme,
            voltage=LV_BLOCK.voltage,
            victim_entries=LV_BLOCK.victim_entries,
        )
        s = spec(configs=(LV_BLOCK, relabeled))
        assert len(s.task_keys()) == 2  # maps 0 and 1, labels collapsed

    def test_task_keys_track_fidelity(self):
        assert spec().task_keys() != spec(seed=7).task_keys()
