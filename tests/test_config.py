"""SheriffConfig JSON round-trips."""

import json

import pytest

from repro.config import SheriffConfig
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.sim.inflight import MigrationTiming


class TestRoundTrip:
    def test_defaults_round_trip(self):
        cfg = SheriffConfig()
        assert SheriffConfig.from_dict(cfg.to_dict()) == cfg

    def test_scalars_round_trip_through_json(self):
        cfg = SheriffConfig(
            alpha=0.2,
            balance_weight=12.5,
            migration_cooldown=5,
            with_flows=True,
        )
        wire = json.dumps(cfg.to_dict(), sort_keys=True)
        assert SheriffConfig.from_dict(json.loads(wire)) == cfg

    def test_nested_dataclasses_round_trip(self):
        cfg = SheriffConfig(migration_timing=MigrationTiming(round_seconds=30.0))
        back = SheriffConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert back.migration_timing == cfg.migration_timing

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="ballance_weight"):
            SheriffConfig.from_dict({"ballance_weight": 25.0})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("workers", 4),
            ("planner", "sharded"),
            ("shards", 2),
            ("auto_inline_threshold", 16384),
        ],
    )
    def test_removed_planner_keys_fail_by_name(self, key, value):
        # a config file written for the planner matrix must not be read as
        # a typo: the error says the key is gone and what happens instead
        with pytest.raises(ConfigurationError) as exc:
            SheriffConfig.from_dict({"balance_weight": 25.0, key: value})
        message = str(exc.value)
        assert key in message
        assert "removed" in message and "always inline" in message
        assert "allowed:" not in message
        assert not hasattr(SheriffConfig(), key)

    @pytest.mark.parametrize(
        "key, value, reason",
        [
            ("flow_rate", 0.1, "rate 0.05"),
            ("cache_cost_kernels", False, "cache is always on"),
            ("slo_round_minutes", 5.0, "one minute"),
            ("slo_damage_weight", 2.0, "weight 1"),
            ("cost_params", {"delta": 2.0}, "paper's CostParams()"),
            ("beta", 0.3, "portion is 0.1"),
            ("profile", False, "records its section timings"),
        ],
    )
    def test_removed_fixed_value_keys_fail_with_their_own_reason(
        self, key, value, reason
    ):
        # each removed key names what replaced it, not the planner's reason
        with pytest.raises(ConfigurationError) as exc:
            SheriffConfig.from_dict({"balance_weight": 25.0, key: value})
        message = str(exc.value)
        assert f"{key} (" in message and reason in message
        assert "always inline" not in message and "allowed:" not in message
        assert not hasattr(SheriffConfig(), key)

    def test_each_removed_key_in_one_file_is_named_with_its_reason(self):
        with pytest.raises(ConfigurationError) as exc:
            SheriffConfig.from_dict({"workers": 4, "flow_rate": 0.1})
        message = str(exc.value)
        assert "flow_rate (every dependency flow has rate 0.05)" in message
        assert "workers (planning is always inline" in message

    def test_non_object_rejected(self):
        with pytest.raises(ConfigurationError, match="object"):
            SheriffConfig.from_dict([1, 2])

    def test_bad_nested_key_rejected(self):
        with pytest.raises(ConfigurationError, match="migration_timing"):
            SheriffConfig.from_dict({"migration_timing": {"warp_factor": 9}})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("round_seconds", -60.0),
            ("round_seconds", 0),
            ("bandwidth_mbps", float("inf")),
            ("dirty_fraction", -0.1),
        ],
    )
    def test_bad_migration_timing_value_rejected_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=f"MigrationTiming.{field}"):
            SheriffConfig.from_dict({"migration_timing": {field: value}})

    def test_runtime_handles_refuse_to_serialize(self):
        cfg = SheriffConfig(metrics=MetricsRegistry())
        with pytest.raises(ConfigurationError, match="metrics"):
            cfg.to_dict()
