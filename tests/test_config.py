"""CompilerConfig validation and presets."""

import pytest

from repro.config import ALLOCATOR_STRATEGIES, CompilerConfig, CostModel


class TestPresets:
    def test_paper_default(self):
        cfg = CompilerConfig.paper_default()
        assert cfg.num_arg_regs == 6
        assert cfg.num_temp_regs == 6
        assert cfg.save_strategy == "lazy"
        assert cfg.restore_strategy == "eager"
        assert cfg.shuffle_strategy == "greedy"
        assert cfg.save_convention == "caller"

    def test_baseline(self):
        cfg = CompilerConfig.baseline()
        assert cfg.num_arg_regs == 0
        assert cfg.num_temp_regs == 0

    def test_with_override(self):
        cfg = CompilerConfig().with_(save_strategy="late")
        assert cfg.save_strategy == "late"
        assert cfg.num_arg_regs == 6

    def test_frozen(self):
        with pytest.raises(Exception):
            CompilerConfig().save_strategy = "early"


class TestValidation:
    def test_bad_save_strategy(self):
        with pytest.raises(ValueError, match="save strategy"):
            CompilerConfig(save_strategy="sometimes")

    def test_bad_restore_strategy(self):
        with pytest.raises(ValueError, match="restore strategy"):
            CompilerConfig(restore_strategy="never")

    def test_bad_shuffle_strategy(self):
        with pytest.raises(ValueError, match="shuffle strategy"):
            CompilerConfig(shuffle_strategy="random")

    def test_bad_convention(self):
        with pytest.raises(ValueError, match="convention"):
            CompilerConfig(save_convention="both")

    def test_bad_prediction_mode(self):
        with pytest.raises(ValueError, match="prediction"):
            CompilerConfig(branch_prediction="oracle")

    def test_negative_registers(self):
        with pytest.raises(ValueError):
            CompilerConfig(num_arg_regs=-1)

    def test_bad_cost_model(self):
        with pytest.raises(ValueError):
            CompilerConfig(cost_model=CostModel(load_latency=0))

    def test_valid_prediction_modes(self):
        CompilerConfig(branch_prediction=None)
        CompilerConfig(branch_prediction="static-calls")
        CompilerConfig(branch_prediction="fallthrough")


class TestAllocatorField:
    def test_default_is_lazy(self):
        assert CompilerConfig().allocator == "lazy"

    def test_every_registered_strategy_is_accepted(self):
        for name in ALLOCATOR_STRATEGIES:
            assert CompilerConfig(allocator=name).allocator == name

    def test_unknown_allocator_one_line_diagnostic(self):
        with pytest.raises(ValueError) as exc:
            CompilerConfig(allocator="firstfit")
        message = str(exc.value)
        assert "unknown allocator: 'firstfit'" in message
        assert "\n" not in message
        for name in ALLOCATOR_STRATEGIES:
            assert name in message

    def test_fingerprint_differs_per_strategy(self):
        prints = {
            CompilerConfig(allocator=name).fingerprint()
            for name in ALLOCATOR_STRATEGIES
        }
        assert len(prints) == len(ALLOCATOR_STRATEGIES)

    def test_round_trip_preserves_allocator(self):
        cfg = CompilerConfig(allocator="graphcolor", num_arg_regs=2)
        again = CompilerConfig.from_dict(cfg.as_dict())
        assert again == cfg
        assert again.allocator == "graphcolor"

    def test_summary_omits_default_allocator(self):
        # Golden corpus headers predate the allocator field; the default
        # must not change their byte content.
        assert "allocator" not in CompilerConfig().summary()
        assert (
            CompilerConfig(allocator="linearscan").summary()["allocator"]
            == "linearscan"
        )


class TestShuffleStrategies:
    def test_permopt_registered(self):
        from repro.config import SHUFFLE_STRATEGIES

        assert "permopt" in SHUFFLE_STRATEGIES
        assert CompilerConfig(shuffle_strategy="permopt").shuffle_strategy == (
            "permopt"
        )

    def test_fingerprint_differs_per_shuffle_strategy(self):
        from repro.config import SHUFFLE_STRATEGIES

        prints = {
            CompilerConfig(shuffle_strategy=name).fingerprint()
            for name in SHUFFLE_STRATEGIES
        }
        assert len(prints) == len(SHUFFLE_STRATEGIES)

    def test_shuffle_matrix_pins_the_strategy(self):
        from repro.config import shuffle_matrix

        configs = shuffle_matrix("permopt")
        assert configs
        assert all(c.shuffle_strategy == "permopt" for c in configs)
        # The matrix varies the orthogonal knobs, not just registers.
        assert len({c.summary().get("allocator", "lazy") for c in configs}) > 1

    def test_shuffle_matrix_rejects_unknown_strategy(self):
        from repro.config import shuffle_matrix

        with pytest.raises(ValueError):
            shuffle_matrix("bogus")

    def test_full_matrix_includes_permopt(self):
        from repro.config import full_matrix

        assert any(
            c.shuffle_strategy == "permopt" for c in full_matrix()
        )


class TestServeConfig:
    def test_defaults_and_round_trip(self):
        from repro.config import ServeConfig

        config = ServeConfig()
        doc = config.as_dict()
        assert doc["max_clients"] == 128
        assert doc["dedup"] is True
        assert ServeConfig(**doc) == config

    def test_validation(self):
        import pytest

        from repro.config import ServeConfig

        with pytest.raises(ValueError):
            ServeConfig(port=70000)
        with pytest.raises(ValueError):
            ServeConfig(max_clients=0)
        with pytest.raises(ValueError):
            ServeConfig(max_pending_per_tenant=0)
        with pytest.raises(ValueError):
            ServeConfig(drain_grace_s=-1)

    def test_parse_address(self):
        import pytest

        from repro.config import ServeConfig

        assert ServeConfig.parse_address("127.0.0.1:8080") == ("127.0.0.1", 8080)
        assert ServeConfig.parse_address("localhost:0") == ("localhost", 0)
        for bad in ("8080", ":8080", "host:", "host:nan", "host:99999"):
            with pytest.raises(ValueError):
                ServeConfig.parse_address(bad)

    def test_with_address(self):
        from repro.config import ServeConfig

        moved = ServeConfig().with_address("0.0.0.0", 9000)
        assert (moved.host, moved.port) == ("0.0.0.0", 9000)
        assert moved.max_clients == ServeConfig().max_clients
