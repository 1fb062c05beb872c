"""Config parsing, validation, overrides, serialization stability."""

import pytest

from ssrs.config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_hash,
    parse_config,
    serialize_config,
)


class TestDefaults:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.seed == 0
        assert cfg.episodes == 500
        assert cfg.buffer_capacity == 10000
        assert cfg.batch_size == 32
        assert cfg.discount == 0.99
        assert cfg.beta == 0.5
        assert cfg.lambda_final == 0.9
        assert cfg.alpha_final == 0.7
        assert cfg.p_u_base == 0.01
        assert cfg.n_z == 12
        assert cfg.estimator_hidden == (128, 64, 32)
        assert cfg.estimator_dropout == 0.2
        assert cfg.shaping is True
        assert cfg.augment.pairing == "ssrs_s"
        assert cfg.augment.partitions == 8
        assert cfg.env.kind == "sparse_chain"
        assert cfg.env.length == 20

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\n  \nseed = 3  # trailing\n")
        assert cfg.seed == 3


class TestParsing:
    def test_scalar_overrides(self):
        cfg = parse_config("beta = 0.25\nepisodes = 40\nshaping = off\n")
        assert cfg.beta == 0.25
        assert cfg.episodes == 40
        assert cfg.shaping is False

    def test_dotted_sections(self):
        cfg = parse_config("env.kind = key_door_grid\nenv.width = 6\n"
                           "augment.pairing = ssrs_c\naugment.cutout_n = 4\n")
        assert cfg.env.kind == "key_door_grid"
        assert cfg.env.width == 6
        assert cfg.augment.pairing == "ssrs_c"
        assert cfg.augment.cutout_n == 4

    def test_hidden_layer_tuple(self):
        cfg = parse_config("estimator_hidden = 16,8\n")
        assert cfg.estimator_hidden == (16, 8)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("seed = 1\nlearning_rate = 0.1\n")
        assert "line 2" in str(err.value)
        assert "learning_rate" in str(err.value)

    def test_range_violation_reports_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("\nbeta = 2.0\n")
        assert "line 2" in str(err.value)
        assert "beta" in str(err.value)

    def test_malformed_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("just some words\n")
        assert "line 1" in str(err.value)

    def test_bad_int(self):
        with pytest.raises(ConfigError):
            parse_config("episodes = many\n")

    def test_bool_keywords(self):
        assert parse_config("static_pu = on\n").static_pu is True
        with pytest.raises(ConfigError):
            parse_config("static_pu = true\n")

    def test_choice_validation(self):
        with pytest.raises(ConfigError):
            parse_config("augment.pairing = ssrs_x\n")
        with pytest.raises(ConfigError):
            parse_config("env.kind = cartpole\n")

    def test_boundary_values(self):
        assert parse_config("beta = 0.000001\n").beta == 1e-6
        with pytest.raises(ConfigError):
            parse_config("beta = 0\n")  # open interval
        with pytest.raises(ConfigError):
            parse_config("beta = 1\n")
        with pytest.raises(ConfigError):
            parse_config("discount = 1\n")
        with pytest.raises(ConfigError):
            parse_config("estimator_dropout = 1\n")
        assert parse_config("estimator_dropout = 0\n").estimator_dropout == 0.0


# Keys whose range checks let nan (and inf, where there is no upper bound)
# through before non-finite numbers were rejected.
NON_FINITE_KEYS = ("beta", "discount", "estimator_lr", "q_init",
                   "backbone_lr", "sigmoid_sharpness")


class TestNonFinite:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("key", NON_FINITE_KEYS)
    def test_file_value_rejected_with_key_and_line(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(f"episodes = 3\n{key} = {value}\n")
        message = str(err.value)
        assert err.value.line == 2 and "line 2" in message
        assert key in message and "finite" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NON_FINITE_KEYS)
    def test_override_rejected_with_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            apply_overrides(RunConfig(), ["episodes=3", f"{key}={value}"])
        message = str(err.value)
        assert "override 2" in message
        assert key in message and "finite" in message

    def test_large_finite_values_still_parse(self):
        cfg = parse_config("q_init = -1e300\nbackbone_lr = 1e300\n")
        assert (cfg.q_init, cfg.backbone_lr) == (-1e300, 1e300)


class TestCrossChecks:
    def test_epsilon_ordering(self):
        with pytest.raises(ConfigError) as err:
            parse_config("epsilon_start = 0.1\nepsilon_final = 0.5\n")
        assert "epsilon" in str(err.value)

    def test_grid_positions_inside_grid(self):
        with pytest.raises(ConfigError):
            parse_config("env.kind = key_door_grid\nenv.door_x = 9\n")
        # fine once the grid is widened
        parse_config("env.kind = key_door_grid\nenv.width = 10\n"
                     "env.door_x = 9\n")

    def test_chain_config_skips_grid_checks(self):
        # out-of-grid positions are irrelevant for the chain environment
        parse_config("env.door_x = 99\n")


class TestOverrides:
    def test_applied_in_order(self):
        cfg = parse_config("")
        cfg = apply_overrides(cfg, ["seed=5", "seed=7", "beta=0.3"])
        assert cfg.seed == 7
        assert cfg.beta == 0.3

    def test_dotted_override(self):
        cfg = apply_overrides(parse_config(""), ["env.length=9"])
        assert cfg.env.length == 9

    def test_bad_override_flagged_with_position(self):
        with pytest.raises(ConfigError) as err:
            apply_overrides(parse_config(""), ["seed=1", "nope"])
        assert "override" in str(err.value)

    def test_override_rechecks_constraints(self):
        with pytest.raises(ConfigError):
            apply_overrides(parse_config(""), ["epsilon_final=2"])


class TestSerialization:
    def test_roundtrip_identity(self):
        cfg = parse_config("beta = 0.1234567890123456\nepisodes = 77\n"
                           "estimator_hidden = 10,20,30\nshaping = off\n"
                           "env.kind = key_door_grid\nenv.height = 7\n")
        text = serialize_config(cfg)
        again = parse_config(text)
        assert serialize_config(again) == text
        assert again == cfg

    def test_every_key_present(self):
        text = serialize_config(RunConfig())
        for key in ("seed", "beta", "augment.pairing", "env.door_y",
                    "estimator_hidden", "checkpoint_interval"):
            assert any(line.startswith(f"{key} = ") for line in text.splitlines())

    def test_hash_stable_and_sensitive(self):
        a = config_hash(parse_config(""))
        b = config_hash(parse_config("# only a comment\n"))
        c = config_hash(parse_config("seed = 1\n"))
        assert a == b
        assert a != c
        assert len(a) == 64 and all(ch in "0123456789abcdef" for ch in a)


class TestDerivedViews:
    def test_env_spec_chain(self):
        spec = parse_config("env.length = 15\nenv.max_steps = 60\n").env_spec()
        assert spec.kind == "sparse_chain"
        assert spec.params == {"length": 15, "max_steps": 60}

    def test_env_spec_grid(self):
        spec = parse_config("env.kind = key_door_grid\nenv.key_x = 1\n"
                            "env.key_y = 2\n").env_spec()
        assert spec.kind == "key_door_grid"
        assert spec.params["key_pos"] == (1, 2)

    def test_augment_pair_kinds(self):
        weak, strong = parse_config("").augment_pair()
        assert (weak.kind, strong.kind) == ("gaussian", "double_entropy")
        assert strong.params["n"] == 8
        _, strong_m = parse_config("augment.pairing = ssrs_m\n"
                                   "augment.smooth_n = 5\n").augment_pair()
        assert (strong_m.kind, strong_m.params["n"]) == ("smooth", 5)
        _, strong_c = parse_config("augment.pairing = ssrs_c\n").augment_pair()
        assert strong_c.kind == "cutout"
