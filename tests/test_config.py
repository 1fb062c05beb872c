"""Config parsing, validation, overrides, serialization stability."""

from dataclasses import fields

import pytest

from ssrs.config import (
    AugmentConfig,
    ConfigError,
    EnvConfig,
    RunConfig,
    apply_overrides,
    config_hash,
    parse_config,
    parse_int_list,
    serialize_config,
)
from ssrs.envs import KeyDoorGrid, SparseChain, make_env


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

    @pytest.mark.parametrize("raw", ["8,,16", "8,", ",8", ",", "", "8,0"])
    def test_hidden_layer_empty_or_zero_entry_rejected(self, raw):
        with pytest.raises(ConfigError) as err:
            parse_config(f"seed = 1\nestimator_hidden = {raw}\n")
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: estimator_hidden: ")
        assert repr(raw) in str(err.value)

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

    def test_repeated_key_names_it_and_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("episodes = 3\nbeta = 0.3\n episodes=7 # again\n")
        assert err.value.line == 3
        assert str(err.value) == ("line 3: key 'episodes' is already set on "
                                  "line 1")

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
        cfg = parse_config("q_init = -1e300\nestimator_lr = 1e300\n")
        assert (cfg.q_init, cfg.estimator_lr) == (-1e300, 1e300)


class TestBackboneLr:
    # q += lr * (target - q) leaves the convex hull of q and its target
    # above 1; 1.5 used to parse and end the run with a non-finite table
    @pytest.mark.parametrize("value", ["1.5", "2", "0", "-0.1"])
    def test_outside_half_open_unit_rejected(self, value):
        with pytest.raises(ConfigError) as err:
            apply_overrides(RunConfig(), [f"backbone_lr={value}"])
        message = str(err.value)
        assert message.startswith("override 1: backbone_lr: ")
        assert "must be" in message

    @pytest.mark.parametrize("value", ["1.0", "1", "0.5", "1e-9"])
    def test_inside_half_open_unit_accepted(self, value):
        cfg = apply_overrides(RunConfig(), [f"backbone_lr={value}"])
        assert cfg.backbone_lr == float(value)


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

    @pytest.mark.parametrize("overrides, message", [
        (["env.key_x=0", "env.key_y=0"], "start cell"),
        (["env.key_x=4", "env.key_y=4"], "different cells"),
        (["env.door_y=5"], "door position (4, 5) falls outside the 5x5 grid"),
    ])
    def test_grid_constructor_errors_become_config_errors(self, overrides,
                                                          message):
        # the environment's own check is the config's: one validator
        with pytest.raises(ConfigError) as err:
            apply_overrides(RunConfig(), ["env.kind=key_door_grid", *overrides])
        assert str(err.value).startswith("env: ")
        assert message in str(err.value)

    def test_chain_config_skips_grid_checks(self):
        # out-of-grid positions are irrelevant for the chain environment
        parse_config("env.door_x = 99\n")

    @pytest.mark.parametrize("key", ["partitions", "cutout_n"])
    def test_augment_columns_within_the_state_width(self, key):
        # The default chain's states are 24 values wide; the grid's 32.
        apply_overrides(RunConfig(), [f"augment.{key}=24"])
        for text in (f"augment.{key} = 25\n",
                     f"env.length = 4\naugment.{key} = 9\n"):
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert str(err.value).startswith(f"augment.{key}: ")
            assert "state width" in str(err.value)
        with pytest.raises(ConfigError, match=f"augment.{key}"):
            apply_overrides(RunConfig(), [f"augment.{key}=100"])
        apply_overrides(RunConfig(), ["env.kind=key_door_grid",
                                      f"augment.{key}=32"])


class TestIntList:
    def test_values_and_whitespace(self):
        assert parse_int_list("3", 0) == (3,)
        assert parse_int_list(" 1, 2 ,3", 0) == (1, 2, 3)
        assert parse_int_list("-2,5", -2) == (-2, 5)

    @pytest.mark.parametrize("raw", ["", ",", "1,,2", "1,", ",1", "1,x",
                                     "1.5"])
    def test_empty_or_non_integer_entry_rejected(self, raw):
        with pytest.raises(ValueError) as err:
            parse_int_list(raw, 0)
        assert repr(raw) in str(err.value)

    def test_lower_bound(self):
        with pytest.raises(ValueError) as err:
            parse_int_list("4,2", 3)
        assert ">= 3" in str(err.value) and "'4,2'" in str(err.value)


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
        # pinned: a change to key names, order or value format shows here
        assert config_hash(cfg) == ("be29514f03ee5652541ec4788d298d53"
                                    "472891519bb72e46bf2647d5fdec9ee1")

    def test_default_hash_pinned(self):
        assert config_hash(RunConfig()) == ("abbb7734233c7ad386d72cd73efbae3b"
                                            "e752299941003c5a278f65f8c4c8586d")

    def test_keys_follow_field_order(self):
        keys = [line.split(" = ")[0]
                for line in serialize_config(RunConfig()).splitlines()]
        scalars = [f.name for f in fields(RunConfig)
                   if f.name not in ("augment", "env")]
        assert keys == (scalars
                        + [f"augment.{f.name}" for f in fields(AugmentConfig)]
                        + [f"env.{f.name}" for f in fields(EnvConfig)])
        assert len(keys) == 42

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
    def test_make_env_reads_the_chain_keys(self):
        env = make_env(parse_config("env.length = 15\nenv.max_steps = 60\n").env)
        assert isinstance(env, SparseChain)
        assert (env.length, env.max_steps) == (15, 60)

    def test_make_env_reads_the_grid_keys(self):
        env = make_env(parse_config("env.kind = key_door_grid\nenv.key_x = 1\n"
                                    "env.key_y = 2\n").env)
        assert isinstance(env, KeyDoorGrid)
        assert (env.key_pos, env.door_pos) == ((1, 2), (4, 4))

    def test_augment_pair_kinds(self):
        weak, strong = parse_config("").augment_pair()
        assert (weak.kind, strong.kind) == ("gaussian", "double_entropy")
        assert strong.params["n"] == 8
        _, strong_m = parse_config("augment.pairing = ssrs_m\n"
                                   "augment.smooth_n = 5\n").augment_pair()
        assert (strong_m.kind, strong_m.params["n"]) == ("smooth", 5)
        _, strong_c = parse_config("augment.pairing = ssrs_c\n").augment_pair()
        assert strong_c.kind == "cutout"
