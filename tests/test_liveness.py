"""Config-key liveness: every key of the run configuration changes what a
run writes, or sits on an allow-list that says why it does not."""

import pytest

from ssrs.config import RunConfig, apply_overrides, serialize_config
from ssrs.estimator import load_params
from ssrs.training import train, write_run_outputs

# The 20-episode grid run of test_shaped_wrapping_run_matches_golden_hash:
# it shapes, and it wraps its window.
BASE = ("seed=0", "episodes=20", "env.kind=key_door_grid", "env.max_steps=100",
        "epsilon_final=1.0", "estimator_lr=2.0", "buffer_capacity=1000",
        "n_z=3", "estimator_hidden=8", "estimator_dropout=0",
        "eval_interval=5", "eval_episodes=2", "batch_size=8")

# key -> (another valid value, the overrides it is tested under).  A key
# that acts only under another key's value is tested under that value.
VARIANTS = {
    "seed": ("1", ()),
    "episodes": ("10", ()),
    "buffer_capacity": ("900", ()),
    "batch_size": ("9", ()),
    "discount": ("0.9", ()),
    "backbone_lr": ("0.2", ()),
    "q_init": ("0", ()),
    # the base explores at epsilon 1.0 throughout; these two shape the decay
    # towards a lower final epsilon
    "epsilon_start": ("0.9", ("epsilon_final=0.5",)),
    "epsilon_final": ("0.5", ()),
    "epsilon_decay_frac": ("0.25", ("epsilon_final=0.5",)),
    "beta": ("0.3", ()),
    "lambda_final": ("0.5", ()),
    "alpha_final": ("0.3", ()),
    "p_u_base": ("0.05", ()),
    "n_z": ("4", ()),
    "sigmoid_sharpness": ("2.0", ()),
    "soft_select_temp": ("0.5", ()),
    "estimator_lr": ("1.0", ()),
    "estimator_steps": ("2", ()),
    "estimator_hidden": ("6", ()),
    "estimator_dropout": ("0.3", ()),
    # dropout masks are drawn only at a nonzero rate
    "train_dropout": ("on", ("estimator_dropout=0.3",)),
    "shaping": ("off", ()),
    "static_pu": ("on", ()),
    "monotonicity": ("off", ()),
    # the base's optimistic table never solves the grid greedily in 20
    # episodes, so every score is 0; from q_init 0 it does from episode 5
    "eval_interval": ("4", ("q_init=0",)),
    "eval_episodes": ("5", ("q_init=0",)),
    "checkpoint_interval": ("5", ()),
    "augment.pairing": ("ssrs_c", ()),
    "augment.gaussian_sigma": ("0.5", ()),
    # only the ssrs_c pairing's strong view zeroes columns
    "augment.cutout_n": ("3", ("augment.pairing=ssrs_c",)),
    # only the ssrs_m pairing's strong view smooths
    "augment.smooth_n": ("5", ("augment.pairing=ssrs_m",)),
    "augment.partitions": ("2", ()),
    "env.kind": ("sparse_chain", ()),
    # only the chain has a length
    "env.length": ("12", ("env.kind=sparse_chain",)),
    "env.max_steps": ("50", ()),
    "env.width": ("6", ()),
    "env.height": ("6", ()),
    "env.key_x": ("3", ()),
    "env.key_y": ("1", ()),
    "env.door_x": ("3", ()),
    "env.door_y": ("3", ()),
}

# The keys that change none of the outputs, each with its reason.  The list
# is exact: an entry whose key changes an output fails.
INERT = {
    "lambda_final": "lambda_at runs its fixed schedule to 0.9; the key is "
                    "parsed and recorded but not read",
    "alpha_final": "alpha_at runs its fixed ramp to 0.7; the key is parsed "
                   "and recorded but not read",
    "augment.smooth_n": "each row is augmented as a one-row trajectory, and "
                        "a moving average over one row is the row itself",
    "estimator_dropout": "the rate is read only under train_dropout=on; "
                         "otherwise every forward pass is deterministic",
    "checkpoint_interval": "it adds buffer_epN.bin and params_epN.txt "
                           "snapshots and changes none of the final outputs",
    "eval_episodes": "evaluation plays one greedy episode, which is every "
                     "greedy episode on these deterministic environments; "
                     "the key is parsed and recorded but not read",
}

# Compared byte for byte; params_final.txt is compared by its parameter
# values instead, because its header records the dropout rate.
FILES = ("curve.csv", "backbone_q.npy", "buffer_final.bin")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The outputs of the base run with overrides applied, one run per
    distinct config."""
    runs = {}

    def run(overrides):
        config = apply_overrides(RunConfig(), [*BASE, *overrides])
        text = serialize_config(config)
        if text not in runs:
            out = tmp_path_factory.mktemp("run")
            record, backbone, params, buffer = train(config, out_dir=out)
            write_run_outputs(record, config, out, backbone, params, buffer)
            found = {name: (out / name).read_bytes() for name in FILES}
            found["params_final.txt"] = (
                load_params(out / "params_final.txt").flat.tobytes()
                if params is not None else None)
            runs[text] = (config, found)
        return runs[text]

    return run


def test_every_key_has_a_variant():
    keys = [line.split(" = ")[0]
            for line in serialize_config(RunConfig()).splitlines()]
    assert list(VARIANTS) == keys
    assert set(INERT) <= set(VARIANTS)
    for key, (_, under) in VARIANTS.items():
        assert all(not item.startswith(f"{key}=") for item in under)


@pytest.mark.parametrize("key", list(VARIANTS))
def test_key_changes_an_output_unless_allow_listed(outputs, key):
    value, under = VARIANTS[key]
    base_config, base = outputs(under)
    config, changed = outputs([*under, f"{key}={value}"])
    assert serialize_config(config) != serialize_config(base_config)
    moved = [name for name in base if changed[name] != base[name]]
    if key in INERT:
        assert moved == [], f"{key} is allow-listed ({INERT[key]})"
    else:
        assert moved, f"{key}={value} changed none of {', '.join(base)}"
