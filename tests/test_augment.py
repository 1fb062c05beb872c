"""State-block transforms, entropy weighting, weak/strong view pairs."""

import math

import numpy as np
import pytest

from ssrs.augment import (
    PAIRINGS,
    AugmentSpec,
    apply_augment,
    default_cutout_width,
    partition_entropies,
    row_entropy,
    row_views,
    shannon_entropy,
    weak_strong_pair,
)
from ssrs.config import RunConfig, apply_overrides
from ssrs.core import TrajectoryMatrix
from ssrs.envs import SparseChain


def _random_traj(rng, n=6, m1=8, m2=3):
    return TrajectoryMatrix(states=rng.uniform(0, 255, size=(n, m1)),
                            actions=np.eye(m2)[rng.integers(0, m2, size=n)],
                            rewards=rng.normal(size=n))


def _double_entropy(traj, n):
    """The double-entropy transform of ``traj`` with ``n`` partitions; it
    draws nothing from its generator."""
    return apply_augment(AugmentSpec("double_entropy", {"n": n}), traj,
                         np.random.default_rng(0))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

class TestShannonEntropy:
    def test_uniform_two_by_two(self):
        assert shannon_entropy([[1, 1], [1, 1]]) == pytest.approx(
            math.log(4), abs=1e-9)

    def test_one_hot_is_zero(self):
        assert shannon_entropy([[1, 0], [0, 0]]) == 0.0

    def test_skewed_row(self):
        # p = [1/2, 1/4, 1/4] gives 1.5 ln 2.
        assert shannon_entropy([[2, 1, 1]]) == pytest.approx(
            1.5 * math.log(2), abs=1e-9)

    def test_zero_matrix_is_zero(self):
        assert shannon_entropy(np.zeros((3, 4))) == 0.0

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            shannon_entropy([[1.0, -0.5]])

    def test_scale_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = rng.uniform(0, 10, size=(4, 6))
            h = shannon_entropy(a)
            for c in (0.5, 3.0):
                assert abs(shannon_entropy(c * a) - h) <= 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a = rng.uniform(0, 1, size=(3, 5))
            h = shannon_entropy(a)
            assert 0.0 <= h <= math.log(a.size) + 1e-12


class TestDoubleEntropy:
    def test_uniform_row_halves(self):
        traj = TrajectoryMatrix(states=np.ones((1, 4)),
                                actions=np.ones((1, 2)),
                                rewards=np.array([0.5]))
        out = _double_entropy(traj, 2)
        np.testing.assert_allclose(out.states[0], math.log(2) * np.ones(4),
                                   atol=1e-12)
        np.testing.assert_array_equal(out.actions, traj.actions)
        np.testing.assert_array_equal(out.rewards, traj.rewards)

    def test_zero_states_stay_zero(self):
        traj = TrajectoryMatrix(states=np.zeros((3, 6)),
                                actions=np.ones((3, 1)),
                                rewards=np.zeros(3))
        out = _double_entropy(traj, 3)
        np.testing.assert_array_equal(out.states, np.zeros((3, 6)))

    def test_last_partition_absorbs_remainder(self):
        # 5 columns into 2 partitions: widths 2 and 3.
        rng = np.random.default_rng(0)
        states = rng.uniform(0, 1, size=(2, 5))
        traj = TrajectoryMatrix(states=states, actions=np.ones((2, 1)),
                                rewards=np.zeros(2))
        out = _double_entropy(traj, 2)
        h_first = shannon_entropy(states[:, :2])
        h_last = shannon_entropy(states[:, 2:])
        np.testing.assert_allclose(out.states[:, :2], h_first * states[:, :2])
        np.testing.assert_allclose(out.states[:, 2:], h_last * states[:, 2:])

    def test_too_many_partitions_rejected(self):
        traj = TrajectoryMatrix(states=np.ones((1, 3)),
                                actions=np.ones((1, 1)),
                                rewards=np.zeros(1))
        with pytest.raises(ValueError):
            _double_entropy(traj, 4)

    def test_output_nonnegative(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            out = _double_entropy(_random_traj(rng), 4)
            assert np.all(out.states >= 0)


# ---------------------------------------------------------------------------
# transform specs
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        AugmentSpec("sharpen")
    with pytest.raises(ValueError):
        AugmentSpec("gaussian", {"sigma": -1.0})
    with pytest.raises(ValueError):
        AugmentSpec("scale", {"low": 0.5, "high": 1.1})
    with pytest.raises(ValueError):
        AugmentSpec("translate", {"low": 0.05, "high": 0.2})
    assert AugmentSpec("smooth").params["n"] == 3
    assert AugmentSpec("double_entropy").params["n"] == 8


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_gaussian_sigma_must_be_finite_and_nonnegative(sigma):
    with pytest.raises(ValueError, match="gaussian sigma must be finite"):
        AugmentSpec("gaussian", {"sigma": sigma})


@pytest.mark.parametrize("kind, params, unread", [
    ("flip", {"sigma": 0.5}, "sigma"),
    ("gaussian", {"sigma": 0.2, "n": 3}, "n"),
    ("cutout", {"low": 0.1, "high": 0.2}, "high, low"),
    ("scale", {"low": 0.9, "n": 2}, "n"),
    ("double_entropy", {"sigma": 0.1}, "sigma"),
])
def test_spec_rejects_a_parameter_its_kind_does_not_read(kind, params, unread):
    with pytest.raises(ValueError) as err:
        AugmentSpec(kind, params)
    assert str(err.value) == f"{kind} takes no parameter {unread}"


def test_default_cutout_width():
    assert default_cutout_width(128) == 16
    assert default_cutout_width(256) == 16
    assert default_cutout_width(16) == 2
    assert default_cutout_width(9) == 2


def test_pairing_table():
    assert PAIRINGS["ssrs_s"] == ("gaussian", "double_entropy")
    assert PAIRINGS["ssrs_m"] == ("gaussian", "smooth")
    assert PAIRINGS["ssrs_c"] == ("gaussian", "cutout")


# ---------------------------------------------------------------------------
# transform behavior
# ---------------------------------------------------------------------------

def test_gaussian_zero_sigma_is_identity():
    rng = np.random.default_rng(1)
    traj = _random_traj(rng)
    out = apply_augment(AugmentSpec("gaussian", {"sigma": 0.0}), traj,
                        np.random.default_rng(0))
    np.testing.assert_array_equal(out.states, traj.states)


def test_gaussian_clips_at_zero():
    traj = TrajectoryMatrix(states=np.zeros((50, 10)),
                            actions=np.ones((50, 1)), rewards=np.zeros(50))
    out = apply_augment(AugmentSpec("gaussian", {"sigma": 5.0}), traj,
                        np.random.default_rng(0))
    assert np.all(out.states >= 0)
    assert np.any(out.states > 0)


def test_cutout_zeroes_exactly_n_columns():
    rng = np.random.default_rng(2)
    traj = TrajectoryMatrix(states=rng.uniform(1, 2, size=(4, 12)),
                            actions=np.ones((4, 1)), rewards=np.zeros(4))
    out = apply_augment(AugmentSpec("cutout", {"n": 5}), traj,
                        np.random.default_rng(7))
    zeroed = np.all(out.states == 0.0, axis=0)
    assert zeroed.sum() == 5
    np.testing.assert_array_equal(out.states[:, ~zeroed], traj.states[:, ~zeroed])


def test_cutout_full_width_blanks_state():
    rng = np.random.default_rng(3)
    traj = _random_traj(rng, m1=6)
    out = apply_augment(AugmentSpec("cutout", {"n": 6}), traj,
                        np.random.default_rng(0))
    np.testing.assert_array_equal(out.states, np.zeros_like(traj.states))


def test_smooth_trailing_window():
    states = np.array([[0.0], [2.0], [4.0], [6.0]])
    traj = TrajectoryMatrix(states=states, actions=np.ones((4, 1)),
                            rewards=np.zeros(4))
    out = apply_augment(AugmentSpec("smooth", {"n": 2}), traj,
                        np.random.default_rng(0))
    np.testing.assert_allclose(out.states[:, 0], [0.0, 1.0, 3.0, 5.0])


def test_scale_single_factor():
    rng = np.random.default_rng(4)
    traj = _random_traj(rng)
    out = apply_augment(AugmentSpec("scale"), traj, np.random.default_rng(21))
    factor = np.random.default_rng(21).uniform(0.8, 1.2)
    np.testing.assert_allclose(out.states, factor * traj.states)


def test_translate_circular_shift():
    rng = np.random.default_rng(5)
    traj = _random_traj(rng, m1=20)
    out = apply_augment(AugmentSpec("translate"), traj,
                        np.random.default_rng(33))
    frac = np.random.default_rng(33).uniform(0.0, 0.1)
    np.testing.assert_array_equal(out.states,
                                  np.roll(traj.states, int(frac * 20), axis=1))


def test_flip_is_involution():
    rng = np.random.default_rng(6)
    traj = _random_traj(rng)
    spec = AugmentSpec("flip")
    once = apply_augment(spec, traj, np.random.default_rng(0))
    twice = apply_augment(spec, once, np.random.default_rng(0))
    np.testing.assert_array_equal(twice.states, traj.states)
    assert not np.array_equal(once.states, traj.states)


def test_all_transforms_preserve_shapes_actions_rewards():
    rng = np.random.default_rng(8)
    specs = [AugmentSpec("gaussian"), AugmentSpec("cutout"),
             AugmentSpec("smooth"), AugmentSpec("scale"),
             AugmentSpec("translate"), AugmentSpec("flip"),
             AugmentSpec("double_entropy", {"n": 4})]
    for _ in range(30):
        traj = _random_traj(rng)
        for spec in specs:
            out = apply_augment(spec, traj, np.random.default_rng(0))
            assert out.states.shape == traj.states.shape
            np.testing.assert_array_equal(out.actions, traj.actions)
            np.testing.assert_array_equal(out.rewards, traj.rewards)


# ---------------------------------------------------------------------------
# weak/strong pairs
# ---------------------------------------------------------------------------

def test_weak_strong_pair_named():
    rng = np.random.default_rng(10)
    traj = _random_traj(rng, m1=128)
    pair = tuple(AugmentSpec(kind) for kind in PAIRINGS["ssrs_c"])
    weak, strong = weak_strong_pair(pair, traj, np.random.default_rng(0))
    # weak view: small additive noise; strong view: 16 zeroed columns
    assert np.all(np.abs(weak.states - traj.states) < 2.0)
    assert np.all(np.all(strong.states == 0.0, axis=0).sum() == 16)


def test_weak_strong_pair_deterministic():
    rng = np.random.default_rng(11)
    traj = _random_traj(rng)
    pair = (AugmentSpec("gaussian", {"sigma": 0.2}),
            AugmentSpec("double_entropy", {"n": 2}))
    w1, s1 = weak_strong_pair(pair, traj, np.random.default_rng(42))
    w2, s2 = weak_strong_pair(pair, traj, np.random.default_rng(42))
    np.testing.assert_array_equal(w1.states, w2.states)
    np.testing.assert_array_equal(s1.states, s2.states)


# ---------------------------------------------------------------------------
# row-batched entropy and views
# ---------------------------------------------------------------------------

def _sparse_rows(rng, n, m1):
    """Nonnegative rows with a varying share of zeros, whole zero rows and
    one-hot rows included."""
    rows = rng.uniform(0.0, 255.0, size=(n, m1))
    rows *= rng.random((n, m1)) < rng.random((n, 1))
    rows[0] = 0.0
    rows[1] = 0.0
    rows[1, m1 // 2] = 255.0
    return rows


def _entropy_reference(matrix):
    """Entropy of all entries as one 1-D sum over the positive
    probabilities: the per-matrix formula the row-batched entropy replaced."""
    a = np.asarray(matrix, dtype=np.float64)
    total = a.sum()
    if total == 0.0:
        return 0.0
    p = a / total
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def test_row_entropy_matches_shannon_entropy_bitwise():
    rng = np.random.default_rng(12)
    for m1 in (1, 2, 3, 7, 8, 9, 16, 24, 63, 128, 300):
        rows = _sparse_rows(rng, 40, m1)
        reference = [_entropy_reference(row) for row in rows]
        # bitwise, so the sign of the zero entropy of a one-hot row counts
        assert _bits(row_entropy(rows)) == _bits(reference), m1
        assert _bits([shannon_entropy(row) for row in rows]) == _bits(reference)
        # rows read out of a wider matrix (strided) give the same bits
        wide = np.hstack([rows, rows])[:, :m1]
        assert _bits(row_entropy(wide)) == _bits(reference), m1
        block = rows[:8]
        assert _bits(shannon_entropy(block)) == _bits(_entropy_reference(block))
    with pytest.raises(ValueError):
        row_entropy([[1.0, -1.0]])
    with pytest.raises(ValueError):
        row_entropy([1.0, 2.0])


def test_double_entropy_matches_per_partition_reference():
    rng = np.random.default_rng(13)
    for _ in range(300):
        steps = int(rng.integers(1, 12))
        m1 = int(rng.integers(1, 48))
        n = int(rng.integers(1, m1 + 1))
        states = _sparse_rows(rng, max(steps, 2), m1)[:steps]
        traj = TrajectoryMatrix(states=states, actions=np.ones((steps, 1)),
                                rewards=np.zeros(steps))
        width = m1 // n
        expected = states.copy()
        for i in range(n):
            lo, hi = i * width, (i + 1) * width if i < n - 1 else m1
            block = states[:, lo:hi]
            expected[:, lo:hi] = _entropy_reference(block) * block
        assert _double_entropy(traj, n).states.tobytes() == expected.tobytes()


def test_partition_entropies_match_per_partition_reference():
    # the layout double_entropy weights by and augment-check reports
    rng = np.random.default_rng(14)
    for _ in range(200):
        n_traj, steps = int(rng.integers(1, 4)), int(rng.integers(1, 9))
        m1 = int(rng.integers(1, 40))
        n = int(rng.integers(1, m1 + 1))
        blocks = _sparse_rows(rng, n_traj * steps + 2, m1)[2:].reshape(
            n_traj, steps, m1)
        width = m1 // n
        expected = [[_entropy_reference(block[:, i * width:
                                              (i + 1) * width if i < n - 1
                                              else m1])
                     for i in range(n)] for block in blocks]
        got = partition_entropies(blocks, n)
        assert got.shape == (n_traj, n)
        assert _bits(got) == _bits(expected)
    with pytest.raises(ValueError):
        partition_entropies(np.ones((1, 2, 3)), 4)
    with pytest.raises(ValueError):
        partition_entropies(np.ones((1, 2, 3)), 0)


def _per_row_views(pairing, states, seed):
    """Views of each row as its own one-row trajectory, one
    ``weak_strong_pair`` call per row: the reference ``row_views`` batches."""
    children = np.random.SeedSequence(seed).spawn(len(states))
    weak, strong = [], []
    for row, child in zip(states, children):
        traj = TrajectoryMatrix(states=row[None], actions=np.ones((1, 2)),
                                rewards=np.zeros(1))
        view_w, view_s = weak_strong_pair(
            pairing, traj, np.random.Generator(np.random.PCG64(child)))
        weak.append(view_w.states[0])
        strong.append(view_s.states[0])
    return np.array(weak), np.array(strong)


def _chain_rows(rng, n):
    env = SparseChain(length=20, max_steps=100)
    codes, code = [], env.reset()
    while len(codes) < n:
        codes.append(code)
        code, _, done = env.step(int(rng.integers(2)))
        if done:
            code = env.reset()
    return env.observations(np.array(codes))


@pytest.mark.parametrize("pairing", ["ssrs_s", "ssrs_m", "ssrs_c"])
@pytest.mark.parametrize("partitions", [1, 2, 3, 8])
def test_row_views_match_per_row_pairs(pairing, partitions):
    config = apply_overrides(RunConfig(), [
        f"augment.pairing={pairing}", f"augment.partitions={partitions}",
        "augment.gaussian_sigma=3.5", "augment.cutout_n=5",
        "augment.smooth_n=4",
    ])
    pair = config.augment_pair()
    rng = np.random.default_rng(partitions)
    for states in (_chain_rows(rng, 32), _sparse_rows(rng, 32, 40),
                   _sparse_rows(rng, 5, 24)):
        seed = int(rng.integers(2 ** 63))
        weak, strong = row_views(pair, states, seed)
        ref_weak, ref_strong = _per_row_views(pair, states, seed)
        assert weak.tobytes() == ref_weak.tobytes()
        assert strong.tobytes() == ref_strong.tobytes()
    if pairing == "ssrs_m":
        # a one-row window is the row itself
        np.testing.assert_array_equal(strong, states)


@pytest.mark.parametrize("kind", ["scale", "translate", "flip", "smooth"])
def test_row_views_match_per_row_for_other_kinds(kind):
    rng = np.random.default_rng(5)
    states = _sparse_rows(rng, 12, 16)
    pair = (AugmentSpec(kind), AugmentSpec("cutout", {"n": 3}))
    weak, strong = row_views(pair, states, 99)
    ref_weak, ref_strong = _per_row_views(pair, states, 99)
    assert weak.tobytes() == ref_weak.tobytes()
    assert strong.tobytes() == ref_strong.tobytes()


def test_row_views_of_no_rows():
    pair = RunConfig().augment_pair()
    weak, strong = row_views(pair, np.zeros((0, 24)), 3)
    assert weak.shape == strong.shape == (0, 24)
    with pytest.raises(ValueError):
        row_views(pair, -np.ones((2, 24)), 3)
