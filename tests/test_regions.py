import json

import numpy as np
import pytest

from localsvm import (InputError, PartitionConfig, RegionPartition, WeightedSample,
                      WeightScheme, regionalize, restrict, weight_sup_norm)
from conftest import manual_partition, two_blobs


def test_single_region_covers_everything():
    data = two_blobs(seed=1)
    part = regionalize(data.X, b_target=1, tau=0.0, seed=0)
    assert part.B == 1
    assert part.membership(data.X).any(axis=1).all()
    scheme = WeightScheme("normalized-indicator", part)
    assert weight_sup_norm(scheme, 1) == 1.0


def test_separated_clusters_disjoint_regions():
    data = two_blobs(n_per=25, gap=10.0, seed=2)
    part = regionalize(data.X, b_target=2, tau=0.0, min_region_size=5, seed=0)
    assert part.B == 2
    M = part.membership(data.X)
    assert M.any(axis=1).all()
    assert (M.sum(axis=1) == 1).all()  # tau = 0 on well-separated blobs


def test_overlap_factor_creates_shared_membership():
    # two touching 1-d clusters; tau = 0.5 inflates radii across the midpoint
    X = np.concatenate([np.linspace(0.0, 1.0, 20), np.linspace(1.2, 2.2, 20)])[:, None]
    part = regionalize(X, b_target=2, tau=0.5, min_region_size=5, seed=0)
    mid = np.array([[1.1]])
    assert part.membership(mid).sum() >= 2


def test_too_few_points_rejected():
    X = np.random.default_rng(0).normal(size=(9, 2))
    with pytest.raises(InputError, match="9 points cannot fill 2 regions"):
        regionalize(X, b_target=2, min_region_size=5, seed=0)


def test_parameter_validation():
    X = np.random.default_rng(0).normal(size=(20, 2))
    with pytest.raises(InputError):
        regionalize(X, b_target=0)
    with pytest.raises(InputError):
        regionalize(X, b_target=2, tau=-0.1)
    with pytest.raises(InputError):
        regionalize(X, 2, tau=float("nan"))
    with pytest.raises(InputError):
        PartitionConfig(b_target=2, tau=float("nan")).build(X)
    with pytest.raises(InputError):
        regionalize(X, b_target=2, min_region_size=0)


def test_determinism_same_seed():
    data = two_blobs(n_per=30, seed=3)
    p1 = regionalize(data.X, b_target=3, tau=0.2, min_region_size=3, seed=42)
    p2 = regionalize(data.X, b_target=3, tau=0.2, min_region_size=3, seed=42)
    assert p1.B == p2.B
    for r1, r2 in zip(p1.regions, p2.regions):
        np.testing.assert_array_equal(r1.center, r2.center)
        assert r1.radius == r2.radius


def test_small_clusters_get_merged():
    rng = np.random.default_rng(4)
    # two real blobs plus an isolated pair: the pair's cluster is dissolved
    X = np.vstack([rng.normal(0.0, 0.3, size=(30, 2)),
                   rng.normal(8.0, 0.3, size=(30, 2)),
                   np.array([[20.0, 20.0], [20.1, 20.0]])])
    part = regionalize(X, b_target=3, tau=0.0, min_region_size=5, seed=1)
    assert part.B == 2
    assert part.membership(X).any(axis=1).all()


def test_cover_invariant_after_regionalize():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-5, 5, size=(80, 3))
        part = regionalize(X, b_target=4, tau=0.1, min_region_size=2, seed=seed)
        assert part.membership(X).any(axis=1).all()


def plane_partition():
    """A 2-d partition of 60 points into two overlapping balls."""
    X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(60, 2))
    part = regionalize(X, b_target=2, tau=0.1, seed=0)
    assert part.B == 2
    return part


@pytest.mark.parametrize("dim", [1, 3])
def test_points_of_another_dimension_are_rejected(dim):
    # a 1-d point would broadcast against a 2-d center and a 3-d one fail
    # inside numpy; every ball test rejects both alike
    part = plane_partition()
    X = np.random.default_rng(8).uniform(-1.0, 1.0, size=(60, dim))
    message = f"region 1 is 2-d, got points of dimension {dim}"
    with pytest.raises(InputError, match=message):
        part.membership(X)
    with pytest.raises(InputError, match=message):
        part.nearest_region_index(X)
    for scheme in (WeightScheme("normalized-indicator", part),
                   WeightScheme("smooth-bump", part, h=1.0)):
        with pytest.raises(InputError, match=message):
            scheme.weights_many(X)
    data = WeightedSample.uniform(X, np.zeros(60))
    for b in (1, 2):
        with pytest.raises(InputError, match=f"region {b} is 2-d"):
            restrict(data, part.region(b))


def test_partition_rejects_balls_of_different_dimensions():
    with pytest.raises(InputError, match=r"one dimension, got \[2, 3\]"):
        manual_partition([[0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0])
    with pytest.raises(InputError, match=r"one dimension, got \[2, 3\]"):
        RegionPartition.from_dict(
            {"regions": [{"id": 1, "center": [0.0, 0.0], "radius": 1.0},
                         {"id": 2, "center": [0.0, 0.0, 0.0], "radius": 1.0}]})


def test_weights_unit_vector_when_single_region():
    X = np.array([[0.0, 0.0], [2.0, 0.0]])
    part = manual_partition([[0.0, 0.0], [2.0, 0.0]], [0.5, 0.5])
    scheme = WeightScheme("normalized-indicator", part)
    W, _ = scheme.weights_many([[0.1, 0.0]])
    np.testing.assert_array_equal(W[0], [1.0, 0.0])


def test_weights_split_on_overlap():
    X = np.array([[0.0], [1.0]])
    part = manual_partition([[0.0], [1.0]], [1.0, 1.0])
    ind = WeightScheme("normalized-indicator", part)
    W, _ = ind.weights_many([[0.5]])
    np.testing.assert_array_equal(W[0], [0.5, 0.5])
    bump = WeightScheme("smooth-bump", part, h=0.7)
    W, _ = bump.weights_many([[0.5]])
    np.testing.assert_allclose(W[0], [0.5, 0.5], atol=1e-15)
    # off-center bump weights favor the nearer region but stay normalized
    w = bump.weights_many([[0.2]])[0][0]
    assert w[0] > w[1] and w.sum() == pytest.approx(1.0, abs=1e-15)


def test_weights_partition_of_unity_properties():
    data = two_blobs(n_per=40, gap=3.0, seed=5)
    part = regionalize(data.X, b_target=3, tau=0.4, min_region_size=5, seed=2)
    rng = np.random.default_rng(6)
    lo, hi = data.bounding_box()
    probes = rng.uniform(lo, hi, size=(10_000, 2))
    M = part.membership(probes)
    covered = M.any(axis=1)
    for scheme in (WeightScheme("normalized-indicator", part),
                   WeightScheme("smooth-bump", part, h=1.0)):
        W, cov = scheme.weights_many(probes)
        np.testing.assert_array_equal(cov, covered)
        # (W1) on the covered set
        np.testing.assert_allclose(W[covered].sum(axis=1), 1.0, atol=1e-12)
        # (W2) exact zeros off-region
        assert np.all(W[covered][~M[covered]] == 0.0)
        assert np.all((W >= 0.0) & (W <= 1.0))


def test_uncovered_point_fallback():
    X = np.array([[0.0, 0.0], [1.0, 0.0]])
    part = manual_partition([[0.0, 0.0], [1.0, 0.0]], [0.2, 0.2])
    scheme = WeightScheme("normalized-indicator", part)
    far = [10.0, 0.0]
    W, _ = scheme.weights_many([far])
    np.testing.assert_array_equal(W[0], [0.0, 1.0])
    W, covered = scheme.weights_many(np.array([far, [0.1, 0.0]]))
    assert not covered[0] and covered[1]


def test_weight_sup_norm_exclusive_point_gives_exact_one():
    data = two_blobs(n_per=20, gap=10.0, seed=7)
    part = regionalize(data.X, b_target=2, tau=0.0, min_region_size=5, seed=0)
    scheme = WeightScheme("normalized-indicator", part)
    # each region holds a point of its own, where its weight is exactly 1
    W, _ = scheme.weights_many(data.X)
    np.testing.assert_array_equal(W.max(axis=0), [1.0, 1.0])
    assert weight_sup_norm(scheme, 1) == 1.0
    assert weight_sup_norm(scheme, 2) == 1.0


def test_weight_sup_norm_fully_shared_region():
    # two identical balls: every point belongs to both, so w_b is 1/2
    # everywhere; the certified bound is still 1
    X = np.random.default_rng(8).normal(size=(12, 2)) * 0.1
    part = manual_partition([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])
    scheme = WeightScheme("normalized-indicator", part)
    W, _ = scheme.weights_many(X)
    np.testing.assert_array_equal(W, np.full((12, 2), 0.5))
    assert weight_sup_norm(scheme, 1) == 1.0
    assert weight_sup_norm(scheme, 2) == 1.0


def test_weight_sup_norm_smooth_bump_bounded():
    X = np.vstack([np.random.default_rng(9).normal(0, 0.5, size=(20, 2)),
                   np.random.default_rng(10).normal(1.0, 0.5, size=(20, 2))])
    part = regionalize(X, b_target=2, tau=0.5, min_region_size=5, seed=3)
    scheme = WeightScheme("smooth-bump", part, h=0.8)
    probes = np.random.default_rng(11).uniform(-1, 2, size=(200, 2))
    W, _ = scheme.weights_many(probes)
    for b in range(1, part.B + 1):
        assert 0.0 < W[:, b - 1].max() <= weight_sup_norm(scheme, b) == 1.0


def test_weight_sup_norm_unknown_region_rejected():
    part = manual_partition([[0.0, 0.0]], [1.0])
    scheme = WeightScheme("normalized-indicator", part)
    for region_id in (0, -1, 2):  # 0 and -1 must not index from the end
        with pytest.raises(InputError):
            weight_sup_norm(scheme, region_id)


def test_restrict_examples():
    X = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 0.0], [5.5, 0.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    data = WeightedSample.uniform(X, y)
    part = manual_partition([[0.25, 0.0], [5.25, 0.0]], [1.0, 1.0])

    left = restrict(data, part.region(1))
    assert left.n == 2
    np.testing.assert_array_equal(left.weights, [0.5, 0.5])
    np.testing.assert_array_equal(left.y, [1.0, 2.0])

    # whole sample inside one big ball
    big = manual_partition([[2.5, 0.0]], [10.0])
    full = restrict(data, big.region(1))
    assert full.n == 4
    np.testing.assert_array_equal(full.weights, np.full(4, 0.25))

    # empty ball -> null-measure marker
    empty = manual_partition([[100.0, 100.0], [2.5, 0.0]], [1.0, 10.0])
    assert restrict(data, empty.region(1)) is None


def test_restrict_conditions_a_non_uniform_measure():
    X = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 0.0], [5.5, 0.0]])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    measure = WeightedSample(X, y, [0.0625, 0.1875, 0.25, 0.5])
    part = manual_partition([[0.25, 0.0], [5.25, 0.0]], [1.0, 1.0])

    left = restrict(measure, part.region(1))  # mass 1/4
    np.testing.assert_array_equal(left.X, X[:2])
    np.testing.assert_array_equal(left.y, [1.0, 2.0])
    np.testing.assert_allclose(left.weights, [0.25, 0.75], rtol=1e-15)
    right = restrict(measure, part.region(2))  # mass 3/4
    np.testing.assert_allclose(right.weights, [1.0 / 3.0, 2.0 / 3.0],
                               rtol=1e-15)
    # atoms inside but no mass: the null-measure marker, as for no atoms
    massless = WeightedSample(X, y, [0.0, 0.25, 0.25, 0.5])
    ball = manual_partition([[0.0, 0.0]], [0.1]).region(1)
    assert restrict(massless, ball) is None
    # a zero-weight atom beside a weighted one stays, with weight 0
    both = restrict(massless, part.region(1))
    np.testing.assert_array_equal(both.weights, [0.0, 1.0])


def test_partition_scheme_serialization_round_trip():
    data = two_blobs(n_per=15, seed=12)
    part = regionalize(data.X, b_target=2, tau=0.3, min_region_size=3, seed=4)
    scheme = WeightScheme("smooth-bump", part, h=1.2)
    d = json.loads(json.dumps({"partition": part.to_dict(),
                               "scheme": scheme.to_dict()}))
    back = WeightScheme.from_dict(d["scheme"],
                                  RegionPartition.from_dict(d["partition"]))
    assert back.kind == "smooth-bump" and back.h == 1.2
    assert back.partition.B == part.B
    for r1, r2 in zip(part.regions, back.partition.regions):
        np.testing.assert_array_equal(r1.center, r2.center)
        assert r1.radius == r2.radius and r1.id == r2.id
    probes = np.random.default_rng(13).uniform(-2, 10, size=(100, 2))
    W1, c1 = scheme.weights_many(probes)
    W2, c2 = back.weights_many(probes)
    np.testing.assert_array_equal(W1, W2)
    np.testing.assert_array_equal(c1, c2)


@pytest.mark.parametrize("center, radius",
                         [([np.nan, 0.0], 1.0), ([0.0, np.inf], 1.0),
                          ([0.0, 0.0], np.nan), ([0.0, 0.0], np.inf)],
                         ids=["nan-center", "inf-center", "nan-radius",
                              "inf-radius"])
def test_region_predicate_rejects_non_finite_values(center, radius):
    from localsvm import RegionPredicate
    with pytest.raises(InputError, match="non-finite"):
        RegionPredicate(center=np.array(center), radius=radius, id=1)


def test_partition_dict_holds_only_the_balls():
    part = manual_partition([[0.0, 0.0], [1.0, 0.0]], [1.0, 0.5], tau=0.2)
    d = part.to_dict()
    assert all(set(r) == {"id", "center", "radius"} for r in d["regions"])
    for r in d["regions"]:
        r["exclusive"] = True  # a key older model files carry
    assert RegionPartition.from_dict(d).to_dict() == part.to_dict()


def test_region_ids_must_be_contiguous():
    from localsvm import RegionPredicate
    bad = [RegionPredicate(center=np.zeros(1), radius=1.0, id=2)]
    with pytest.raises(InputError):
        RegionPartition(bad, tau=0.0)


def _broadcast_sq_dists(X, centers):
    # the broadcast form of every squared distance before the column sums
    return ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)


def _broadcast_weights_many(scheme, X):
    # WeightScheme.weights_many as it was with the broadcast distances and
    # numpy's reductions over the short region axis
    regions = scheme.partition.regions
    dist = [np.sqrt(((X - r.center) ** 2).sum(axis=1)) for r in regions]
    M = np.column_stack([d <= r.radius for d, r in zip(dist, regions)])
    covered = M.any(axis=1)
    gaps = np.column_stack([np.maximum(0.0, d - r.radius) for d, r in zip(dist, regions)])
    M[np.where(~covered)[0], gaps[~covered].argmin(axis=1)] = True
    if scheme.kind == "normalized-indicator":
        raw = M.astype(float)
    else:
        centers = np.stack([r.center for r in regions])
        raw = np.exp(-_broadcast_sq_dists(X, centers) / scheme.h**2)
        raw[~M] = 0.0
        dead = M.any(axis=1) & (raw.sum(axis=1) == 0.0)
        raw[dead] = M[dead].astype(float)
    W = raw / raw.sum(axis=1, keepdims=True)
    W[~M] = 0.0
    return W, covered


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 12])
def test_ball_geometry_bitwise_equal_to_broadcast_forms(dim, monkeypatch):
    from localsvm import regions

    rng = np.random.default_rng(70 + dim)
    X = rng.normal(size=(300, dim))
    queries = np.vstack([X, 3.0 * rng.normal(size=(200, dim))])  # some uncovered
    for c in (X[0], np.zeros(dim), 0.5 * rng.normal(size=dim)):
        want = np.sqrt(((queries - c) ** 2).sum(axis=1))
        assert np.array_equal(regions._dist_to(queries, c), want)
    for tau in (0.0, 0.25):  # at tau 0 each ball's farthest point is on it
        part = regionalize(X, b_target=4, tau=tau, min_region_size=5, seed=dim)
        with monkeypatch.context() as m:
            m.setattr(regions, "_sq_dists", _broadcast_sq_dists)
            ref = regionalize(X, b_target=4, tau=tau, min_region_size=5, seed=dim)
        assert part.B == ref.B
        for r, q in zip(part.regions, ref.regions):
            assert r.center.tobytes() == q.center.tobytes() and r.radius == q.radius
        for scheme in (WeightScheme("normalized-indicator", part),
                       WeightScheme("smooth-bump", part, h=0.5)):
            W, covered = scheme.weights_many(queries)
            W_ref, covered_ref = _broadcast_weights_many(scheme, queries)
            assert not covered.all() and W.tobytes() == W_ref.tobytes()
            np.testing.assert_array_equal(covered, covered_ref)
