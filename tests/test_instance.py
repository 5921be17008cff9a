import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

import psdsparse as ps

from psdsparse import instance
from psdsparse.instance import _certify

from conftest import canonical_raw, raw_payload, rng_for


# --- validate ---------------------------------------------------------------------


def test_validate_single_member_is_forced_identity():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    assert (inst.d, inst.m, inst.norm_bound) == (1, 1, 1.0)


def test_validate_canonical(canonical):
    assert (canonical.d, canonical.m) == (2, 2)
    assert canonical.norm_bound == 2.0
    assert np.array_equal(canonical.weights, [0.5, 0.5])


def test_validate_rejects_nonisotropic():
    raw = canonical_raw()
    raw["items"][1]["A"] = [[0.0, 0.0], [0.0, 1.0]]  # sum is diag(1, 1/2)
    with pytest.raises(ps.NotIsotropic) as exc:
        ps.validate(raw)
    assert exc.value.residual == pytest.approx(0.5, abs=1e-12)


def test_validate_rejects_malformed_payloads():
    with pytest.raises(ps.FormatError):
        ps.validate([1, 2, 3])
    with pytest.raises(ps.FormatError):
        ps.validate({"items": []})
    with pytest.raises(ps.FormatError):
        ps.validate({"d": 2, "items": []})
    with pytest.raises(ps.FormatError):
        ps.validate({"d": 2, "items": [{"lambda": 1.0}]})
    with pytest.raises(ps.DimensionMismatch):
        ps.validate({"d": 0, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    raw = canonical_raw()
    raw["items"][0]["A"] = [[2.0, 0.0]]
    with pytest.raises(ps.DimensionMismatch):
        ps.validate(raw)


@pytest.mark.parametrize("d", [True, 2.7, "2", 2.0, None])
def test_validate_rejects_non_integer_dimension(d):
    raw = canonical_raw()
    raw["d"] = d
    with pytest.raises(ps.FormatError):
        ps.validate(raw)


@pytest.mark.parametrize(
    "key, value",
    [
        ("M", "abc"),
        ("M", [1]),
        ("M", math.nan),
        ("M", math.inf),
        ("M", True),
        ("lambda", "0.5"),
        ("lambda", True),
        ("lambda", None),
        ("A", [["2.0", "0.0"], ["0.0", "0.0"]]),
        ("A", [[True, False], [False, False]]),
        # numpy would read false as 0 in these two, leaving the family valid
        ("A", [[2.0, False], [False, 0.0]]),
        ("A", [[2, False], [False, 0]]),
    ],
)
def test_validate_rejects_non_numeric_fields(key, value):
    raw = canonical_raw()
    if key == "M":
        raw["M"] = value
    else:
        raw["items"][0][key] = value
    with pytest.raises(ps.FormatError):
        ps.validate(raw)


@pytest.mark.parametrize("d", [2**12, 2**32])
def test_validate_checks_shapes_before_allocating(d):
    raw = {"d": d, "items": [{"lambda": 1.0, "A": [[1.0]]}]}
    tracemalloc.start()
    try:
        with pytest.raises(ps.DimensionMismatch, match=re.escape(f"(1, 1) != ({d}, {d})")):
            ps.validate(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_validate_allows_null_norm_bound():
    raw = canonical_raw()
    raw["M"] = None
    assert ps.validate(raw).norm_bound == 2.0


def test_validate_rejects_nonfinite_entries():
    raw = canonical_raw()
    raw["items"][0]["A"] = [[math.inf, 0.0], [0.0, 0.0]]
    with pytest.raises(ps.NonFinite):
        ps.validate(raw)


def test_validate_asymmetry_tolerance_boundary():
    raw = canonical_raw()
    raw["items"][0]["A"] = [[2.0, 1e-10], [0.0, 0.0]]  # below 1e-9: symmetrized
    inst = ps.validate(raw)
    a = inst.mats[0]
    assert a[0, 1] == a[1, 0] == pytest.approx(5e-11)
    raw["items"][0]["A"] = [[2.0, 1e-6], [0.0, 0.0]]
    with pytest.raises(ps.NotSymmetric) as exc:
        ps.validate(raw)
    assert exc.value.index == 0


def test_validate_rejects_bad_weights():
    raw = canonical_raw()
    raw["items"][0]["lambda"] = -0.5
    with pytest.raises(ps.WeightsNotSimplex):
        ps.validate(raw)
    raw = canonical_raw()
    raw["items"][0]["lambda"] = 0.5 + 1e-8
    with pytest.raises(ps.WeightsNotSimplex):
        ps.validate(raw)


def test_validate_rejects_indefinite_member():
    # isotropic but A_1 has eigenvalue -0.2
    raw = raw_payload(
        [0.5, 0.5],
        [np.diag([2.0, -0.2]), np.diag([0.0, 2.2])],
    )
    with pytest.raises(ps.NotPSD) as exc:
        ps.validate(raw)
    assert exc.value.index == 0
    assert exc.value.min_eigenvalue == pytest.approx(-0.2, abs=1e-12)


def test_validate_advisory_norm_bound():
    raw = canonical_raw()
    raw["M"] = 2.0
    assert ps.validate(raw).norm_bound == 2.0
    raw["M"] = 5.0  # larger than recomputed: advisory only, still recomputed
    assert ps.validate(raw).norm_bound == 2.0
    raw["M"] = 1.5
    with pytest.raises(ps.NormBoundTooSmall):
        ps.validate(raw)


# --- the family array -------------------------------------------------------------


def test_family_arrays_are_read_only_and_shared(canonical):
    fams = (
        canonical.mats,
        ps.center(canonical).xs,
        ps.random_centered_family(rng_for(3)).xs,
    )
    for xs in fams:
        with pytest.raises(ValueError):
            xs[0, 0, 0] = 1.0
    assert np.shares_memory(canonical.mats, canonical.mats)


def test_certify_rejects_one_ulp_of_asymmetry():
    inst = ps.gen_random_psd(3, 6, 2, 1e4, 5)
    mats = inst.mats.copy()
    mats[4, 0, 2] = np.nextafter(mats[4, 0, 2], math.inf)
    with pytest.raises(ps.NotSymmetric) as exc:
        _certify(inst.weights, mats)
    assert exc.value.index == 4


# --- round-trip and file IO -------------------------------------------------------


def test_payload_round_trip_is_exact(canonical):
    again = ps.validate(ps.to_payload(canonical))
    assert np.array_equal(again.mats, canonical.mats)
    assert np.array_equal(again.weights, canonical.weights)
    assert again.norm_bound == canonical.norm_bound


def test_save_load_round_trip(tmp_path, canonical):
    path = tmp_path / "inst.json"
    ps.save_instance(canonical, path)
    again = ps.load_instance(path)
    assert np.array_equal(again.mats, canonical.mats)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ps.FormatError):
        ps.load_instance(path)


# --- center -----------------------------------------------------------------------


def test_center_canonical(canonical):
    fam = ps.center(canonical)
    assert np.array_equal(fam.xs[0], np.diag([1.0, -1.0]))
    assert np.array_equal(fam.xs[1], np.diag([-1.0, 1.0]))
    assert fam.m1 == fam.m2 == canonical.norm_bound
    assert fam.d == 2 and fam.m == 2


def test_center_single_member_is_zero():
    inst = ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.0]]}]})
    assert np.array_equal(ps.center(inst).xs[0], [[0.0]])


def test_center_square_sum_identity():
    # sum_i w_i X_i^2 == sum_i w_i A_i^2 - Id for any valid instance
    for inst in (ps.gen_bases(4, 2, 3), ps.gen_random_psd(5, 10, 3, 1e4, 1)):
        fam = ps.center(inst)
        xs, mats, w = fam.xs, inst.mats, inst.weights
        lhs = np.einsum("i,ijk->jk", w, xs @ xs)
        rhs = np.einsum("i,ijk->jk", w, mats @ mats) - np.eye(inst.d)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


@pytest.mark.parametrize(
    "mats, norm_bound, which",
    [
        ([[[2.0]], [[2.0]]], 2.0, "mean-zero"),
        ([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])], 0.5, "norm"),   # the canonical family
        ([[[-1.0]], [[3.0]]], 2.0, "square-bound"),   # sum_i w_i X_i^2 = 4 > M
    ],
    ids=["mean-zero", "norm", "square-bound"],
)
def test_center_certificate_failures_are_never_cached(mats, norm_bound, which):
    # built directly, so _certify never sees these families
    mats = np.array(mats, dtype=float)
    inst = ps.Instance(d=mats.shape[1], m=2, weights=np.full(2, 0.5), mats=mats,
                       norm_bound=norm_bound)
    for _ in range(2):
        with pytest.raises(ps.CenteringCertificateFailed) as info:
            ps.center(inst)
        assert info.value.which == which


def test_center_certifies_once_per_instance(monkeypatch):
    inst = ps.gen_bases(4, 2, seed=0)
    batches = []
    exact = instance._eigvalsh

    def counting(a):
        if a.ndim == 3:
            batches.append(a.shape)
        return exact(a)

    monkeypatch.setattr(instance, "_eigvalsh", counting)
    xs = [ps.center(inst).xs for _ in range(3)]
    ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=8)
    ps.sample_run(inst, 16, 0)
    ps.sample_run(inst, 16, 1)
    assert batches == [(inst.m, inst.d, inst.d)]
    for a in xs:
        assert a.tobytes() == xs[0].tobytes()
        assert not a.flags.writeable
    for a, b in itertools.combinations(xs, 2):
        assert not np.shares_memory(a, b)


# --- generators -------------------------------------------------------------------


def test_gen_bases_single_basis_resolves_identity():
    inst = ps.gen_bases(5, 1, 12)
    resid = np.einsum("i,ijk->jk", inst.weights, inst.mats) - np.eye(5)
    assert np.max(np.abs(np.linalg.eigvalsh(resid))) <= 1e-12


def test_gen_bases_shape_and_norms():
    inst = ps.gen_bases(4, 3, 7)
    assert (inst.d, inst.m) == (4, 12)
    for a in inst.mats:
        assert ps.op_norm(ps.SymMatrix(a)) == pytest.approx(4.0, abs=1e-10)


def test_gen_bases_round_trips_through_validator():
    inst = ps.gen_bases(8, 2, 0)
    again = ps.validate(ps.to_payload(inst))
    assert np.array_equal(again.mats, inst.mats)


def test_gen_bases_deterministic_in_seed():
    assert np.array_equal(ps.gen_bases(6, 2, 42).mats, ps.gen_bases(6, 2, 42).mats)
    assert not np.array_equal(ps.gen_bases(6, 2, 42).mats, ps.gen_bases(6, 2, 43).mats)


def test_gen_bases_rejects_bad_arguments():
    with pytest.raises(ps.DomainError):
        ps.gen_bases(0, 1, 0)
    with pytest.raises(ps.DomainError):
        ps.gen_bases(2, 0, 0)


def test_gen_random_psd_scalar_case():
    inst = ps.gen_random_psd(1, 2, 1, 1e6, 3)
    a = inst.mats.ravel()
    assert np.all(a >= -1e-12)
    assert 0.5 * (a[0] + a[1]) == pytest.approx(1.0, abs=1e-10)


def test_gen_random_psd_full_rank_single_member_is_identity():
    for seed in (0, 9):
        inst = ps.gen_random_psd(4, 1, 4, 1e6, seed)
        assert np.allclose(inst.mats[0], np.eye(4), atol=1e-9)


def test_gen_random_psd_rejects_singular_setup():
    with pytest.raises(ps.DomainError):
        ps.gen_random_psd(4, 1, 3, 1e6, 0)  # m*rank < d


def test_gen_random_psd_gives_up_on_impossible_condition_cap():
    with pytest.raises(ps.IsotropicTransformFailed):
        ps.gen_random_psd(4, 4, 1, 1.01, 0)


def test_gen_random_psd_deterministic_in_seed():
    a = ps.gen_random_psd(3, 6, 2, 1e4, 5).mats
    b = ps.gen_random_psd(3, 6, 2, 1e4, 5).mats
    assert np.array_equal(a, b)


def test_gen_graph_edges_triangle():
    inst = ps.gen_graph_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert (inst.d, inst.m) == (2, 3)
    assert np.allclose(inst.weights, 1.0 / 3.0, atol=1e-12)
    for a in inst.mats:
        assert ps.op_norm(ps.SymMatrix(a)) == pytest.approx(2.0, rel=1e-10)


def test_gen_graph_edges_single_edge():
    inst = ps.gen_graph_edges([(0, 1, 2.5)])
    assert (inst.d, inst.m) == (1, 1)
    assert np.allclose(inst.mats[0], [[1.0]], atol=1e-12)
    assert inst.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_gen_graph_edges_rejects_bad_graphs():
    with pytest.raises(ps.Disconnected):
        ps.gen_graph_edges([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(ps.DomainError):
        ps.gen_graph_edges([(1, 1, 1.0)])
    with pytest.raises(ps.DomainError):
        ps.gen_graph_edges([(0, 1, -2.0)])
    with pytest.raises(ps.DomainError):
        ps.gen_graph_edges([(-1, 1, 1.0)])
    with pytest.raises(ps.FormatError):
        ps.gen_graph_edges([])


@pytest.mark.parametrize(
    "edges, what",
    [
        ([(0, 1, 1e308), (1, 2, 1e308), (0, 2, 1e308)], "graph Laplacian overflows"),
        ([(0, 1, 1e308)], "graph Laplacian spectrum overflows"),
    ],
    ids=["degree", "spectrum"],
)
def test_gen_graph_edges_rejects_an_overflowing_laplacian(edges, what):
    # every weight is finite; a weighted degree or an eigenvalue is not
    with pytest.raises(ps.NonFinite, match=what):
        ps.gen_graph_edges(edges)


def test_random_connected_edges_properties():
    edges = ps.random_connected_edges(9, 14, seed=4)
    assert len(edges) == 14
    assert len({(u, v) for u, v, _ in edges}) == 14  # distinct
    assert all(0 <= u < v < 9 and 0.5 <= w < 2.0 for u, v, w in edges)
    inst = ps.gen_graph_edges(edges)  # connectivity by construction
    assert inst.d == 8
    assert edges == ps.random_connected_edges(9, 14, seed=4)


def test_random_connected_edges_rejects_bad_counts():
    with pytest.raises(ps.DomainError):
        ps.random_connected_edges(1, 0, seed=0)
    with pytest.raises(ps.DomainError):
        ps.random_connected_edges(5, 3, seed=0)  # below spanning tree
    with pytest.raises(ps.DomainError):
        ps.random_connected_edges(5, 11, seed=0)  # above complete graph


def test_parse_edge_lines():
    lines = ["# comment", "", "0 1 1.5", "  1 2 2.0  ", "# trailing", "0 2 0.25"]
    assert ps.parse_edge_lines(lines) == [(0, 1, 1.5), (1, 2, 2.0), (0, 2, 0.25)]
    with pytest.raises(ps.FormatError):
        ps.parse_edge_lines(["0 1"])
    with pytest.raises(ps.FormatError):
        ps.parse_edge_lines(["0 1 x"])
    with pytest.raises(ps.FormatError):
        ps.parse_edge_lines(["# only comments"])


def test_load_edge_list(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 1.0\n1 2 1.0\n0 2 1.0\n")
    assert ps.load_edge_list(path) == [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]


# --- generator fuzz sweep ---------------------------------------------------------

_BASES_CASES = [("bases", d, nb, 1000 + 7 * d + nb)
                for d in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
                for nb in (1, 2, 3)]
_PSD_CASES = [("psd", d, variant, 2000 + 13 * d + variant)
              for d in (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 28, 32)
              for variant in (0, 1, 2)]
_GRAPH_CASES = [("graph", n, extra, 3000 + 11 * n + extra)
                for n in range(2, 18)
                for extra in (0, 2)
                if n - 1 + extra <= n * (n - 1) // 2]


@pytest.mark.parametrize("kind,p1,p2,seed", _BASES_CASES + _PSD_CASES + _GRAPH_CASES)
def test_generator_fuzz_sweep(kind, p1, p2, seed):
    if kind == "bases":
        inst = ps.gen_bases(p1, p2, seed)
        assert inst.m == p1 * p2
    elif kind == "psd":
        d = p1
        m, rank = [(2 * d, max(1, d // 2)), (max(2, d), d), (4 * d, 1)][p2]
        inst = ps.gen_random_psd(d, m, rank, 1e4, seed)
        assert (inst.d, inst.m) == (d, m)
    else:
        n = p1
        edges = ps.random_connected_edges(n, n - 1 + p2, seed)
        inst = ps.gen_graph_edges(edges)
        assert (inst.d, inst.m) == (n - 1, len(edges))

    assert abs(float(np.sum(inst.weights)) - 1.0) <= 1e-10
    assert inst.norm_bound >= 1.0 - 1e-10
    fam = ps.center(inst)  # certifies mean-zero, norms, square bound
    assert fam.m == inst.m
    if seed % 5 == 0:
        again = ps.validate(ps.to_payload(inst))
        assert np.array_equal(again.mats, inst.mats)


def test_fuzz_sweep_has_at_least_100_cases():
    assert len(_BASES_CASES + _PSD_CASES + _GRAPH_CASES) >= 100
