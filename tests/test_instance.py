import itertools
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import psdsparse as ps

from psdsparse import instance

from conftest import canonical_raw, dense_mats, raw_payload, rng_for


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
    with pytest.raises(ps.FormatError, match="item 0 must carry 'lambda'"):
        ps.validate({"d": 1, "items": [{"A": [[1.0]]}]})
    with pytest.raises(ps.FormatError, match="item 0: 'lambda' does not fit a float"):
        ps.validate({"d": 1, "items": [{"lambda": 10**400, "A": [[1.0]]}]})
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
    # finite, but A + A^T is not: NonFinite, with no numpy warning first (warnings are errors)
    with pytest.raises(ps.NonFinite, match="item 0: matrix entries overflow when symmetrized"):
        ps.validate({"d": 1, "items": [{"lambda": 1.0, "A": [[1.7e308]]}]})


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
    mats = dense_mats(inst).copy()
    mats[4, 0, 2] = np.nextafter(mats[4, 0, 2], math.inf)
    with pytest.raises(ps.NotSymmetric) as exc:
        ps.Instance(inst.weights, mats)
    assert exc.value.index == 4


@pytest.mark.parametrize(
    "weights, mats",
    [
        (np.full((1, 2), 0.5), np.array([np.diag([2.0, 0.0]), np.diag([0.0, 2.0])])),
        (np.full(2, 0.5), np.array([[2.0, 0.0], [0.0, 2.0]])),
    ],
    ids=["2-D weights", "2-D mats"],
)
def test_instance_rejects_wrong_array_ranks(weights, mats):
    with pytest.raises(ps.FormatError, match=r"need shapes \(m,\) and \(m, d, d\)"):
        ps.Instance(weights, mats)


# the factor copy of the family [1e-300, 1.0], [diag(1e300, 0), diag(0, 1)] below
_TINY_WEIGHT_V = np.array([[[1e150], [0.0]], [[0.0], [1.0]]])


@pytest.mark.parametrize(
    "weights, mats, error",
    [
        (np.ones(1), np.zeros((1, 2, 3)), ps.DimensionMismatch),
        (np.array([np.nan]), np.ones((1, 1, 1)), ps.NonFinite),
        (np.ones(1), np.full((1, 1, 1), np.nan), ps.NonFinite),
        # finite entries whose mean overflows: a NaN residual fails isotropy, without a warning
        (np.ones(1), np.array([[[1.7e308, 0.0], [0.0, 0.0]]]), ps.NotIsotropic),
        # valid, with a tiny weight on a huge member: X_1^2 overflows, sqrt(w_1) X_1 squared does not
        (np.array([1e-300, 1.0]), np.array([np.diag([1e300, 0.0]), np.diag([0.0, 1.0])]), None),
    ],
    ids=["non-square", "nan-weight", "nan-entry", "mean-overflow", "square-overflow"],
)
def test_dense_certificates_reject_a_bad_family(weights, mats, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if error is None:   # the family is valid: it passes, with its factor copy's M
            factor_copy = ps.Instance(weights, factors=_TINY_WEIGHT_V)
            assert ps.Instance(weights, mats).norm_bound == factor_copy.norm_bound
            return
        with pytest.raises(error) as info:
            ps.Instance(weights, mats)
    assert type(info.value) is error


def test_instance_rejects_2d_weights_for_factors_with_the_factor_shape():
    with pytest.raises(ps.FormatError, match=r"need shapes \(m,\) and \(m, d, r\), got \(1, 2\)"):
        ps.Instance(np.full((1, 2), 0.5), factors=np.ones((2, 2, 1)))


@pytest.mark.parametrize("operands, noun", [("mats", "matrices"), ("factors", "factors")])
def test_instance_names_both_counts_when_they_differ(operands, noun):
    with pytest.raises(ps.FormatError, match=f"got 2 weights and 3 {noun}$"):
        ps.Instance(np.full(2, 0.5), **{operands: np.zeros((3, 2, 2))})
    with pytest.raises(ps.FormatError, match=f"got 0 weights and 1 {noun}$"):
        ps.Instance(np.zeros(0), **{operands: np.zeros((1, 2, 2))})
    with pytest.raises(ps.FormatError, match="at least one weighted matrix"):
        ps.Instance(np.zeros(0), **{operands: np.zeros((0, 2, 2))})


def test_instance_keeps_a_float_family_without_copying(canonical):
    mats = np.array(canonical.mats)
    inst = ps.Instance(canonical.weights, mats)
    assert inst.mats is mats and not mats.flags.writeable
    assert not np.shares_memory(inst.weights, canonical.weights)
    assert (inst.d, inst.m, inst.norm_bound) == (2, 2, 2.0)


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


# the canonical family in factored form: V V^T gives [[1, 1], [1, 1]] and [[1, -1], [-1, 1]]
def _factored_raw() -> dict:
    return {"d": 2, "items": [{"lambda": 0.5, "V": [[1.0], [1.0]]},
                              {"lambda": 0.5, "V": [[1.0], [-1.0]]}]}


def test_validate_reads_factors():
    inst = ps.validate(_factored_raw())
    assert np.array_equal(inst.factors, [[[1.0], [1.0]], [[1.0], [-1.0]]])
    assert inst.mats is None
    assert np.array_equal(dense_mats(inst), [[[1.0, 1.0], [1.0, 1.0]], [[1.0, -1.0], [-1.0, 1.0]]])
    assert (inst.d, inst.m, inst.norm_bound) == (2, 2, 2.0)
    assert not inst.factors.flags.writeable


_GENERATED = {
    "bases": lambda: ps.gen_bases(5, 2, 3),
    "random-psd": lambda: ps.gen_random_psd(6, 10, 3, 1e4, 2),
    "graph": lambda: ps.gen_graph_edges(ps.random_connected_edges(7, 12, 1)),
}


@pytest.mark.parametrize("kind", sorted(_GENERATED))
def test_generated_families_save_and_load_as_factors(tmp_path, kind):
    inst = _GENERATED[kind]()
    path = tmp_path / "inst.json"
    ps.save_instance(inst, path)
    items = json.loads(path.read_text())["items"]
    assert all(set(item) == {"lambda", "V"} for item in items)
    again = ps.load_instance(path)
    assert again.factors.tobytes() == inst.factors.tobytes()
    assert again.mats is None
    assert again.weights.tobytes() == inst.weights.tobytes()
    assert again.norm_bound == inst.norm_bound


@pytest.mark.parametrize("kind", sorted(_GENERATED))
def test_centered_rows_have_the_bits_of_the_dense_family(kind, monkeypatch):
    # sym(V V^T) - Id as the dense family was formed, in default blocks or one row per block
    inst = _GENERATED[kind]()
    want = (dense_mats(inst) - np.eye(inst.d)).tobytes()
    assert ps.center(inst).xs.tobytes() == want
    monkeypatch.setattr(instance, "_CHUNK_ENTRIES", 1)
    assert ps.center(inst).xs.tobytes() == want


def test_a_dense_family_round_trips_as_dense():
    inst = ps.gen_bases(4, 2, 0)
    dense = ps.Instance(inst.weights, dense_mats(inst))
    raw = ps.to_payload(dense)
    assert dense.factors is None
    assert all(set(item) == {"lambda", "A"} for item in raw["items"])
    again = ps.validate(raw)
    assert again.factors is None and again.mats.tobytes() == dense.mats.tobytes()


def test_gen_bases_64_saves_under_a_megabyte(tmp_path):
    path = tmp_path / "bases64.json"
    ps.save_instance(ps.gen_bases(64, 4, 0), path)
    assert path.stat().st_size < 1 << 20


@pytest.mark.parametrize(
    "change, error, what",
    [
        (lambda raw: raw["items"][0].update(V=[["1.0"], ["1.0"]]), ps.FormatError,
         "item 0: 'V' must be a matrix of numbers"),
        (lambda raw: raw["items"][0].update(V=[[True], [True]]), ps.FormatError,
         "item 0: 'V' must be a matrix of numbers"),
        (lambda raw: raw["items"][0].update(V=[[1.0, False], [1.0, False]]), ps.FormatError,
         "not booleans"),
        (lambda raw: raw["items"][0].update(V=[[math.nan], [1.0]]), ps.NonFinite, "item 0: "),
        (lambda raw: raw["items"][0].update(V=[[math.inf], [1.0]]), ps.NonFinite, "item 0: "),
        (lambda raw: raw["items"][0].update(V=[[1.0], [1.0], [0.0]]), ps.DimensionMismatch,
         "item 0: factor shape (3, 1) != (2, r >= 1)"),
        (lambda raw: raw["items"][0].update(V=[1.0, 1.0]), ps.DimensionMismatch,
         "item 0: factor shape (2,)"),
        (lambda raw: raw["items"][0].update(V=[[], []]), ps.DimensionMismatch,
         "item 0: factor shape (2, 0)"),
        (lambda raw: raw["items"][0].update(V=[[1.0], [1.0, 0.0]]), ps.FormatError,
         "item 0: 'V' must be a matrix of numbers"),
        (lambda raw: raw["items"][1].update(V=[[1.0, 0.0], [-1.0, 0.0]]), ps.DimensionMismatch,
         "item 1: factor shape (2, 2) != (2, 1)"),
        (lambda raw: raw["items"][0].update(A=[[1.0, 1.0], [1.0, 1.0]]), ps.FormatError,
         "item 0 must carry exactly one of 'A' and 'V', got 2"),
        (lambda raw: raw["items"][0].pop("V"), ps.FormatError,
         "item 0 must carry exactly one of 'A' and 'V', got 0"),
        (lambda raw: raw["items"][1].update(A=raw["items"][1].pop("V")), ps.FormatError,
         "item 1: 'A' in a file of 'V' items"),
    ],
    ids=["string", "boolean", "mixed-boolean", "nan", "inf", "row-count", "flat", "zero-rank",
         "ragged-rows", "ragged-rank", "both-keys", "neither-key", "mixed-kinds"],
)
def test_validate_rejects_malformed_factors(change, error, what):
    raw = _factored_raw()
    change(raw)
    with pytest.raises(error, match=re.escape(what)):
        ps.validate(raw)


def test_validate_checks_factor_shapes_before_allocating():
    raw = {"d": 2**32, "items": [{"lambda": 1.0, "V": [[1.0]]}]}
    tracemalloc.start()
    try:
        with pytest.raises(ps.DimensionMismatch, match=re.escape(f"(1, 1) != ({2**32}, r >= 1)")):
            ps.validate(raw)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_an_overflowing_factor_product_is_nonfinite():
    raw = {"d": 1, "items": [{"lambda": 1.0, "V": [[1e200]]}]}
    with pytest.raises(ps.NonFinite, match="V V\\^T overflows"):
        ps.validate(raw)
    with pytest.raises(ps.NonFinite, match="V V\\^T overflows"):
        ps.Instance(np.ones(1), factors=np.full((1, 1, 2), 1e200))
    with pytest.raises(ps.NonFinite, match="a factor entry is not finite"):
        ps.Instance(np.ones(1), factors=[[[math.nan]]])


def test_instance_takes_mats_or_factors_not_both():
    inst = ps.validate(_factored_raw())
    with pytest.raises(ps.FormatError):
        ps.Instance(inst.weights, dense_mats(inst), factors=inst.factors)
    with pytest.raises(ps.FormatError):
        ps.Instance(inst.weights, factors=inst.factors[0])
    with pytest.raises(ps.DimensionMismatch):
        ps.Instance(inst.weights, factors=np.empty((2, 2, 0)))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_a_factor_instance_holds_no_dense_family():
    inst = ps.gen_bases(16, 2, 0)
    assert inst.mats is None
    arrays = [v for v in vars(inst).values() if isinstance(v, np.ndarray)]
    assert arrays and all(a.size < inst.m * inst.d * inst.d for a in arrays)


def test_bases64_builds_loads_and_runs_in_little_memory(tmp_path):
    # the dense family alone is 256 * 64 * 64 doubles, 8 MB
    inst, peak = _peak_bytes(lambda: ps.gen_bases(64, 4, 0))
    assert peak < 8 << 20
    path = tmp_path / "bases64.json"
    ps.save_instance(inst, path)
    _, peak = _peak_bytes(lambda: ps.load_instance(path))
    assert peak < 8 << 20
    trace, peak = _peak_bytes(lambda: ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=4))
    assert peak < 8 << 20 and len(trace.indices) == 4


def test_a_large_graph_builds_in_little_memory():
    # d = 149, m = 2000: each dense (m, d, d) array would take 339 MiB
    edges = ps.random_connected_edges(150, 2000, 0)
    inst, peak = _peak_bytes(lambda: ps.gen_graph_edges(edges))
    assert (inst.d, inst.m) == (149, 2000)
    assert peak < 32 << 20


def _rescale_first(factor):
    def change(weights, factors):
        factors[0] *= factor
    return change


@pytest.mark.parametrize(
    "change, error",
    [
        (_rescale_first(1.1), ps.NotIsotropic),
        (_rescale_first(math.nan), ps.NonFinite),
        (_rescale_first(1e200), ps.NonFinite),
        (lambda weights, factors: weights.__setitem__(0, -weights[0]), ps.WeightsNotSimplex),
        (lambda weights, factors: weights.__setitem__(0, 2 * weights[0]), ps.WeightsNotSimplex),
    ],
    ids=["rescaled", "nan", "overflow", "negative-weight", "weight-sum"],
)
def test_factor_certificates_reject_a_corrupted_family(change, error):
    inst = ps.gen_random_psd(4, 10, 2, 1e4, 3)
    weights, factors = inst.weights.copy(), inst.factors.copy()
    ps.Instance(weights, factors=factors.copy())   # unchanged, it certifies
    change(weights, factors)
    with pytest.raises(error) as info, np.errstate(over="ignore"):
        ps.Instance(weights, factors=factors)
    assert type(info.value) is error


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("PSD_TOL", -1.0, ps.NotPSD),              # every eigenvalue of G_0 counts as negative
        ("ISOTROPY_TOL", -1.0, ps.NotIsotropic),
        ("NORM_FLOOR_TOL", -1.5, ps.InstanceError),  # M = 2 < 1 + 1.5
    ],
    ids=["psd", "isotropy", "norm-floor"],
)
def test_each_factor_contract_check_runs(monkeypatch, name, value, error):
    monkeypatch.setattr(instance, name, value)
    with pytest.raises(error) as info:
        ps.validate(_factored_raw())
    assert type(info.value) is error
    if error is ps.NotIsotropic:
        # the message gives the tolerance in force
        assert str(info.value).endswith(", tolerance -1)")


@pytest.mark.parametrize(
    "name, value, which",
    [
        ("CENTER_MEAN_TOL", -1.0, "mean-zero"),
        ("CENTER_NORM_TOL", -1.5, "norm"),   # max ||X_i|| = 1 > M - 1.5 = 0.5
        ("loewner_leq", lambda *args: False, "square-bound"),
    ],
    ids=["mean-zero", "norm", "square-bound"],
)
def test_each_centering_certificate_runs_on_factors(monkeypatch, name, value, which):
    monkeypatch.setattr(instance, name, value)
    with pytest.raises(ps.CenteringCertificateFailed) as info:
        ps.validate(_factored_raw())
    assert info.value.which == which


def test_factor_square_certificate_matches_the_dense_sum(monkeypatch):
    # sum_i w_i X_i^2 as the square-bound certificate forms it from the factors;
    # the last family has r > d
    seen = []
    exact = instance.loewner_leq
    monkeypatch.setattr(instance, "loewner_leq", lambda a, b, tol: seen.append(a) or exact(a, b, tol))
    for inst in (ps.gen_bases(5, 2, 1), ps.gen_random_psd(6, 9, 4, 1e4, 2), ps.gen_random_psd(3, 4, 5, 1e4, 0)):
        ps.Instance(inst.weights, factors=inst.factors)
        xs = ps.center(inst).xs
        want = np.einsum("i,ijk->jk", inst.weights, xs @ xs)
        assert np.allclose(seen[-1], want, rtol=0, atol=1e-12 * inst.norm_bound ** 2)


def test_centered_family_checks_its_shapes():
    xs = ps.center(ps.gen_bases(2, 1, 0)).xs   # m = d = 2
    w = np.full(2, 0.5)
    # one weight for two members used to broadcast into a false one-step failure
    for weights, members in ((w[:1], xs), (w[np.newaxis], xs), (w, xs[0]), (w, xs[:, :, :1]),
                             (w, np.empty((2, 0, 0)))):
        with pytest.raises(ps.DimensionMismatch):
            ps.CenteredFamily(weights, members, 2.0, 2.0)
    with pytest.raises(ps.EmptyFamily):
        ps.CenteredFamily(np.empty(0), np.empty((0, 2, 2)), 1.0, 1.0)


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
        xs, mats, w = fam.xs, dense_mats(inst), inst.weights
        lhs = np.einsum("i,ijk->jk", w, xs @ xs)
        rhs = np.einsum("i,ijk->jk", w, mats @ mats) - np.eye(inst.d)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_a_hand_built_family_cannot_skip_the_contract():
    with pytest.raises(ps.NotIsotropic):
        ps.Instance(np.full(2, 0.5), [[[2.0]], [[2.0]]])
    with pytest.raises(ps.NotPSD):
        ps.Instance(np.full(2, 0.5), [[[-1.0]], [[3.0]]])
    with pytest.raises(TypeError):
        ps.Instance(np.full(2, 0.5), [[[1.0]], [[1.0]]], norm_bound=2.0)


@pytest.mark.parametrize(
    "name, value, which",
    [
        ("CENTER_MEAN_TOL", -1.0, "mean-zero"),
        ("CENTER_NORM_TOL", -1.5, "norm"),   # max ||X_i|| = 1 > M - 1.5 = 0.5
        ("loewner_leq", lambda *args: False, "square-bound"),
    ],
    ids=["mean-zero", "norm", "square-bound"],
)
def test_each_centering_certificate_runs_at_construction(monkeypatch, name, value, which):
    monkeypatch.setattr(instance, name, value)
    with pytest.raises(ps.CenteringCertificateFailed) as info:
        ps.validate(canonical_raw())
    assert info.value.which == which


def test_center_certifies_once_per_instance(monkeypatch):
    batches = []
    exact = instance._eigvalsh

    def counting(a):
        if a.ndim == 3:
            batches.append(a.shape)
        return exact(a)

    monkeypatch.setattr(instance, "_eigvalsh", counting)
    inst = ps.gen_bases(4, 2, seed=0)
    assert batches == [(inst.m, 1, 1)]   # construction's one batched eigvalsh, of the Grams V_i^T V_i
    batches.clear()
    xs = [ps.center(inst).xs for _ in range(3)]
    ps.run(inst, ps.Schedule(inst.norm_bound, inst.d), k_max=8)
    ps.sample_run(inst, 16, 0)
    ps.sample_run(inst, 16, 1)
    assert batches == []
    for a in xs:
        assert a.tobytes() == xs[0].tobytes()
        assert not a.flags.writeable
    for a, b in itertools.combinations(xs, 2):
        assert not np.shares_memory(a, b)


# --- generators -------------------------------------------------------------------


def test_gen_bases_single_basis_resolves_identity():
    inst = ps.gen_bases(5, 1, 12)
    resid = np.einsum("i,ijk->jk", inst.weights, dense_mats(inst)) - np.eye(5)
    assert np.max(np.abs(np.linalg.eigvalsh(resid))) <= 1e-12


def test_gen_bases_shape_and_norms():
    inst = ps.gen_bases(4, 3, 7)
    assert (inst.d, inst.m) == (4, 12)
    for a in dense_mats(inst):
        assert np.max(np.abs(np.linalg.eigvalsh(a))) == pytest.approx(4.0, abs=1e-10)


def test_gen_bases_round_trips_through_validator():
    inst = ps.gen_bases(8, 2, 0)
    again = ps.validate(ps.to_payload(inst))
    assert np.array_equal(again.factors, inst.factors)


def test_gen_bases_deterministic_in_seed():
    assert np.array_equal(ps.gen_bases(6, 2, 42).factors, ps.gen_bases(6, 2, 42).factors)
    assert not np.array_equal(ps.gen_bases(6, 2, 42).factors, ps.gen_bases(6, 2, 43).factors)


def test_gen_bases_rejects_bad_arguments():
    with pytest.raises(ps.DomainError):
        ps.gen_bases(0, 1, 0)
    with pytest.raises(ps.DomainError):
        ps.gen_bases(2, 0, 0)


def test_gen_random_psd_scalar_case():
    inst = ps.gen_random_psd(1, 2, 1, 1e6, 3)
    a = dense_mats(inst).ravel()
    assert np.all(a >= -1e-12)
    assert 0.5 * (a[0] + a[1]) == pytest.approx(1.0, abs=1e-10)


def test_gen_random_psd_full_rank_single_member_is_identity():
    for seed in (0, 9):
        inst = ps.gen_random_psd(4, 1, 4, 1e6, seed)
        assert np.allclose(dense_mats(inst)[0], np.eye(4), atol=1e-9)


def test_gen_random_psd_rejects_singular_setup():
    with pytest.raises(ps.DomainError):
        ps.gen_random_psd(4, 1, 3, 1e6, 0)  # m*rank < d


@pytest.mark.parametrize("cond_cap", [0.5, math.nan])
def test_gen_random_psd_rejects_bad_condition_cap(cond_cap):
    with pytest.raises(ps.DomainError):
        ps.gen_random_psd(4, 8, 2, cond_cap, 0)


def test_gen_random_psd_gives_up_on_impossible_condition_cap():
    with pytest.raises(ps.IsotropicTransformFailed):
        ps.gen_random_psd(4, 4, 1, 1.01, 0)


def test_gen_random_psd_deterministic_in_seed():
    a = ps.gen_random_psd(3, 6, 2, 1e4, 5).factors
    b = ps.gen_random_psd(3, 6, 2, 1e4, 5).factors
    assert np.array_equal(a, b)


def test_gen_graph_edges_triangle():
    inst = ps.gen_graph_edges([(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert (inst.d, inst.m) == (2, 3)
    assert np.allclose(inst.weights, 1.0 / 3.0, atol=1e-12)
    for a in dense_mats(inst):
        assert np.max(np.abs(np.linalg.eigvalsh(a))) == pytest.approx(2.0, rel=1e-10)


def test_gen_graph_edges_single_edge():
    inst = ps.gen_graph_edges([(0, 1, 2.5)])
    assert (inst.d, inst.m) == (1, 1)
    assert np.allclose(dense_mats(inst)[0], [[1.0]], atol=1e-12)
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
    # a malformed edge or weight is a FormatError that names the edge, not a bare Python error
    with pytest.raises(ps.FormatError, match=r"^edge \(0, 1\) must be a triple \(u, v, w\)$"):
        ps.gen_graph_edges([(0, 1)])
    for w in ("x", None, True):
        with pytest.raises(ps.FormatError, match=rf"^edge \(0, 1\): weight must be a number, got {w!r}$"):
            ps.gen_graph_edges([(0, 1, w)])
    # enough edges for 5 vertices, but in two components
    with pytest.raises(ps.Disconnected, match="Laplacian rank below 4"):
        ps.gen_graph_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (3, 4, 1.0), (0, 1, 1.0)])


def test_gen_graph_edges_rejects_too_few_edges_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ps.Disconnected, match="1000001 vertices need at least 1000000 edges, got 1"):
            ps.gen_graph_edges([(0, 1_000_000, 1.0)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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


def _random_connected_edges_reference(n, n_edges, seed):
    # the earlier version, which built the spare pairs even with no extra edge
    rng = instance._rng(seed)
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    seen = set(pairs)
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in seen]
    extra = n_edges - (n - 1)
    if extra:
        idx = rng.permutation(len(spare))[:extra]
        pairs.extend(spare[i] for i in idx)
    return [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in pairs]


@pytest.mark.parametrize("n, n_edges, seed", [(2, 1, 0), (5, 4, 3), (5, 10, 3), (9, 14, 4), (30, 29, 7),
                                              (30, 60, 7)])
def test_random_connected_edges_matches_the_reference(n, n_edges, seed):
    assert ps.random_connected_edges(n, n_edges, seed) == _random_connected_edges_reference(n, n_edges, seed)


def test_a_spanning_tree_draw_skips_the_quadratic_pair_list():
    tracemalloc.start()
    try:
        edges = ps.random_connected_edges(2000, 1999, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 1999
    assert peak < 2 << 20  # the pair list alone would take about 180 MB


def test_extra_edges_are_drawn_without_the_quadratic_pair_list():
    tracemalloc.start()
    try:
        edges = ps.random_connected_edges(2000, 2000, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(edges) == 2000
    assert len({(u, v) for u, v, _ in edges}) == 2000
    # the seeded permutation of the 1997001 spare indices takes 15.2 MiB and the
    # whole draw peaks at 16.4 MiB; a Python list of the spare pairs peaked at 199 MiB
    assert peak < 24 << 20


def test_random_connected_edges_rejects_bad_counts():
    with pytest.raises(ps.DomainError):
        ps.random_connected_edges(1, 0, seed=0)
    with pytest.raises(ps.DomainError, match="at least 2 vertices"):
        ps.random_connected_edges(1, 1, seed=0)
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


@pytest.mark.parametrize(
    "load, data",
    [
        (ps.load_instance, b"\xff\xfe{}"),
        (ps.load_instance, b'{"d": ' + b"1" * 5000 + b"}"),   # past Python's int-digit limit
        (ps.load_instance, b"[" * 100_000 + b"]" * 100_000),   # past the recursion limit
        (ps.load_edge_list, b"\xff 1 1\n"),
    ],
    ids=["instance-not-utf8", "instance-long-integer", "instance-deep-nesting",
         "edge-list-not-utf8"],
)
def test_loaders_reject_undecodable_files(tmp_path, load, data):
    path = tmp_path / "bad"
    path.write_bytes(data)
    with pytest.raises(ps.FormatError):
        load(path)


@pytest.mark.parametrize(
    "make",
    [
        lambda: ps.gen_bases(2, 1, -1),
        lambda: ps.gen_random_psd(2, 4, 1, 1e4, -1),
        lambda: ps.random_connected_edges(4, 4, -1),
    ],
    ids=["bases", "random-psd", "random-graph"],
)
def test_generators_reject_a_negative_seed(make):
    with pytest.raises(ps.DomainError, match="seed must be nonnegative"):
        make()


@pytest.mark.parametrize(
    "make, what",
    [
        (lambda: ps.gen_bases(2, 1, 1.5), "seed"),
        (lambda: ps.gen_bases(2, 1, True), "seed"),
        (lambda: ps.gen_random_psd(2, 4, 1, 1e4, 1.5), "seed"),
        (lambda: ps.random_connected_edges(4, 4, 1.5), "seed"),
        (lambda: ps.gen_bases(2.0, 1, 0), "d"),
        (lambda: ps.gen_random_psd(4, 8.0, 2, 1e4, 0), "m"),
        (lambda: ps.random_connected_edges(5.5, 6, 0), "n"),
        (lambda: ps.random_connected_edges(5, 6.5, 0), "n_edges"),
        (lambda: ps.gen_graph_edges([(0, 1.5, 1.0), (1, 2, 1.0)]), "vertex ids"),
        (lambda: ps.gen_graph_edges([(0, True, 1.0), (1, 2, 1.0)]), "vertex ids"),
    ],
    ids=["bases-seed", "bases-seed-bool", "random-psd-seed", "random-graph-seed", "bases-d",
         "random-psd-m", "random-graph-n", "random-graph-edges", "graph-vertex", "graph-vertex-bool"],
)
def test_generators_take_only_integer_seeds_counts_and_vertex_ids(make, what):
    with pytest.raises(ps.DomainError, match=f"^{what} must be .*integer"):
        make()


def test_one_rng_serves_every_seeded_stream():
    # sample_run's and verify's streams as they were drawn before _rng served them
    def philox(ss):
        return np.random.Generator(np.random.Philox(seed=ss)).random(8)

    assert np.array_equal(instance._rng(7).random(8), philox(np.random.SeedSequence(7)))
    old_trial = np.random.SeedSequence(entropy=3, spawn_key=(2, 5))
    assert np.array_equal(instance._rng(3, 2, 5).random(8), philox(old_trial))


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
        assert np.array_equal(again.factors, inst.factors)


def test_fuzz_sweep_has_at_least_100_cases():
    assert len(_BASES_CASES + _PSD_CASES + _GRAPH_CASES) >= 100
