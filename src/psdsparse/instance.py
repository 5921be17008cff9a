"""Isotropic PSD decompositions: validation, centering, generators, on-disk format.

An instance is a family (lambda_i, A_i) of nonnegative weights summing to one
and PSD matrices whose weighted sum is the identity, together with the
recomputed norm bound M = max_i ||A_i||. The on-disk format is JSON, with each
member either dense or as a thin factor V_i (d x r) with A_i = V_i V_i^T:

    {"d": int, "items": [{"lambda": float, "A": [[row-major floats]]}]}
    {"d": int, "items": [{"lambda": float, "V": [[d rows of r floats]]}]}

A file carries one kind for every item, and one r for every "V". The three
generators build their members from factors and save them as "V"; a dense
family saves as "A". An optional stored "M" is advisory only: it is rejected
if below the recomputed value and never replaces it.

A family built from factors is held and certified as factors only: nothing
of size m * d^2 is formed. Where a caller needs dense centered rows
X_i = A_i - Id, _centered_rows forms them block by block, under one shared
cap of _CHUNK_ENTRIES entries per block.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    DomainError,
    EmptyFamily,
    FormatError,
    CenteringCertificateFailed,
    InstanceError,
    IsotropicTransformFailed,
    NonFinite,
    NormBoundTooSmall,
    NotIsotropic,
    NotPSD,
    NotSymmetric,
    WeightsNotSimplex,
)
from .symmat import ASYMMETRY_TOL, _eigh, _eigvalsh, _one_blas_thread, _symmetrize, loewner_leq

WEIGHT_SUM_TOL = 1e-10
PSD_TOL = 1e-10
ISOTROPY_TOL = 1e-8
NORM_FLOOR_TOL = 1e-10

CENTER_MEAN_TOL = 1e-8
CENTER_NORM_TOL = 1e-9
CENTER_SQUARE_TOL = 1e-8

MAX_TRANSFORM_RETRIES = 16

# the most entries in one block of dense rows, (k, d, d): 2 MB of float64. With a
# factor family, peak memory is about the factors plus a few such blocks.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True, eq=False)
class Instance:
    """A certified decomposition of the identity (see module docstring).

    Instance(weights, mats) takes a weight vector and an (m, d, d) array whose
    rows are exactly symmetric; Instance(weights, factors=V) takes an
    (m, d, r) array instead, with A_i = V_i V_i^T, and never forms the dense
    family: mats is None and every certificate is computed from the factors.
    Either way it raises unless the family meets the contract: finite entries,
    weights on the simplex, each A_i PSD, the weighted sum equal to Id, and
    M = max_i ||A_i|| at least 1. It also certifies the centered family
    X_i = A_i - Id that center() returns: the weighted mean of the X_i
    vanishes, each ||X_i|| <= M, and sum_i w_i X_i^2 <= M * Id. d, m and M
    are derived, never passed.

    weights is copied; a float64 mats or factors is kept without a copy. All
    three arrays are made read-only; factors is None for a dense family.
    """

    weights: np.ndarray
    mats: np.ndarray | None = None
    factors: np.ndarray | None = None
    d: int = field(init=False)
    m: int = field(init=False)
    norm_bound: float = field(init=False)

    @_one_blas_thread()
    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=np.float64)
        mats, factors = self.mats, self.factors
        if factors is None:
            members = mats = np.asarray(mats, dtype=np.float64)
        elif mats is not None:
            raise FormatError("pass mats or factors, not both")
        else:
            members = factors = np.asarray(factors, dtype=np.float64)
        noun, last = ("matrices", "d") if factors is None else ("factors", "r")
        if weights.ndim != 1 or members.ndim != 3:
            raise FormatError(f"need shapes (m,) and (m, d, {last}), got {weights.shape}, {members.shape}")
        if factors is not None and factors.shape[2] < 1:
            raise DimensionMismatch(f"factors need rank r >= 1, got shape {factors.shape}")
        m = weights.shape[0]
        if members.shape[0] != m:
            raise FormatError(f"got {m} weights and {members.shape[0]} {noun}")
        if m < 1:
            raise FormatError("family must contain at least one weighted matrix")
        d = members.shape[1]
        if d < 1 or mats is not None and mats.shape[1] != mats.shape[2]:
            raise DimensionMismatch(f"matrices must be square and nonempty, got {members.shape[1:]}")
        if not np.all(np.isfinite(weights)):
            raise NonFinite("weights contain NaN or Inf")
        if mats is None:
            norm_bound = _certify_factors(weights, factors)
        else:
            norm_bound = _certify_dense(weights, mats)

        weights = weights.copy()
        for a in (weights, mats, factors):
            if a is not None:
                a.setflags(write=False)
        for name, value in (("weights", weights), ("mats", mats), ("factors", factors), ("d", d),
                            ("m", m), ("norm_bound", norm_bound)):
            object.__setattr__(self, name, value)


def _check_simplex(weights: np.ndarray) -> float:
    """The weights' sum; raises unless they are nonnegative and sum to 1."""
    if np.any(weights < 0):
        i = int(np.argmin(weights))
        raise WeightsNotSimplex(f"weight {i} is negative ({weights[i]:.3e})")
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightsNotSimplex(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL:g}")
    return total


def _check_psd(eigs: np.ndarray) -> float:
    """M = max_i ||A_i|| from each member's nondecreasing eigenvalues; raises NotPSD."""
    norms = np.max(np.abs(eigs), axis=1)
    for i in range(len(eigs)):
        if eigs[i, 0] < -PSD_TOL * (1.0 + norms[i]):
            raise NotPSD(i, float(eigs[i, 0]))
    return float(np.max(norms))


def _check_mean(mean: np.ndarray, total: float, norm_bound: float) -> None:
    """Isotropy, M >= 1 and the mean-zero certificate, from mean = sum_i w_i A_i (symmetric)."""
    eye = np.eye(len(mean))
    with np.errstate(over="ignore", invalid="ignore"):  # a mean that overflowed fails isotropy
        residual = float(np.max(np.abs(_eigvalsh(mean - eye))))
    if not residual <= ISOTROPY_TOL:
        raise NotIsotropic(residual)
    if norm_bound < 1.0 - NORM_FLOOR_TOL:
        # impossible once isotropy holds; a failure here means corrupted data
        raise InstanceError(f"norm bound {norm_bound!r} below 1")
    # sum_i w_i X_i = mean - (sum_i w_i) Id
    mean_norm = float(np.max(np.abs(_eigvalsh(mean - total * eye))))
    if not mean_norm <= CENTER_MEAN_TOL:
        raise CenteringCertificateFailed("mean-zero", f"(norm {mean_norm:.3e})")


def _check_centered(worst: float, squares: np.ndarray, norm_bound: float) -> None:
    """The norm and square-bound certificates: max_i ||X_i|| = worst, sum_i w_i X_i^2 = squares."""
    if not worst <= norm_bound + CENTER_NORM_TOL:
        raise CenteringCertificateFailed("norm", f"(max {worst!r} > M={norm_bound!r})")
    if not (np.all(np.isfinite(squares))   # squares that overflowed fail the bound
            and loewner_leq(squares, norm_bound * np.eye(len(squares)), CENTER_SQUARE_TOL)):
        raise CenteringCertificateFailed("square-bound")


def _certify_dense(weights: np.ndarray, mats: np.ndarray) -> float:
    """The contract and the centering certificates of a dense family; returns M."""
    if not np.all(np.isfinite(mats)):
        raise NonFinite("matrix entries contain NaN or Inf")
    if not np.array_equal(mats, mats.swapaxes(1, 2)):
        asym = np.max(np.abs(mats - mats.swapaxes(1, 2)), axis=(1, 2))
        i = int(np.argmax(asym > 0))
        raise NotSymmetric(i, float(asym[i]))
    total = _check_simplex(weights)
    eigs = _eigvalsh(mats)  # (m, d), each row nondecreasing
    norm_bound = _check_psd(eigs)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a certificate below
        mean = _symmetrize(np.einsum("i,ijk->jk", weights, mats))
        # sqrt(w_i) X_i, squared: w_i X_i^2 <= M Id, so no valid family overflows here
        xs = (mats - np.eye(mats.shape[1])) * np.sqrt(weights)[:, np.newaxis, np.newaxis]
        squares = _symmetrize(np.sum(xs @ xs, axis=0))
    _check_mean(mean, total, norm_bound)
    # eig(X_i) = eig(A_i) - 1 exactly in real arithmetic. Computed, the two
    # spectra differ by LAPACK's backward error, O(d * eps * M): about 1e-12
    # at d = M = 64, three orders below CENTER_NORM_TOL.
    _check_centered(float(np.max(np.abs(eigs - 1.0))), squares, norm_bound)
    return norm_bound


def _certify_factors(weights: np.ndarray, factors: np.ndarray) -> float:
    """The same certificates from the factors, holding nothing of size m * d^2; returns M.

    With G_i = V_i^T V_i and W the d x (m r) matrix of columns sqrt(w_i) V_i:
    ||A_i|| = lambda_max(G_i), since A_i and G_i share their nonzero spectrum;
    sum_i w_i A_i = W W^T; eig(X_i) is eig(G_i) - 1, plus -1 when r < d; and
    sum_i w_i X_i^2 = sum_i w_i V_i G_i V_i^T - 2 W W^T + (sum_i w_i) Id.
    """
    m, d, r = factors.shape
    with np.errstate(over="ignore", invalid="ignore"):  # NaN and Inf are reported below
        gram = factors.swapaxes(1, 2) @ factors
        # |(V V^T)_jk| <= tr G, so a finite trace keeps every dense row finite
        finite = np.all(np.isfinite(gram)) and np.all(np.isfinite(np.trace(gram, axis1=1, axis2=2)))
    if not finite:
        raise NonFinite("matrix entries contain NaN or Inf: a factor entry is not finite, "
                        "or V V^T overflows")
    total = _check_simplex(weights)
    eigs = _eigvalsh(gram)  # (m, r), each row nondecreasing
    norm_bound = _check_psd(eigs)
    scaled = factors * np.sqrt(weights)[:, np.newaxis, np.newaxis]
    w = scaled.transpose(1, 0, 2).reshape(d, m * r)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails a certificate below
        mean = _symmetrize(w @ w.T)
        wg = (scaled @ gram).transpose(1, 0, 2).reshape(d, m * r)
        squares = _symmetrize(wg @ w.T) - 2.0 * mean + total * np.eye(d)
    _check_mean(mean, total, norm_bound)
    worst = float(np.max(np.abs(eigs - 1.0)))
    if r < d:
        worst = max(worst, 1.0)
    _check_centered(worst, squares, norm_bound)
    return norm_bound


@dataclass(frozen=True, eq=False)
class CenteredFamily:
    """Centered matrices X_i as a read-only (m, d, d) array, with weights and bounds.

    m1 caps each ||X_i|| and m2 caps the top eigenvalue of sum_i w_i X_i^2;
    center() gives m1 = m2 = M. Raises EmptyFamily when m = 0, and
    DimensionMismatch unless weights has shape (m,) and xs shape (m, d, d)
    with d >= 1.
    """

    weights: np.ndarray
    xs: np.ndarray
    m1: float
    m2: float

    def __post_init__(self):
        w, xs = np.shape(self.weights), np.shape(self.xs)
        if xs[:1] == (0,):
            raise EmptyFamily("family has no members")
        if len(xs) != 3 or w != xs[:1] or xs[1] != xs[2] or xs[1] < 1:
            raise DimensionMismatch(f"need weights of shape (m,) and xs of shape (m, d, d) "
                                    f"with d >= 1, got {w} and {xs}")

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def m(self) -> int:
        return self.xs.shape[0]


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    """The seed sequence of (seed, *key); a value that is not an integer >= 0 is a DomainError."""
    values = (seed, *key)
    if not all(map(_is_int, values)):
        raise DomainError(f"seed must be an integer, got {', '.join(map(repr, values))}")
    if min(values) < 0:
        raise DomainError(f"seed must be nonnegative, got {', '.join(map(str, values))}")
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic counter-based generator; extra key values derive substreams."""
    return np.random.Generator(np.random.Philox(seed=_seed_sequence(seed, *key)))


def _is_int(value) -> bool:
    """Whether value is an integer: an int or a numpy integer, but not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_counts(**counts) -> None:
    """Raise DomainError unless every value is an integer (see _is_int) >= 1 that a float holds."""
    for name, value in counts.items():
        if not (_is_int(value) and value >= 1):
            raise DomainError(f"{name} must be a positive integer, got {value!r}")
        if value > sys.float_info.max:
            raise DomainError(f"{name} exceeds the largest float, {sys.float_info.max!r}")


def _json_number(value, what: str) -> float:
    """A JSON number as a float; a string, boolean, list or null is a FormatError."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise FormatError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise FormatError(f"{what} does not fit a float") from exc


def validate(raw: dict) -> Instance:
    """Decode and certify a raw JSON payload; errors name the violated condition."""
    if not isinstance(raw, dict):
        raise FormatError(f"expected a JSON object, got {type(raw).__name__}")
    try:
        d = raw["d"]
        items = raw["items"]
    except KeyError as exc:
        raise FormatError("payload must carry integer 'd' and a list 'items'") from exc
    # a JSON integer only: int() would turn true into 1 and 2.7 or "2" into 2
    if not _is_int(d):
        raise FormatError(f"'d' must be an integer, got {d!r}")
    if d < 1:
        raise DimensionMismatch(f"dimension must be positive, got {d}")
    if not isinstance(items, list) or not items:
        raise FormatError("'items' must be a non-empty list")
    stored = raw.get("M")
    if stored is not None:
        stored = _json_number(stored, "'M'")
        if not math.isfinite(stored):
            raise FormatError(f"'M' must be finite, got {stored!r}")

    weights = np.empty(len(items))
    kind = None     # "A" or "V", fixed by item 0
    members = None  # allocated once item 0 has its shape, so a bad 'd' allocates nothing
    for i, item in enumerate(items):
        try:
            weights[i] = _json_number(item["lambda"], f"item {i}: 'lambda'")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"item {i} must carry 'lambda' and a numeric matrix 'A' or 'V'") from exc
        keys = [key for key in ("A", "V") if key in item]
        if len(keys) != 1:
            raise FormatError(f"item {i} must carry exactly one of 'A' and 'V', got {len(keys)}")
        kind = kind or keys[0]
        if keys[0] != kind:
            raise FormatError(f"item {i}: '{keys[0]}' in a file of '{kind}' items; use one kind per file")
        try:
            a = np.asarray(item[kind])
        except (TypeError, ValueError) as exc:
            raise FormatError(f"item {i}: '{kind}' must be a matrix of numbers") from exc
        if a.dtype.kind not in "iuf":
            raise FormatError(f"item {i}: '{kind}' must be a matrix of numbers")
        a = a.astype(np.float64, copy=False)
        if kind == "A" and a.shape != (d, d):
            raise DimensionMismatch(f"item {i}: matrix shape {a.shape} != ({d}, {d})")
        if kind == "V" and (a.ndim != 2 or a.shape[0] != d or a.shape[1] < 1
                            or members is not None and a.shape != members.shape[1:]):
            r = "r >= 1" if members is None else members.shape[2]
            raise DimensionMismatch(f"item {i}: factor shape {a.shape} != ({d}, {r})")
        # numpy reads a boolean among numbers as 0 or 1; one C-level pass over the entry types
        if not set(map(type, chain.from_iterable(item[kind]))).isdisjoint((bool, np.bool_)):
            raise FormatError(f"item {i}: '{kind}' must be a matrix of numbers, not booleans")
        if not np.all(np.isfinite(a)):
            raise NonFinite(f"item {i}: matrix entries contain NaN or Inf")
        if kind == "A":
            with np.errstate(over="ignore"):   # an overflow is reported below
                asym = float(np.max(np.abs(a - a.T)))
                if asym > ASYMMETRY_TOL:
                    raise NotSymmetric(i, asym)
                a = _symmetrize(a)
            if not np.all(np.isfinite(a)):
                raise NonFinite(f"item {i}: matrix entries overflow when symmetrized")
        if members is None:
            members = np.empty((len(items), *a.shape))
        members[i] = a

    inst = Instance(weights, members) if kind == "A" else Instance(weights, factors=members)
    if stored is not None:
        if stored < inst.norm_bound - 1e-9 * (1.0 + inst.norm_bound):
            raise NormBoundTooSmall(
                f"stored M={stored!r} is below the recomputed bound {inst.norm_bound!r}"
            )
    return inst


def to_payload(inst: Instance) -> dict:
    """JSON-ready dict in the on-disk format (floats round-trip exactly).

    Items carry "V" when the instance was built from factors, else "A".
    """
    key, members = ("A", inst.mats) if inst.factors is None else ("V", inst.factors)
    return {
        "d": inst.d,
        "M": inst.norm_bound,
        "items": [
            {"lambda": float(w), key: a.tolist()}
            for w, a in zip(inst.weights, members)
        ],
    }


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_payload(inst), fh)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        # malformed JSON, non-UTF-8 bytes, an over-long integer or too deep a nesting
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    return validate(raw)


def _fits_one_block(inst: Instance) -> bool:
    """Whether the family's dense rows, (m, d, d), fit in one block under _CHUNK_ENTRIES.

    Such a family is small enough to hold densely. A factor family is then
    formed whole where its rows are read many times: by sample_run's draws,
    and by greedy's step, whose dense operands cost less per step than the
    factor terms at that size.
    """
    return inst.m * inst.d * inst.d <= _CHUNK_ENTRIES


def _row_parts(idx: np.ndarray, d: int) -> list[np.ndarray]:
    """Consecutive parts of idx, each of at most _CHUNK_ENTRIES // d^2 indices (at least one)."""
    step = max(1, _CHUNK_ENTRIES // (d * d))
    return [idx[start:start + step] for start in range(0, len(idx), step)]


def _products(factors: np.ndarray) -> np.ndarray:
    """sym(V V^T) for each V in factors, as a fresh (k, d, d) array.

    A rank-one product v v^T is exactly symmetric, entry by entry the rounded
    v_j v_k that a matrix product gives, so sym() would not change a bit of it.
    """
    if factors.shape[2] == 1:
        return factors * factors.swapaxes(1, 2)
    return _symmetrize(factors @ factors.swapaxes(1, 2))


def _minus_identity(block: np.ndarray) -> np.ndarray:
    """block - Id for each (d, d) row, in place: only the diagonal changes, as x - 0 is x."""
    diagonal = np.einsum("ijj->ij", block)   # a writable view
    diagonal -= 1.0
    return block


def _centered_rows(inst: Instance, idx):
    """(part, X_i for i in part) over the parts of idx: fresh writable (len(part), d, d) blocks.

    X_i = A_i - Id has the bits the dense family always had, mats[part] - Id
    or sym(V V^T) - Id, whichever block it is in. A factor family that fits
    in one block is formed whole once per call and gathered from, so a member
    drawn many times is formed once.
    """
    whole = None
    if inst.factors is not None and _fits_one_block(inst):
        whole = _minus_identity(_products(inst.factors))
    for part in _row_parts(np.asarray(idx, dtype=np.intp), inst.d):
        if whole is not None:
            block = whole[part]
        elif inst.factors is None:
            block = _minus_identity(inst.mats[part])
        else:
            block = _minus_identity(_products(inst.factors[part]))
        yield part, block
        del block   # so the caller's del frees it before the next block is formed


def center(inst: Instance) -> CenteredFamily:
    """The centered family X_i = A_i - Id, as a fresh read-only array; Instance certified it.

    It holds the whole family; sample_run, and run on a factor family too
    large to hold densely, form the rows they need block by block instead
    (see _centered_rows).
    """
    xs = np.empty((inst.m, inst.d, inst.d))
    for part, block in _centered_rows(inst, np.arange(inst.m)):
        xs[part] = block
    xs.setflags(write=False)
    return CenteredFamily(weights=inst.weights, xs=xs, m1=inst.norm_bound, m2=inst.norm_bound)


# --- generators ----------------------------------------------------------------


def _haar_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


@_one_blas_thread()
def gen_bases(d: int, n_bases: int, seed: int) -> Instance:
    """Union of random orthonormal bases, each vector u giving A = d * u u^T.

    Produces m = n_bases * d rank-one members, stored as factors
    V = sqrt(d) * u, with equal weights 1/m and norm bound d; deterministic in
    the seed.
    """
    _check_counts(d=d, n_bases=n_bases)
    rng = _rng(seed)
    m = n_bases * d
    try:
        factors = np.empty((m, d, 1))
    except ValueError as exc:  # past numpy's size limit; a MemoryError is reported as it is
        raise DomainError(f"d={d} and n_bases={n_bases} are too large: {exc}") from exc
    for b in range(n_bases):
        factors[b * d:(b + 1) * d, :, 0] = math.sqrt(d) * _haar_orthogonal(rng, d).T
    weights = np.full(m, 1.0 / m)
    return Instance(weights, factors=factors)


@_one_blas_thread()
def gen_random_psd(d: int, m: int, rank: int, cond_cap: float, seed: int) -> Instance:
    """Random Gram matrices pushed to isotropic position.

    Draws B_i = G_i G_i^T with G_i of shape (d, rank), averages S, and when
    cond(S) <= cond_cap returns A_i = V_i V_i^T with factors
    V_i = S^{-1/2} G_i and equal weights; otherwise redraws with a derived
    seed, up to 16 attempts.
    """
    _check_counts(d=d, m=m, rank=rank)
    if m * rank < d:
        raise DomainError(f"m*rank = {m * rank} < d = {d}: average is singular")
    if not cond_cap >= 1:  # also rejects NaN
        raise DomainError(f"cond_cap must be >= 1, got {cond_cap!r}")
    for attempt in range(MAX_TRANSFORM_RETRIES):
        rng = _rng(seed, attempt)
        try:
            gs = rng.standard_normal((m, d, rank))
        except ValueError as exc:  # past numpy's size limit; a MemoryError is reported as it is
            raise DomainError(f"d={d}, m={m} and rank={rank} are too large: {exc}") from exc
        flat = gs.transpose(1, 0, 2).reshape(d, m * rank)  # [G_1 ... G_m], so S = flat flat^T / m
        s = _symmetrize(flat @ flat.T / m)
        vals, vecs = _eigh(s)
        if vals[0] <= 0 or vals[-1] / vals[0] > cond_cap:
            continue
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        weights = np.full(m, 1.0 / m)
        return Instance(weights, factors=inv_sqrt @ gs)
    raise IsotropicTransformFailed(
        f"condition cap {cond_cap:g} not met after {MAX_TRANSFORM_RETRIES} attempts"
    )


@_one_blas_thread()
def gen_graph_edges(edge_list) -> Instance:
    """Isotropic decomposition from a connected weighted graph via leverage scores.

    Works in the (n-1)-dimensional range of the Laplacian: every edge maps to
    a rank-one matrix of norm exactly n-1, stored as its factor, weighted by
    its leverage score over n-1. The construction is deterministic.
    """
    edges = []
    for edge in edge_list:
        try:
            u, v, w = edge
        except (TypeError, ValueError) as exc:
            raise FormatError(f"edge {edge!r} must be a triple (u, v, w)") from exc
        edges.append((u, v, _json_number(w, f"edge ({u!r}, {v!r}): weight")))
    if not edges:
        raise FormatError("edge list is empty")
    for u, v, w in edges:
        if not (_is_int(u) and _is_int(v)):
            raise DomainError(f"vertex ids must be integers, got ({u!r}, {v!r})")
        if u < 0 or v < 0:
            raise DomainError(f"vertex ids must be nonnegative, got ({u}, {v})")
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        if w <= 0 or not np.isfinite(w):
            raise DomainError(f"edge ({u}, {v}) has non-positive weight {w!r}")
    n = int(max(max(u, v) for u, v, _ in edges)) + 1
    if n > len(edges) + 1:  # checked before the n x n Laplacian is allocated
        raise Disconnected(f"{n} vertices need at least {n - 1} edges, got {len(edges)}")

    lap = np.zeros((n, n))
    with np.errstate(over="ignore"):  # an overflow is reported below
        for u, v, w in edges:
            lap[u, u] += w
            lap[v, v] += w
            lap[u, v] -= w
            lap[v, u] -= w
    if not np.all(np.isfinite(lap)):
        raise NonFinite("graph Laplacian overflows: a weighted degree exceeds the float range")
    vals, vecs = _eigh(lap)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("graph Laplacian spectrum overflows the float range")
    tol = 1e-9 * max(1.0, float(vals[-1]))
    if vals[1] <= tol:
        raise Disconnected(f"Laplacian rank below {n - 1}")

    basis = vecs[:, 1:]            # orthonormal basis of range(L)
    inv_sqrt_vals = 1.0 / np.sqrt(vals[1:])
    dim = n - 1
    factors = np.empty((len(edges), dim, 1))
    weights = np.empty(len(edges))
    for i, (u, v, w) in enumerate(edges):
        b = np.zeros(n)
        b[u], b[v] = 1.0, -1.0
        vt = inv_sqrt_vals * (basis.T @ b)
        leverage = w * float(vt @ vt)
        weights[i] = leverage / dim
        factors[i, :, 0] = math.sqrt(dim * w / leverage) * vt
    return Instance(weights, factors=factors)


def random_connected_edges(n: int, n_edges: int, seed: int) -> list[tuple[int, int, float]]:
    """A random connected weighted graph: spanning tree plus distinct extra edges.

    Weights are uniform in [0.5, 2); deterministic in the seed. Drawing extra
    edges holds one seeded permutation of the n(n-1)/2 - (n-1) spare pair
    indices (8 bytes each), never a list of the pairs themselves.
    """
    _check_counts(n=n, n_edges=n_edges)
    if n < 2:
        raise DomainError("need at least 2 vertices")
    max_edges = n * (n - 1) // 2
    if n_edges < n - 1 or n_edges > max_edges:
        raise DomainError(f"n_edges must lie in [{n - 1}, {max_edges}]")
    rng = _rng(seed)
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    extra = n_edges - (n - 1)
    if extra:
        # the spare pairs are the upper-triangle pairs (u, v), u < v, in row-major
        # order with the tree's pairs left out; draw spare indices and unrank them
        starts = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))   # rank of (u, u + 1)
        tree = np.sort([starts[u] + v - u - 1 for u, v in pairs])
        idx = rng.permutation(max_edges - (n - 1))[:extra]
        # a spare index i has rank i + (tree ranks below it); tree[j] - j spare ones precede tree[j]
        ranks = idx + np.searchsorted(tree - np.arange(n - 1), idx, side="right")
        rows = np.searchsorted(starts, ranks, side="right") - 1
        pairs.extend(zip(rows.tolist(), (ranks - starts[rows] + rows + 1).tolist()))
    return [(u, v, float(rng.uniform(0.5, 2.0))) for u, v in pairs]


def parse_edge_lines(lines) -> list[tuple[int, int, float]]:
    """Parse the text edge-list format: one 'u v w' triple per line, 0-based ids.

    Blank lines and lines starting with '#' are skipped.
    """
    edges = []
    for ln, line in enumerate(lines, start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        if len(parts) != 3:
            raise FormatError(f"line {ln}: expected 'u v w', got {body!r}")
        try:
            edges.append((int(parts[0]), int(parts[1]), float(parts[2])))
        except ValueError as exc:
            raise FormatError(f"line {ln}: non-numeric field in {body!r}") from exc
    if not edges:
        raise FormatError("edge list is empty")
    return edges


def load_edge_list(path) -> list[tuple[int, int, float]]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_edge_lines(fh)
        except UnicodeDecodeError as exc:
            raise FormatError(f"edge list is not UTF-8 text: {exc}") from exc
