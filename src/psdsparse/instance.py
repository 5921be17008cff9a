"""Isotropic PSD decompositions: validation, centering, generators, on-disk format.

An instance is a family (lambda_i, A_i) of nonnegative weights summing to one
and PSD matrices whose weighted sum is the identity, together with the
recomputed norm bound M = max_i ||A_i||. The on-disk format is JSON:

    {"d": int, "items": [{"lambda": float, "A": [[row-major floats]]}]}

An optional stored "M" is advisory only: it is rejected if below the
recomputed value and never replaces it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    DimensionMismatch,
    Disconnected,
    DomainError,
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
from .symmat import SymMatrix, _eigvalsh, _symmetrize, loewner_leq

WEIGHT_SUM_TOL = 1e-10
PSD_TOL = 1e-10
ISOTROPY_TOL = 1e-8
ASYMMETRY_TOL = 1e-9
NORM_FLOOR_TOL = 1e-10

CENTER_MEAN_TOL = 1e-8
CENTER_NORM_TOL = 1e-9
CENTER_SQUARE_TOL = 1e-8

MAX_TRANSFORM_RETRIES = 16


@dataclass(frozen=True, eq=False)
class Instance:
    """A validated decomposition of the identity (see module docstring).

    weights and the (m, d, d) array mats are read-only, and each mats[i] is
    exactly symmetric.
    """

    d: int
    m: int
    weights: np.ndarray
    mats: np.ndarray
    norm_bound: float
    _centered: bool = field(default=False, init=False, repr=False)  # set by center()


@dataclass(frozen=True, eq=False)
class CenteredFamily:
    """Centered matrices X_i as a read-only (m, d, d) array, with weights and bounds.

    m1 caps each ||X_i|| and m2 caps the top eigenvalue of sum_i w_i X_i^2;
    center() gives m1 = m2 = M.
    """

    weights: np.ndarray
    xs: np.ndarray
    m1: float
    m2: float

    @property
    def d(self) -> int:
        return self.xs.shape[1]

    @property
    def m(self) -> int:
        return self.xs.shape[0]


def _rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic counter-based generator; extra key values derive substreams."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(seed=ss))


def _certify(weights: np.ndarray, mats: np.ndarray) -> Instance:
    """Build an Instance, verifying every contract condition on the given arrays.

    ``mats`` must already be exactly symmetric (asymmetry handling is the
    loader's job); it is kept as the instance's array and made read-only.
    """
    weights = np.asarray(weights, dtype=np.float64)
    mats = np.asarray(mats, dtype=np.float64)
    m = weights.shape[0]
    if m < 1 or mats.shape[0] != m:
        raise FormatError("family must contain at least one weighted matrix")
    d = mats.shape[1]
    if mats.shape[1] != mats.shape[2]:
        raise DimensionMismatch(f"matrices must be square, got shape {mats.shape[1:]}")
    if not np.all(np.isfinite(weights)):
        raise NonFinite("weights contain NaN or Inf")
    if not np.all(np.isfinite(mats)):
        raise NonFinite("matrix entries contain NaN or Inf")
    if not np.array_equal(mats, mats.swapaxes(1, 2)):
        asym = np.max(np.abs(mats - mats.swapaxes(1, 2)), axis=(1, 2))
        i = int(np.argmax(asym > 0))
        raise NotSymmetric(i, float(asym[i]))
    if np.any(weights < 0):
        i = int(np.argmin(weights))
        raise WeightsNotSimplex(f"weight {i} is negative ({weights[i]:.3e})")
    total = float(np.sum(weights))
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightsNotSimplex(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL:g}")

    eigs = _eigvalsh(mats)  # (m, d), each row nondecreasing
    norms = np.max(np.abs(eigs), axis=1)
    for i in range(m):
        if eigs[i, 0] < -PSD_TOL * (1.0 + norms[i]):
            raise NotPSD(i, float(eigs[i, 0]))

    mean = np.einsum("i,ijk->jk", weights, mats)
    residual_eigs = _eigvalsh(_symmetrize(mean) - np.eye(d))
    residual = float(np.max(np.abs(residual_eigs)))
    if residual > ISOTROPY_TOL:
        raise NotIsotropic(residual)

    norm_bound = float(np.max(norms))
    if norm_bound < 1.0 - NORM_FLOOR_TOL:
        # impossible once isotropy holds; a failure here means corrupted data
        raise InstanceError(f"norm bound {norm_bound!r} below 1")

    weights = weights.copy()
    weights.setflags(write=False)
    mats.setflags(write=False)
    return Instance(d=d, m=m, weights=weights, mats=mats, norm_bound=norm_bound)


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
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
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
    mats = None  # allocated once item 0 has shape (d, d), so a bad 'd' allocates nothing
    for i, item in enumerate(items):
        try:
            weights[i] = _json_number(item["lambda"], f"item {i}: 'lambda'")
            a = np.asarray(item["A"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"item {i} must carry 'lambda' and a numeric matrix 'A'") from exc
        if a.dtype.kind not in "iuf":
            raise FormatError(f"item {i}: 'A' must be a matrix of numbers")
        a = a.astype(np.float64, copy=False)
        if a.shape != (d, d):
            raise DimensionMismatch(f"item {i}: matrix shape {a.shape} != ({d}, {d})")
        # numpy reads a boolean among numbers as 0 or 1; one C-level pass over the entry types
        if not set(map(type, chain.from_iterable(item["A"]))).isdisjoint((bool, np.bool_)):
            raise FormatError(f"item {i}: 'A' must be a matrix of numbers, not booleans")
        if not np.all(np.isfinite(a)):
            raise NonFinite(f"item {i}: matrix entries contain NaN or Inf")
        asym = float(np.max(np.abs(a - a.T)))
        if asym > ASYMMETRY_TOL:
            raise NotSymmetric(i, asym)
        if mats is None:
            mats = np.empty((len(items), d, d))
        mats[i] = _symmetrize(a)

    inst = _certify(weights, mats)
    if stored is not None:
        if stored < inst.norm_bound - 1e-9 * (1.0 + inst.norm_bound):
            raise NormBoundTooSmall(
                f"stored M={stored!r} is below the recomputed bound {inst.norm_bound!r}"
            )
    return inst


def to_payload(inst: Instance) -> dict:
    """JSON-ready dict in the on-disk format (floats round-trip exactly)."""
    return {
        "d": inst.d,
        "M": inst.norm_bound,
        "items": [
            {"lambda": float(w), "A": a.tolist()}
            for w, a in zip(inst.weights, inst.mats)
        ],
    }


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_payload(inst), fh)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
    return validate(raw)


def center(inst: Instance) -> CenteredFamily:
    """Subtract the identity from each family matrix, certifying the result once per instance.

    Certificates (violations should be unreachable for a valid Instance):
    the weighted mean of the X_i vanishes, each ||X_i|| <= M, and the
    weighted sum of squares is dominated by M * Id. They depend only on the
    family, and mats is read-only, so they run on the first call for an
    instance; later calls rebuild the same X_i unchecked. A failed call marks
    nothing, so every later call checks and fails again.
    """
    d, mw = inst.d, inst.weights
    xs = inst.mats - np.eye(d)

    if not inst._centered:
        mean_eigs = _eigvalsh(_symmetrize(np.einsum("i,ijk->jk", mw, xs)))
        mean_norm = float(np.max(np.abs(mean_eigs)))
        if mean_norm > CENTER_MEAN_TOL:
            raise CenteringCertificateFailed("mean-zero", f"(norm {mean_norm:.3e})")

        norms = np.max(np.abs(_eigvalsh(xs)), axis=1)
        worst = float(np.max(norms))
        if worst > inst.norm_bound + CENTER_NORM_TOL:
            raise CenteringCertificateFailed("norm", f"(max {worst!r} > M={inst.norm_bound!r})")

        squares = _symmetrize(np.einsum("i,ijk->jk", mw, xs @ xs))
        cap = SymMatrix(inst.norm_bound * np.eye(d))
        if not loewner_leq(SymMatrix(squares), cap, CENTER_SQUARE_TOL):
            raise CenteringCertificateFailed("square-bound")
        object.__setattr__(inst, "_centered", True)

    xs.setflags(write=False)
    return CenteredFamily(weights=mw, xs=xs, m1=inst.norm_bound, m2=inst.norm_bound)


# --- generators ----------------------------------------------------------------


def _haar_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def gen_bases(d: int, n_bases: int, seed: int) -> Instance:
    """Union of random orthonormal bases, each vector u giving A = d * u u^T.

    Produces m = n_bases * d rank-one matrices with equal weights 1/m and
    norm bound d; deterministic in the seed.
    """
    if d < 1 or n_bases < 1:
        raise DomainError("d and n_bases must be positive")
    rng = _rng(seed)
    m = n_bases * d
    mats = np.empty((m, d, d))
    for b in range(n_bases):
        q = _haar_orthogonal(rng, d)
        for j in range(d):
            u = q[:, j]
            mats[b * d + j] = d * np.outer(u, u)
    weights = np.full(m, 1.0 / m)
    return _certify(weights, mats)


def gen_random_psd(d: int, m: int, rank: int, cond_cap: float, seed: int) -> Instance:
    """Random Gram matrices pushed to isotropic position.

    Draws B_i = G_i G_i^T with G_i of shape (d, rank), averages S, and when
    cond(S) <= cond_cap returns A_i = S^{-1/2} B_i S^{-1/2} with equal
    weights; otherwise redraws with a derived seed, up to 16 attempts.
    """
    if d < 1 or m < 1 or rank < 1:
        raise DomainError("d, m, rank must be positive")
    if m * rank < d:
        raise DomainError(f"m*rank = {m * rank} < d = {d}: average is singular")
    if cond_cap < 1:
        raise DomainError("cond_cap must be >= 1")
    for attempt in range(MAX_TRANSFORM_RETRIES):
        rng = _rng(seed, attempt)
        gs = rng.standard_normal((m, d, rank))
        bs = _symmetrize(gs @ gs.transpose(0, 2, 1))
        s = _symmetrize(np.mean(bs, axis=0))
        vals, vecs = np.linalg.eigh(s)
        if vals[0] <= 0 or vals[-1] / vals[0] > cond_cap:
            continue
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        mats = _symmetrize(inv_sqrt @ bs @ inv_sqrt)
        weights = np.full(m, 1.0 / m)
        return _certify(weights, mats)
    raise IsotropicTransformFailed(
        f"condition cap {cond_cap:g} not met after {MAX_TRANSFORM_RETRIES} attempts"
    )


def gen_graph_edges(edge_list) -> Instance:
    """Isotropic decomposition from a connected weighted graph via leverage scores.

    Works in the (n-1)-dimensional range of the Laplacian: every edge maps to
    a rank-one matrix of norm exactly n-1, weighted by its leverage score
    over n-1. The construction is deterministic.
    """
    edges = [(int(u), int(v), float(w)) for u, v, w in edge_list]
    if not edges:
        raise FormatError("edge list is empty")
    for u, v, w in edges:
        if u < 0 or v < 0:
            raise DomainError(f"vertex ids must be nonnegative, got ({u}, {v})")
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        if w <= 0 or not np.isfinite(w):
            raise DomainError(f"edge ({u}, {v}) has non-positive weight {w!r}")
    n = max(max(u, v) for u, v, _ in edges) + 1
    if n < 2:
        raise DomainError("graph must have at least 2 vertices")

    lap = np.zeros((n, n))
    with np.errstate(over="ignore"):  # an overflow is reported below
        for u, v, w in edges:
            lap[u, u] += w
            lap[v, v] += w
            lap[u, v] -= w
            lap[v, u] -= w
    if not np.all(np.isfinite(lap)):
        raise NonFinite("graph Laplacian overflows: a weighted degree exceeds the float range")
    vals, vecs = np.linalg.eigh(lap)
    if not np.all(np.isfinite(vals)):
        raise NonFinite("graph Laplacian spectrum overflows the float range")
    tol = 1e-9 * max(1.0, float(vals[-1]))
    if vals[1] <= tol:
        raise Disconnected(f"Laplacian rank below {n - 1}")

    basis = vecs[:, 1:]            # orthonormal basis of range(L)
    inv_sqrt_vals = 1.0 / np.sqrt(vals[1:])
    dim = n - 1
    mats = np.empty((len(edges), dim, dim))
    weights = np.empty(len(edges))
    for i, (u, v, w) in enumerate(edges):
        b = np.zeros(n)
        b[u], b[v] = 1.0, -1.0
        vt = inv_sqrt_vals * (basis.T @ b)
        leverage = w * float(vt @ vt)
        weights[i] = leverage / dim
        mats[i] = (dim * w / leverage) * np.outer(vt, vt)
    return _certify(weights, mats)


def random_connected_edges(n: int, n_edges: int, seed: int) -> list[tuple[int, int, float]]:
    """A random connected weighted graph: spanning tree plus distinct extra edges.

    Weights are uniform in [0.5, 2); deterministic in the seed.
    """
    if n < 2:
        raise DomainError("need at least 2 vertices")
    max_edges = n * (n - 1) // 2
    if n_edges < n - 1 or n_edges > max_edges:
        raise DomainError(f"n_edges must lie in [{n - 1}, {max_edges}]")
    rng = _rng(seed)
    pairs = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    seen = set(pairs)
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in seen]
    extra = n_edges - (n - 1)
    if extra:
        idx = rng.permutation(len(spare))[:extra]
        pairs.extend(spare[i] for i in idx)
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
        return parse_edge_lines(fh)
