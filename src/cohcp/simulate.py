"""Physical forward models generating tensors with known ground truth.

Structured antenna arrays (reference subarray plus translations),
polarization diversity, synchronous CDMA, and fluorescence spectroscopy.
Each simulator returns the observation tensor together with the canonical
CP model it was built from, so recovery can be verified end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (_owned, canonicalize, check_count, column_norms, cp_evaluate,
                   finite_tensor, gram_mu, vector_norm)

POSITION_TOL = 1e-9


@dataclass(frozen=True)
class ArrayScene:
    """Structured sensor array: reference sensors b_i plus translations
    Delta_j (Delta_1 = 0 so the reference subarray is subarray 1), with
    wave pulsation (rad/s) and celerity (m/s)."""

    b: np.ndarray           # (n1, 3) sensor positions, meters
    delta: np.ndarray       # (n2, 3) subarray translations, meters
    pulsation: float        # omega_wave
    celerity: float
    # grid size -> direction-grid cells of doa_estimate (_doa_cells), for the
    # latest grid size only; valid because b is a read-only copy
    _doa_grids: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        b = np.atleast_2d(_owned(self.b, np.float64))
        delta = np.atleast_2d(_owned(self.delta, np.float64))
        if b.ndim != 2 or b.shape[1] != 3 or b.shape[0] < 1:
            raise ValueError("b must be an (n1, 3) array of positions")
        if delta.ndim != 2 or delta.shape[1] != 3 or delta.shape[0] < 1:
            raise ValueError("delta must be an (n2, 3) array of translations")
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(delta))):
            raise ValueError("positions must be finite")
        if np.linalg.norm(delta[0]) > POSITION_TOL:
            raise ValueError("the first translation must be zero (reference subarray)")
        if not (0.0 < self.pulsation < math.inf and 0.0 < self.celerity < math.inf):
            raise ValueError("pulsation and celerity must be positive and finite")
        if not (0.0 < self.wavelength < math.inf and 0.0 < self.wavenumber < math.inf):
            raise ValueError("pulsation and celerity must give a positive, finite wavelength"
                             f" and wavenumber, got {self.wavelength} and {self.wavenumber}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "delta", delta)

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi * self.celerity / self.pulsation

    @property
    def wavenumber(self) -> float:
        return self.pulsation / self.celerity


def _unit_directions(directions) -> np.ndarray:
    """Directions as an (r, 3) float array of unit rows."""
    d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if d.shape[1] != 3:
        raise ValueError("directions must be (r, 3)")
    if not (np.abs(column_norms(d.T) - 1.0) <= 1e-9).all():  # NaN fails too
        raise ValueError("directions must be unit vectors")
    return d


@dataclass(frozen=True)
class PathSet:
    """Propagation paths: unit directions (r, 3) and per-path signal time
    series as columns of an (n3, r) matrix."""

    directions: np.ndarray
    signals: np.ndarray

    def __post_init__(self):
        d = _unit_directions(self.directions)
        if d.shape[0] < 1:
            raise ValueError("directions must be (r, 3)")
        s = finite_tensor(self.signals, "PathSet signals")
        if s.ndim != 2 or s.shape[1] != d.shape[0]:
            raise ValueError("signals must be (n3, r), one column per path")
        object.__setattr__(self, "directions", _owned(d, np.float64))
        object.__setattr__(self, "signals", _owned(s, np.complex128))

    @property
    def r(self) -> int:
        return self.directions.shape[0]


def steering_vectors(scene: ArrayScene, directions) -> tuple:
    """Unit-norm steering columns for reference sensors and translations.

    u_p(i) = exp(j (omega/C) b_i . d_p) / sqrt(n1),
    v_p(j) = exp(j (omega/C) Delta_j . d_p) / sqrt(n2).
    """
    d = _unit_directions(directions)
    k = scene.wavenumber
    return _steering(scene.b @ d.T, k), _steering(scene.delta @ d.T, k)


def _steering(phases: np.ndarray, k: float) -> np.ndarray:
    """exp(j k x) / sqrt(n) of the (..., n, r) products x = points_i . d_p:
    one unit column per direction."""
    return np.exp(1j * k * phases) / math.sqrt(phases.shape[-2])


def _observe(truth, noise_std: float, seed: int) -> np.ndarray:
    """The evaluated truth plus circular complex Gaussian noise of per-entry
    std ``noise_std`` drawn from ``seed``; a negative or non-finite
    ``noise_std`` or a seed that is not a whole number >= 0 raises
    ``ValueError``."""
    seed = check_count(seed, 0, f"seed must be >= 0, got {seed}")
    if not 0.0 <= noise_std < math.inf:
        raise ValueError(f"noise_std must be finite and >= 0, got {noise_std}")
    clean = cp_evaluate(truth)
    noise = np.zeros(clean.shape, dtype=np.complex128)
    if noise_std != 0.0:
        rng = np.random.default_rng(seed)
        scale = noise_std / math.sqrt(2.0)
        noise = (rng.normal(scale=scale, size=clean.shape)
                 + 1j * rng.normal(scale=scale, size=clean.shape))
    return clean + noise


def simulate_array(scene: ArrayScene, paths: PathSet, noise_std: float = 0.0,
                   seed: int = 0):
    """Narrow-band far-field observation tensor of shape (n1, n2, n3).

    s_{i,j}(k) = sum_p sigma_p(t_k) exp(j (omega/C)(b_i + Delta_j) . d_p)
    plus circular complex Gaussian noise of the given per-entry std.

    Returns (tensor, truth) where truth is the canonical CP model of the
    noiseless tensor: unit steering and signal columns, so the weights are
    sqrt(n1 n2) ||sigma_p||.
    """
    u, v = steering_vectors(scene, paths.directions)
    signorms = column_norms(paths.signals)
    if (signorms == 0).any():
        raise ValueError("every path needs a nonzero signal")
    w = paths.signals / signorms
    n1, n2 = scene.b.shape[0], scene.delta.shape[0]
    lam = signorms * math.sqrt(n1 * n2)
    truth = canonicalize(lam.astype(np.complex128), [u, v, w])
    return _observe(truth, noise_std, seed), truth


def _differences(points, wavelength: float) -> np.ndarray:
    """(n, n, 3) pairwise differences b_k - b_l of finite (n, 3) points,
    refusing malformed points and a wavelength that is not finite and
    positive."""
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be an (n, 3) array of positions")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts[:, None, :] - pts[None, :, :]


def is_resolvent(points, v, wavelength: float) -> bool:
    """True iff some pairwise difference b_k - b_l equals v and
    0 < ||v|| < wavelength / 2 (both inequalities strict).  Malformed or
    non-finite points, v or wavelength raise ``ValueError``."""
    diffs = _differences(points, wavelength)
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ValueError("v must be a finite 3-vector")
    nv = np.linalg.norm(v)
    if not (0.0 < nv < wavelength / 2.0):
        return False
    return bool(np.any(np.linalg.norm(diffs - v, axis=2) <= POSITION_TOL))


def resolvent_directions(points, wavelength: float) -> np.ndarray:
    """All pairwise differences qualifying as resolvent directions."""
    diffs = _differences(points, wavelength).reshape(-1, 3)
    lens = column_norms(diffs.T)
    mask = (lens > POSITION_TOL) & (lens < wavelength / 2.0)
    return diffs[mask]


def has_resolvent_triad(points, wavelength: float) -> bool:
    """True iff the points are resolvent w.r.t. three linearly independent
    directions (which makes steering-vector collinearity equivalent to
    direction equality)."""
    dirs = resolvent_directions(points, wavelength)
    if dirs.shape[0] < 3:
        return False
    return bool(np.linalg.matrix_rank(dirs, tol=1e-9) == 3)


@dataclass(frozen=True)
class CollinearityResult:
    value: float
    separation_guaranteed: bool


def collinearity_check(scene: ArrayScene, d_p, d_q) -> CollinearityResult:
    """|<u_p, u_q>| of the reference-subarray steering vectors.

    When the sensor set is resolvent w.r.t. three independent directions,
    the value is 1 exactly when d_p = d_q; otherwise the result carries no
    separation guarantee and is flagged accordingly.
    """
    u, _ = steering_vectors(scene, np.stack([np.asarray(d_p, dtype=np.float64),
                                             np.asarray(d_q, dtype=np.float64)]))
    value = float(abs(np.vdot(u[:, 1], u[:, 0])))
    return CollinearityResult(
        value=value,
        separation_guaranteed=has_resolvent_triad(scene.b, scene.wavelength),
    )


def direction_triad(theta: float, phi: float) -> tuple:
    """Right orthonormal triad (d, e, f) for azimuth theta, elevation phi."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise ValueError(f"angles theta and phi must be finite, got {theta} and {phi}")
    d = np.array([math.cos(theta) * math.cos(phi),
                  math.sin(theta) * math.cos(phi),
                  math.sin(phi)])
    e = np.array([-math.sin(theta), math.cos(theta), 0.0])
    f = np.array([-math.cos(theta) * math.sin(phi),
                  -math.sin(theta) * math.sin(phi),
                  math.cos(phi)])
    return d, e, f


def polarization_gain(alpha: float, beta: float) -> np.ndarray:
    """g = Q(alpha) (cos beta, j sin beta): orientation/ellipticity gain."""
    if not math.isfinite(alpha):
        raise ValueError("orientation angle alpha must be finite")
    if beta == 0.0:
        raise ValueError("ellipticity beta = 0 rejected: polarization must be "
                         "neither linear nor circular")
    if not (-math.pi / 4 < beta < math.pi / 4):
        raise ValueError("ellipticity beta must lie in (-pi/4, 0) or (0, pi/4)")
    q = np.array([[math.cos(alpha), math.sin(alpha)],
                  [-math.sin(alpha), math.cos(alpha)]])
    h = np.array([math.cos(beta), 1j * math.sin(beta)])
    return q @ h


def polarization_vector(theta: float, phi: float, alpha: float,
                        beta: float) -> np.ndarray:
    """Unit six-component electromagnetic response v = B g.

    B = (1/sqrt 2) [[e, f], [f, -e]] built from the direction triad;
    g carries orientation alpha and ellipticity beta.
    """
    _, e, f = direction_triad(theta, phi)
    b = np.zeros((6, 2))
    b[:3, 0], b[:3, 1] = e, f
    b[3:, 0], b[3:, 1] = f, -e
    b /= math.sqrt(2.0)
    return b @ polarization_gain(alpha, beta)


@dataclass(frozen=True)
class CdmaScene:
    """Synchronous CDMA mixing data: antenna gains (m, r), transmitted
    symbols (n_sym, r), effective codes (n_chip, r).  A non-finite entry
    raises ``ValueError`` naming the field and the entry's index."""

    gains: np.ndarray
    symbols: np.ndarray
    codes: np.ndarray

    def __post_init__(self):
        a, s, b = (finite_tensor(getattr(self, name), f"CdmaScene {name}")
                   for name in ("gains", "symbols", "codes"))
        if a.ndim != 2 or s.ndim != 2 or b.ndim != 2:
            raise ValueError("gains, symbols, codes must be matrices")
        if not (a.shape[1] == s.shape[1] == b.shape[1]):
            raise ValueError("gains, symbols, codes need one column per user")
        object.__setattr__(self, "gains", _owned(a, np.complex128))
        object.__setattr__(self, "symbols", _owned(s, np.complex128))
        object.__setattr__(self, "codes", _owned(b, np.complex128))


def effective_codes(spreading, impulse) -> np.ndarray:
    """Effective code columns B_kp = sum_t H_p(k - t) C_p(t).

    Plain full convolution of each spreading sequence with its channel
    impulse response; guard-chip handling is out of scope.
    """
    c = finite_tensor(spreading, "effective_codes spreading")
    h = finite_tensor(impulse, "effective_codes impulse")
    if c.ndim != 2 or h.ndim != 2 or c.shape[1] != h.shape[1]:
        raise ValueError("spreading and impulse need one column per user")
    r = c.shape[1]
    out = np.stack([np.convolve(h[:, p], c[:, p]) for p in range(r)], axis=1)
    return out


def _planted(mats: list, refusal: str) -> tuple:
    """(cols, truth): the unit complex128 columns of the factor matrices and
    the canonical model whose weights are the products of the column norms;
    a zero column raises ``ValueError(refusal)``."""
    norms = [np.linalg.norm(m, axis=0) for m in mats]
    lam = math.prod(norms)
    if np.any(lam == 0):
        raise ValueError(refusal)
    cols = [(m / n).astype(np.complex128) for m, n in zip(mats, norms)]
    return cols, canonicalize(lam.astype(np.complex128), cols)


def simulate_cdma(scene: CdmaScene, noise_std: float = 0.0, seed: int = 0):
    """Received CDMA tensor T_{ijk} = sum_p A_ip S_jp B_kp + noise.

    Returns (tensor, truth) with the canonical ground-truth model.
    """
    _, truth = _planted([scene.gains, scene.symbols, scene.codes],
                        "every user needs nonzero gains, symbols, and codes")
    return _observe(truth, noise_std, seed), truth


def simulate_fluorescence(concentrations, excitation, emission,
                          noise_std: float = 0.0, seed: int = 0):
    """Fluorescence data tensor sum_p x_p (x) y_p (x) z_p + noise.

    All inputs must be finite and nonnegative (concentrations and spectral
    intensities); a non-finite entry is named by input and index.  Returns
    (tensor, truth, likeness) where likeness maps each mode coherence to its
    reading: concentration likeness of the substances across samples,
    absorbance (excitation) likeness, and fluorescence (emission) likeness.
    """
    x = np.asarray(concentrations, dtype=np.float64)
    y = np.asarray(excitation, dtype=np.float64)
    z = np.asarray(emission, dtype=np.float64)
    for name, m in (("concentrations", x), ("excitation", y), ("emission", z)):
        if m.ndim != 2:
            raise ValueError(f"{name} must be a matrix with one column per substance")
        finite_tensor(m, f"simulate_fluorescence {name}")
        if np.any(m < 0):
            raise ValueError(f"{name} must be nonnegative")
    if not (x.shape[1] == y.shape[1] == z.shape[1]):
        raise ValueError("need one column per substance in every mode")
    cols, truth = _planted([x, y, z], "every substance needs nonzero columns in all modes")
    likeness = {name: gram_mu(c.conj().T @ c) for name, c in zip(
        ("concentration_likeness", "absorbance_likeness", "fluorescence_likeness"), cols)}
    return _observe(truth, noise_std, seed), truth, likeness


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic near-uniform unit direction grid (count, 3)."""
    count = check_count(count, 1, f"count must be >= 1, got {count!r}")
    return _sphere_points(count, np.arange(count))


def _sphere_points(count: int, i: np.ndarray) -> np.ndarray:
    """Rows ``i`` of ``fibonacci_sphere(count)``, from their indices alone."""
    z = 1.0 - (2.0 * i + 1.0) / count
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = math.pi * (3.0 - math.sqrt(5.0))
    ang = golden * i
    return np.stack([rho * np.cos(ang), rho * np.sin(ang), z], axis=1)


DOA_GRID_CAP = 1_000_000  # direction-grid points, about 0.2 degrees
DOA_BLOCK = 1024  # grid points per block of the grid build and scoring
DOA_CELL_BOUND = 0.15  # score bound (lip times side) of a direction-grid cell


def _blocks(count: int):
    """(start, stop) of the ``DOA_BLOCK``-point blocks of a grid of
    ``count`` points.  A one-point remainder joins the block before it: a
    one-row matrix product runs through gemv, whose bits differ from gemm's."""
    starts = list(range(0, count - 1, DOA_BLOCK))
    return zip(starts, starts[1:] + [count])


def _grid_size_for_resolution(resolution_deg: float) -> int:
    """Points of the direction grid at ``resolution_deg``; a non-finite or
    non-positive resolution, or one finer than ``DOA_GRID_CAP`` points
    allow, raises ``ValueError`` before anything is allocated."""
    if not 0.0 < resolution_deg < math.inf:
        raise ValueError(f"grid_resolution_deg must be finite and > 0, got {resolution_deg}")
    # mean spacing of N Fibonacci points is ~ sqrt(4 pi / N) radians; s * s
    # underflows to 0 below about 1e-152 degrees
    s = math.radians(resolution_deg)
    points = 4.0 * math.pi / (s * s) if s * s > 0.0 else math.inf
    if points > DOA_GRID_CAP:
        raise ValueError(f"grid_resolution_deg {resolution_deg} needs more than "
                         f"the {DOA_GRID_CAP} grid points doa_estimate allows")
    return max(int(math.ceil(points)), 16)


@dataclass
class DoaEstimate:
    direction: np.ndarray
    score: float
    ambiguous: bool = False
    alternates: list = field(default_factory=list)
    separation_guaranteed: bool = True


def _tangent_basis(d: np.ndarray) -> tuple:
    """Unit t1 = d x e_i, e_i on the smallest |d_i|, and t2 = d x t1: the
    products and differences of ``np.cross``, in Python floats."""
    x, y, z = d.tolist()
    mags = [abs(x), abs(y), abs(z)]
    i = mags.index(min(mags))  # the first smallest, as np.argmin
    a0, a1, a2 = (float(j == i) for j in range(3))
    t1 = np.array([y * a2 - z * a1, z * a0 - x * a2, x * a1 - y * a0])
    t1 /= vector_norm(t1)
    p, q, s = t1.tolist()
    return t1, np.array([y * s - z * q, z * p - x * s, x * q - y * p])


REFINE_STEPS = 20      # local-ascent steps of each direction estimate
AMBIGUITY_TOL = 1e-6   # grid score gap within which a rival maximum is reported


def _refine_directions(scene: ArrayScene, cols: np.ndarray, starts: np.ndarray,
                       step0: float) -> list:
    """Local ascent of |<u(d), cols[:, p]>| from starts[p], as [(d, score)].

    Each of ``REFINE_STEPS`` steps tries d + step (t1, -t1, t2, -t2) in
    order, moving d to every candidate that scores higher; a step that
    moves nothing halves the step.  Every column keeps that sequential
    order; a round scores the candidates of all columns from their current
    d at once, and a column that moved re-scores its untried candidates in
    the next round.  The batched forms give the bits of one
    ``abs(np.vdot(u(cand), u_col))``: stacked gemv phases, ``u`` as a view
    with the strides of ``cols[:, p]`` (zdotc has one kernel for unit and
    one for other strides) and ``np.hypot`` magnitudes.
    """
    k, u, m = scene.wavenumber, cols.T[:, None, :], cols.shape[1]

    def score(c):  # (m, j, 3) unit candidates -> (m, j) scores
        v = np.vecdot(_steering(scene.b @ c[..., None], k)[..., 0], u)
        return np.hypot(v.real, v.imag).tolist()

    d = starts / np.sqrt(np.vecdot(starts, starts))[:, None]
    best = [row[0] for row in score(d[:, None, :])]
    tangents = np.empty((m, 4, 3))
    step, left = [step0] * m, [REFINE_STEPS] * m
    nxt, moved = [0] * m, [True] * m  # moved: d changed since its tangents were taken
    while any(left):
        for p in range(m):
            if moved[p] and left[p] and not nxt[p]:  # a step starts at a new d
                t1, t2 = _tangent_basis(d[p])
                tangents[p] = t1, -t1, t2, -t2
                moved[p] = False
        c = d[:, None, :] + np.array(step)[:, None, None] * tangents
        c /= np.sqrt(np.vecdot(c, c))[..., None]
        scores = score(c)
        for p in range(m):
            if not left[p]:
                continue
            i = next((i for i in range(nxt[p], 4) if scores[p][i] > best[p]), 4)
            if i < 4:
                best[p], d[p], moved[p] = scores[p][i], c[p, i], True
            nxt[p] = i + 1
            if nxt[p] >= 4:  # the step is over
                if not moved[p]:
                    step[p] *= 0.5
                left[p], nxt[p] = left[p] - 1, 0
    return [(d[p].copy(), best[p]) for p in range(m)]


def _doa_cells(scene: ArrayScene, count: int) -> tuple:
    """(cell_of, steer, slack): the cells of the ``count``-point grid.

    |u(d)^H c| of a unit column c moves by at most lip |d - d'|, lip =
    k sqrt(lambda_max) of the covariance of the sensor positions (a common
    phase cancels in the magnitude).  Each grid point gets the int32 id of
    its theta-band x phi-bin box, of angular side ``DOA_CELL_BOUND / lip``
    but never below the grid spacing; empty boxes are dropped.  ``steer``
    (n1, M) holds the conjugated steering of each cell's centroid (the
    bound holds anywhere in space), and ``slack`` bounds how far a member
    can score above its centre: lip times the largest member-to-centre
    distance, with room for rounding."""
    k, b, bt = scene.wavenumber, scene.b, scene.b.T
    centred = b - b.mean(axis=0)
    lip = k * math.sqrt(max(np.linalg.eigvalsh(centred.T @ centred / b.shape[0])[-1], 0.0))
    side = max(DOA_CELL_BOUND / lip if lip > 0.0 else math.inf,
               math.sqrt(4.0 * math.pi / count))
    bands = max(2, math.ceil(math.pi / side))  # two at least, so two cells or more
    bins = np.maximum(np.ceil(2.0 * math.pi / side
                              * np.sin((np.arange(bands) + 0.5) * math.pi / bands)),
                      1.0).astype(np.int64)
    first = np.cumsum(bins) - bins
    box = np.empty(count, np.int32)
    centres = np.zeros((int(bins.sum()), 3))  # sums of each box's points
    for s, e in _blocks(count):
        pts = _sphere_points(count, np.arange(s, e))
        band = np.minimum((np.arccos(pts[:, 2]) * (bands / math.pi)).astype(np.int64),
                          bands - 1)
        phi = np.arctan2(pts[:, 1], pts[:, 0]) % (2.0 * math.pi)
        box[s:e] = first[band] + np.minimum((phi * (bins[band] / (2.0 * math.pi)))
                                            .astype(np.int64), bins[band] - 1)
        np.add.at(centres, box[s:e], pts)
    counts = np.bincount(box, minlength=centres.shape[0])
    used = counts > 0
    cell_of = (np.cumsum(used, dtype=np.int32) - 1)[box]
    del box
    centres = centres[used] / counts[used, None]
    cells = centres.shape[0]
    radius = np.zeros(cells)
    for s, e in _blocks(count):
        gap = _sphere_points(count, np.arange(s, e)) - centres[cell_of[s:e]]
        np.maximum.at(radius, cell_of[s:e], np.sqrt(np.vecdot(gap, gap)))
    slack = lip * radius * (1.0 + 1e-9) + 1e-9  # and room for rounding
    steer = np.empty((b.shape[0], cells), dtype=np.complex128)
    for s, e in _blocks(cells):
        np.conjugate(_steering((centres[s:e] @ bt).T, k), out=steer[:, s:e])
    for a in (cell_of, steer, slack):
        a.setflags(write=False)
    return cell_of, steer, slack


def _doa_grid(scene: ArrayScene, grid_resolution_deg: float) -> tuple:
    """The ``_doa_cells`` of the grid at ``grid_resolution_deg``, kept on
    the scene for the latest grid size only.

    They take 4 N + (16 n1 + 8) M bytes for N grid points in M cells: 1.7 MB
    for 17 sensors at 1 degree (N = 41,253, M = 5,496).  The build computes
    the grid points one block of ``_blocks`` at a time, twice, and holds no
    grid."""
    count = _grid_size_for_resolution(grid_resolution_deg)
    cells = scene._doa_grids.get(count)
    if cells is None:
        scene._doa_grids.clear()  # before the build, so the two never coexist
        cells = scene._doa_grids[count] = _doa_cells(scene, count)
    return cells


def _grid_scores(scene: ArrayScene, count: int, idx: np.ndarray,
                 cols: np.ndarray) -> np.ndarray:
    """(idx.size, r) scores |u(d_i)^H cols[:, p]| of the points ``idx``
    (sorted) of the ``count``-point grid, with the bits of the whole-grid product
    ``abs(conj(U).T @ cols)`` at 1, 2 and 4 BLAS threads if U's phases are
    the rows of ``grid @ b.T`` (``b @ grid.T`` has other bits).  Each
    ``_blocks`` row block of ``idx`` takes its phases as rows of ``points @
    b.T`` and its scores as rows of ``conj(u).T @ cols``: gathered row sets
    of two or more keep the bits of those products.  A single point, or a
    single column, is scored as a pair: a product of one row or one column
    runs through gemv, whose bits differ from gemm's and, for one column,
    depend on the row's place in the product."""
    pair = np.repeat(idx, 2) if idx.size == 1 else idx
    wide = np.repeat(cols, 2, axis=1) if cols.shape[1] == 1 else cols
    out = np.empty((pair.size, wide.shape[1]))
    for s, e in _blocks(pair.size):
        steer = _steering((_sphere_points(count, pair[s:e]) @ scene.b.T).T, scene.wavenumber)
        out[s:e] = np.abs(np.conjugate(steer, out=steer).T @ wide)
    return out[:idx.size, :cols.shape[1]]


def _grid_search(scene: ArrayScene, cols: np.ndarray, grid_resolution_deg: float) -> tuple:
    """(count, best, near, near_sc) of unit columns ``cols``: the grid size,
    each column's first best grid index, and the indices (ascending) and
    scores of its grid points within ``AMBIGUITY_TOL`` of its best score,
    all as an exhaustive scan of the grid would give them, bit for bit.

    The cell centres are scored first, then the members of each column's
    top cell: the best of those scores less ``AMBIGUITY_TOL``, a floor, is
    at most the column's best grid score less the tolerance.  A member of
    a cell whose centre score plus slack is below the floor for every
    column scores below it too, so it is neither a maximum nor a near tie
    and is not scored; the members of the other cells are.  Every product
    is one ``_blocks`` row block, of two rows or more."""
    cell_of, steer, slack = _doa_grid(scene, grid_resolution_deg)
    count = cell_of.size
    if not cols.shape[1]:
        return count, [], [], []
    bound = np.empty((steer.shape[1], cols.shape[1]))
    for s, e in _blocks(steer.shape[1]):
        bound[s:e] = np.abs(steer.T[s:e] @ cols)
    top = np.zeros(steer.shape[1], bool)
    top[bound.argmax(axis=0)] = True
    # scores of grid points, so no column's floor exceeds its best - tol
    floor = _grid_scores(scene, count, np.flatnonzero(top[cell_of]), cols).max(axis=0) \
        - AMBIGUITY_TOL
    bound += slack[:, None]
    idx = np.flatnonzero((bound >= floor).any(axis=1)[cell_of])
    sc = _grid_scores(scene, count, idx, cols)
    best = sc.argmax(axis=0)  # the first on ties, as idx ascends
    near = [sc[:, p] >= sc[i, p] - AMBIGUITY_TOL for p, i in enumerate(best.tolist())]
    return count, idx[best], [idx[m] for m in near], [sc[m, p] for p, m in enumerate(near)]


def doa_estimate(u_est: np.ndarray, scene: ArrayScene,
                 grid_resolution_deg: float = 1.0):
    """Direction-of-arrival estimates for estimated steering columns.

    Grid search over a Fibonacci-sphere direction grid at the requested
    resolution maximizing |<u(d), u_est_p>|, followed by deterministic
    local ascent.  If a second, well-separated grid maximum scores within
    ``AMBIGUITY_TOL`` of the best one, both are refined and reported with
    the ``ambiguous`` flag set (mirror-symmetric arrays do this).
    Estimates carry no separation guarantee (flagged) when the scene lacks
    a resolvent triad.  The grid search (``_grid_search``) scores only the
    grid points that can reach a column's near ties, with the bits of an
    exhaustive scan; the grid's cells are kept on the scene for the latest
    resolution asked (see ``_doa_grid`` for their size), and grid points
    are computed from their indices for the scored cells, the maxima and
    their near ties.
    A steering estimate that is not a vector or a matrix, or that has a
    zero or non-finite column, or one whose squared norm overflows or
    underflows (the search needs unit columns), raises ``ValueError``, and
    so does a ``grid_resolution_deg`` that is not finite and positive or
    that needs more than ``DOA_GRID_CAP`` grid points.
    """
    u_est = np.asarray(u_est, dtype=np.complex128)
    if u_est.ndim not in (1, 2):
        raise ValueError(f"steering estimates must be a vector or a matrix, "
                         f"got shape {u_est.shape}")
    if u_est.ndim == 1:
        u_est = u_est[:, None]
    if u_est.shape[0] != scene.b.shape[0]:
        raise ValueError("steering estimates do not match the sensor count")
    with np.errstate(over="ignore", invalid="ignore"):  # refused by name below
        nrm = column_norms(u_est)
    finite = np.isfinite(u_est).all(axis=0)
    for p in range(u_est.shape[1]):
        if not finite[p]:
            raise ValueError(f"steering column {p} has a non-finite entry")
        if not u_est[:, p].any():
            raise ValueError(f"steering column {p} has zero norm")
        if not 2.0 ** -511 <= nrm[p] < math.inf:  # the square is a normal double
            how = "overflows" if nrm[p] == math.inf else "underflows"
            raise ValueError(f"steering column {p} has a squared norm that {how}; "
                             "rescale it")
    guaranteed = has_resolvent_triad(scene.b, scene.wavelength)
    cols = u_est / nrm
    count, best_i, near, near_sc = _grid_search(scene, cols, grid_resolution_deg)
    r = cols.shape[1]
    # one lookup: the best point of each column, then each column's near ties
    starts, *near_pts = np.split(_sphere_points(count, np.concatenate([best_i, *near])),
                                 np.cumsum([r, *(n.size for n in near[:-1])]))
    sep = 3.0 * math.radians(grid_resolution_deg)
    step0 = math.radians(grid_resolution_deg)
    refined = _refine_directions(scene, cols, starts, step0)
    out = []
    for p, ((d_best, s_best), pts, sc) in enumerate(zip(refined, near_pts, near_sc)):
        # rivals among the near ties only, which are few
        angles = np.arccos(np.clip(pts @ starts[p], -1.0, 1.0))
        rivals = np.flatnonzero(angles > sep)
        alternates = []
        if rivals.size:
            j = rivals[int(sc[rivals].argmax())]
            # the view keeps column p's stride, and with it the zdotc kernel
            [(d_alt, s_alt)] = _refine_directions(scene, cols[:, p:p + 1], pts[j:j + 1],
                                                  step0)
            alternates.append(DoaEstimate(direction=d_alt, score=s_alt,
                                          separation_guaranteed=guaranteed))
        out.append(DoaEstimate(direction=d_best, score=s_best,
                               ambiguous=bool(alternates),
                               alternates=alternates,
                               separation_guaranteed=guaranteed))
    return out
