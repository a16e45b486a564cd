"""Discrete averaging and singular operators on finitely supported data.

A GridFunction is a dense complex array over an integer box, implicitly
zero outside.  The averages M_N and the truncated singular integrals T_N
are one truncation family, and `apply_truncation` is its one dispatch:
without a kernel it applies M_N f(x) = |B_N|^{-1} sum f(x - P(y)), with a
kernel K it applies T_N f(x) = sum_{y != 0} f(x - P(y)) K(y).  Both are
convolutions with the pushforward of the lattice ball under the mapping.

What does not depend on f is built once per (run, N), before a run maps
over its inputs, and read by every input and thread: the
`pushforward_kernel` holds the ball's images and weights, the kernel
grid they histogram into, and the grid's FFT spectra, each built on
first use at the padded shape of an input shape and kept.  A run owns
its kernels; nothing is cached across runs.

Two backends: "direct" accumulates weighted translates of f, one lattice
point at a time in lexicographic order; "fft" multiplies f's transform
by the kernel's spectrum.  Its padded shape takes each axis's linear
size (input plus kernel, minus one) up to the least length whose prime
factors are all <= 7 (`_smooth_length`): at or beyond the linear size
the cyclic product cannot wrap, so it is exactly the linear one, and
the output is cropped to the same box as the direct backend's.  The two
backends agree to roundoff, not bitwise.  `ergodic_truncation`, the
shift-system realization (composed single-axis translations), is an
independent oracle: it performs the identical sequence of float
operations as the direct backend and therefore matches it bitwise.

The module computes outputs only: the ratio ||V_r||_p / ||f||_p across a
family's outputs is `variation.variation_ratios`, shared with the
martingale filtration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError
from .expsum import CZKernelSpec, phase_sum
from .polymap import PolynomialMapping, lattice_points

MEMORY_BUDGET_ELEMENTS = 80_000_000
_KINDS = ("spike", "bump", "rademacher")  # the random ensembles' cycle


@dataclass
class GridFunction:
    """Complex values over an inclusive integer box, zero outside."""

    box: tuple[tuple[int, int], ...]
    values: np.ndarray

    def __post_init__(self):
        self.box = tuple((int(lo), int(hi)) for lo, hi in self.box)
        self.values = np.asarray(self.values, dtype=complex)
        if any(hi < lo for lo, hi in self.box):
            raise ValueError("empty box")
        shape = tuple(hi - lo + 1 for lo, hi in self.box)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} does not "
                             f"match box shape {shape}")

    @property
    def ndim(self) -> int:
        return len(self.box)


def delta_function(ndim: int) -> GridFunction:
    """The unit mass at the origin of Z^ndim."""
    return GridFunction(((0, 0),) * ndim, np.ones((1,) * ndim))


def embed(f: GridFunction, box) -> GridFunction:
    """Copy f into a containing box, zero-filled elsewhere."""
    box = tuple((int(lo), int(hi)) for lo, hi in box)
    for (lo, hi), (flo, fhi) in zip(box, f.box):
        if lo > flo or hi < fhi:
            raise ValueError("target box does not contain the support box")
    shape = tuple(hi - lo + 1 for lo, hi in box)
    _check_elements(math.prod(shape))
    out = np.zeros(shape, dtype=complex)
    sl = tuple(slice(flo - lo, fhi - lo + 1)
               for (lo, _), (flo, fhi) in zip(box, f.box))
    out[sl] = f.values
    return GridFunction(box, out)


def union_box(*fs: GridFunction):
    return tuple((min(f.box[j][0] for f in fs), max(f.box[j][1] for f in fs))
                 for j in range(fs[0].ndim))


def grid_difference(a: GridFunction, b: GridFunction) -> float:
    """sup |a - b| over the union of the two boxes."""
    u = union_box(a, b)
    return float(np.abs(embed(a, u).values - embed(b, u).values).max())


def _check_elements(n: int):
    if n > MEMORY_BUDGET_ELEMENTS:
        raise BudgetError(f"output grid would hold {n} elements "
                          f"(budget {MEMORY_BUDGET_ELEMENTS})", estimate=n)


# -- pushforward kernel --------------------------------------------------------

@dataclass(frozen=True)
class PushforwardKernel:
    """Convolution kernel kappa(z) = total weight of {y in B_N: P(y) = z},
    with the lattice ball it is built from.

    For the average the weight is 1/|B_N| per point; for the singular
    version it is K(y) with the origin removed.  Collisions between
    lattice points accumulate, matching the defining sum.  Row i of
    offsets is the image P(y_i) of the i-th ball point, in
    lexicographic order, less the box's lower corner, and weights[i] is
    its weight: the direct backend and the orbit realization walk them.
    """

    box: tuple[tuple[int, int], ...]
    values: np.ndarray
    offsets: np.ndarray
    weights: np.ndarray
    # padded shape -> read-only spectrum, filled by `spectrum`
    _spectra: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    def spectrum(self, shape) -> np.ndarray:
        """The grid's read-only spectrum at the padded FFT shape of inputs
        of `shape`, built on first use, after the budget check (it and an
        input's transform, which takes the product in place), and kept.
        Threads that build one at once all read the first stored copy."""
        padded = tuple(_smooth_length(fs + ks - 1)
                       for fs, ks in zip(shape, self.values.shape))
        spectrum = self._spectra.get(padded)
        if spectrum is None:
            _check_elements(2 * math.prod(padded))
            spectrum = np.fft.fftn(self.values, s=padded,
                                   axes=tuple(range(len(padded))))
            spectrum.flags.writeable = False
            spectrum = self._spectra.setdefault(padded, spectrum)
        return spectrum

    def multiplier_at(self, xi):
        """Fourier transform sum_z kappa(z) e(z . xi) over the support:
        a complex at one frequency (d,), an (F,) array at a batch (F, d)."""
        support = np.nonzero(self.values)
        origin = np.array([lo for lo, _ in self.box])
        cells = np.stack(support, axis=1) + origin
        return phase_sum(cells, xi, weights=self.values[support])


def _ball_images(P: PolynomialMapping, N: int, kernel: CZKernelSpec | None):
    """Lattice points, their images under P, and per-point weights."""
    pts = lattice_points(P.k, N)
    if kernel is not None:
        pts = pts[np.any(pts != 0, axis=1)]
        weights = np.asarray(kernel.eval_many(pts), dtype=float)
    else:
        weights = np.full(len(pts), 1.0 / len(pts))
    # Object dtype: exact Python-int images, so the memory-budget check
    # sees true extents even when they overflow fixed-width ints.
    return P.eval_many(pts), weights


def pushforward_kernel(P: PolynomialMapping, N: int,
                       kernel: CZKernelSpec | None = None) -> PushforwardKernel:
    """The kernel of M_N (no kernel) or T_N (kernel K) along P, N >= 1."""
    if N < 1:
        raise ValueError("need N >= 1")
    images, weights = _ball_images(P, N, kernel)
    los = images.min(axis=0)
    his = images.max(axis=0)
    shape = tuple(int(h - l + 1) for l, h in zip(los, his))
    _check_elements(math.prod(shape))
    offsets = (images - los).astype(np.intp)
    vals = np.zeros(shape)
    np.add.at(vals, tuple(offsets.T), weights)
    return PushforwardKernel(tuple((int(l), int(h))
                                   for l, h in zip(los, his)),
                             vals, offsets, weights)


def _smooth_length(n: int) -> int:
    """The least length >= n whose prime factors are all <= 7.

    pocketfft runs such lengths by radix passes; a length with a larger
    prime factor, such as a prime linear size, takes Bluestein's
    algorithm, several times slower.
    """
    while True:
        rest = n
        for p in (2, 3, 5, 7):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


# -- the two backends ----------------------------------------------------------

def _output_grid(f: GridFunction, ker: PushforwardKernel):
    """The box of f translated by every image of the kernel's ball, and
    its zero grid."""
    out_box = tuple((flo + klo, fhi + khi)
                    for (flo, fhi), (klo, khi) in zip(f.box, ker.box))
    shape = tuple(hi - lo + 1 for lo, hi in out_box)
    _check_elements(math.prod(shape))
    return out_box, np.zeros(shape, dtype=complex)


def _accumulate_translates(f: GridFunction,
                           ker: PushforwardKernel) -> GridFunction:
    """out += w_i * (f translated by image i), in the ball's order."""
    out_box, out = _output_grid(f, ker)
    f_shape = f.values.shape
    for at, w in zip(ker.offsets.tolist(), ker.weights):
        out[tuple(slice(a, a + s) for a, s in zip(at, f_shape))] += \
            w * f.values
    return GridFunction(out_box, out)


def _convolve_fft(f: GridFunction, ker: PushforwardKernel) -> GridFunction:
    """The linear convolution of f with the kernel, taken cyclically at
    the padded shape of f's shape, which is at least the linear size on
    every axis, so nothing wraps; the linear part is cropped out."""
    out_box = tuple((flo + klo, fhi + khi)
                    for (flo, fhi), (klo, khi) in zip(f.box, ker.box))
    axes = tuple(range(f.ndim))
    spectrum = ker.spectrum(f.values.shape)
    F = np.fft.fftn(f.values, s=spectrum.shape, axes=axes)
    F *= spectrum
    out = np.fft.ifftn(F, axes=axes, out=F)
    return GridFunction(out_box, out[tuple(slice(0, hi - lo + 1)
                                           for lo, hi in out_box)])


def apply_truncation(f: GridFunction, ker: PushforwardKernel,
                     backend: str = "direct") -> GridFunction:
    """One member of the truncation family, as its kernel was built.

    Without a kernel, M_N f(x) = |B_N|^{-1} sum_{y in B_N} f(x - P(y));
    with one, T_N f(x) = sum_{y in B_N, y != 0} f(x - P(y)) K(y).
    """
    if backend == "direct":
        return _accumulate_translates(f, ker)
    if backend == "fft":
        return _convolve_fft(f, ker)
    raise ValueError(f"unknown backend {backend!r}")


# -- shift-system realization ----------------------------------------------------

def _shift_axis(f: GridFunction, axis: int, amount: int) -> GridFunction:
    """One commuting coordinate shift S_axis^amount (box relabeling)."""
    new_box = tuple((lo + amount, hi + amount) if j == axis else (lo, hi)
                    for j, (lo, hi) in enumerate(f.box))
    return GridFunction(new_box, f.values)


def ergodic_truncation(f: GridFunction,
                       ker: PushforwardKernel) -> GridFunction:
    """The truncation family on the shift system X = Z^d.

    With commuting coordinate shifts S_j, the orbit sum
    sum_{y in B_N} w(y) f(S_1^{P_1(y)} ... S_d^{P_d(y)} x), with the
    weights of `apply_truncation` (1/|B_N|, or K(y) off the origin), is
    the lattice operator itself; built literally from composed shifts.
    It walks the ball in the direct backend's order and performs the
    same multiply-and-add per point, so the output is bitwise equal to
    it; the translate is realized by composing single-axis shifts
    rather than by index arithmetic.
    """
    out_box, out = _output_grid(f, ker)
    for at, w in zip(ker.offsets.tolist(), ker.weights):
        shifted = f
        for axis, ((lo, _), a) in enumerate(zip(ker.box, at)):
            shifted = _shift_axis(shifted, axis, lo + a)
        sl = tuple(slice(blo - olo, blo - olo + (bhi - blo + 1))
                   for (blo, bhi), (olo, _) in zip(shifted.box, out_box))
        out[sl] += w * shifted.values
    return GridFunction(out_box, out)


# -- random ensembles ------------------------------------------------------------

def random_arrays(size: int, seed: int, axis, ndim: int,
                  centers: tuple[float, float],
                  widths: tuple[float, float]):
    """`size` complex arrays on the grid axis^ndim, cycling through
    `_KINDS`.

    spike: 1 at a uniformly drawn grid point.  bump: exp(-|x - c|^2 / 2w^2)
    with every coordinate of c uniform on `centers` and w uniform on
    `widths`.  rademacher: independent signs.  One generator seeded with
    `seed` draws in this order, so the seed fixes every array.
    """
    rng = np.random.default_rng(seed)
    axis = np.asarray(axis)
    shape = (axis.size,) * ndim
    grid = np.stack(np.meshgrid(*[axis] * ndim, indexing="ij"), axis=-1)
    for i in range(size):
        kind = _KINDS[i % len(_KINDS)]
        if kind == "spike":
            vals = np.zeros(shape, dtype=complex)
            at = tuple(int(rng.integers(0, axis.size)) for _ in shape)
            vals[at] = 1.0
        elif kind == "bump":
            center = rng.uniform(*centers, size=ndim)
            width = rng.uniform(*widths)
            d2 = ((grid - center) ** 2).sum(axis=-1)
            vals = np.exp(-d2 / (2 * width ** 2)).astype(complex)
        else:  # rademacher
            vals = rng.choice([-1.0, 1.0], size=shape).astype(complex)
        yield vals


def ensemble(ndim: int, halfwidth: int, size: int, seed: int):
    """`size` random test inputs on the centered box [-halfwidth,
    halfwidth]^ndim, cycling through delta spikes, Gaussian-profile bumps,
    and Rademacher sign fields."""
    hw = halfwidth
    box = ((-hw, hw),) * ndim
    for vals in random_arrays(size, seed, np.arange(-hw, hw + 1), ndim,
                              (-hw / 2, hw / 2), (1.0, max(2.0, hw / 3))):
        yield GridFunction(box, vals)
