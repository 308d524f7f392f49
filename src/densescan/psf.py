"""Synthesis of compact-support illumination spots and wide-field PSFs.

A spot image is the illumination spot's intensity distribution sampled on
the sample grid; it acts as the convolution kernel of the dense-scan
forward model. Spots are sum-normalized so that scanning a constant
sample returns that constant. The conventional-microscope PSF keeps its
Airy rings (low-pass behavior), while the spot variants are compactly
supported. Each spot profile's ``render`` checks its fit and returns its
unnormalized image; :func:`make_spot` normalizes it. All profiles are
radial, so each is evaluated on one octant of the odd square's quadrant
of offsets dy, dx >= 0 from the centre, mirrored into that quadrant and
unfolded into the square. The octant is evaluated in blocks of rows of
about ``_BLOCK`` radii each, written straight into the output, so the
profile's temporaries stay in cache at any side; each value is an
elementwise function of its radius, so the blocks change no bit. The
Airy profiles' J1 series stops at 16 of 40 terms when no argument in a
block exceeds 3.5, also changing no bit. The builders freeze their
result, and :class:`~densescan.grid.Image` adopts it without a copy.
:func:`_microscope_quadrant` builds the generated wide-field baseline's
PSF as that quadrant alone, which ``scanner._airy_baseline`` blurs with
as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Image, _odd, _positive

# First positive root of J1; sets the Airy first-zero radius scale.
AIRY_FIRST_ZERO = 3.8317059702

_SERIES_CUTOFF = 12.0
_SERIES_TERMS = 40
_SHORT_SERIES_CUTOFF = 3.5
_SHORT_SERIES_TERMS = 16
_ASYMPTOTIC_TERMS = 17
# radii per block of _radial_image: its temporaries (about a dozen
# arrays of this many float64) fit in a core's L2 cache
_BLOCK = 2**15


@dataclass(frozen=True)
class AiryCore:
    """Airy intensity pattern clamped to zero outside its first ring."""

    first_zero_radius: float

    def __post_init__(self) -> None:
        _positive("first_zero_radius", self.first_zero_radius)

    def render(self, side: int) -> np.ndarray:
        r0 = self.first_zero_radius
        if r0 > side // 2:
            raise ValueError(
                f"Airy first zero {r0} exceeds support radius {side // 2} for side {side}"
            )
        return _radial_image(lambda r: np.where(r > r0, 0.0, _airy_intensity(r, r0)), side)


@dataclass(frozen=True)
class Gaussian:
    """Isotropic Gaussian profile, truncated at the grid edge."""

    sigma: float

    def __post_init__(self) -> None:
        _positive("sigma", self.sigma)
        # render divides by 2 sigma^2 (the guard keeps sigma**2 from overflowing)
        if self.sigma < 1.0 and 2.0 * self.sigma**2 == 0.0:
            raise ValueError(f"sigma must be large enough that 2 sigma^2 > 0, got {self.sigma}")

    def render(self, side: int) -> np.ndarray:
        # a huge sigma overflows the float64 power to inf (a float's raises), the uniform
        # limit; a tiny one overflows -r^2 / (2 sigma^2) to -inf, whose exp is the limit 0
        with np.errstate(over="ignore"):
            two_var = 2.0 * np.float64(self.sigma) ** 2
            return _radial_image(lambda r: np.exp(-np.square(r) / two_var), side)


@dataclass(frozen=True)
class Disk:
    """Uniform disk: 1 inside the radius, 0 outside."""

    radius: float

    def __post_init__(self) -> None:
        _positive("radius", self.radius)

    def render(self, side: int) -> np.ndarray:
        if math.floor(self.radius) > side // 2:
            raise ValueError(f"disk radius {self.radius} does not fit in side {side}")
        return _radial_image(lambda r: (r <= self.radius).astype(np.float64), side)


SpotProfile = AiryCore | Gaussian | Disk


@dataclass(frozen=True, eq=False)
class SpotImage:
    """A scan spot: square, odd-sided, nonnegative, sum-normalized image.

    The invariants are re-verified on construction, so loading a spot
    from disk through this wrapper re-checks normalization.
    """

    image: Image

    def __post_init__(self) -> None:
        im = self.image
        if im.width != im.height:
            raise ValueError(f"spot must be square, got {im.width}x{im.height}")
        _odd("spot side", im.width)
        px = im.pixels
        if px.min() < 0.0:
            raise ValueError("spot values must be nonnegative")
        total = float(px.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"spot must be sum-normalized, sum={total!r}")

    @property
    def side(self) -> int:
        return self.image.width

    @property
    def pixels(self) -> np.ndarray:
        return self.image.pixels


def _j1_series(x: np.ndarray) -> np.ndarray:
    # J1(x) = sum_m (-1)^m (x/2)^(2m+1) / (m! (m+1)!), |x| <= 12
    terms = _SHORT_SERIES_TERMS if np.abs(x).max() <= _SHORT_SERIES_CUTOFF else _SERIES_TERMS
    term = x / 2.0
    neg_q = -np.square(term)
    total = term.copy()
    for m in range(1, terms + 1):
        term *= neg_q
        term /= m * (m + 1)
        total += term
    return total


@np.errstate(over="ignore")
def _j1_asymptotic(x: np.ndarray) -> np.ndarray:
    # Hankel expansion: J1(x) ~ sqrt(2/(pi x)) (P cos w - Q sin w),
    # w = x - 3pi/4, with P/Q series in 1/x (DLMF 10.17-style terms).
    # Above about 1e306, 8 k x and pi x overflow to inf: the terms and the
    # amplitude take their limit 0.
    ax = np.abs(x)
    term = np.ones_like(ax)
    p_sum = term.copy()
    q_sum = np.zeros_like(ax)
    sign_p = -1.0
    sign_q = 1.0
    for k in range(1, _ASYMPTOTIC_TERMS + 1):
        term = term * (4.0 - (2 * k - 1) ** 2) / (8.0 * k * ax)
        if k % 2 == 0:
            p_sum += sign_p * term
            sign_p = -sign_p
        else:
            q_sum += sign_q * term
            sign_q = -sign_q
    w = ax - 0.75 * np.pi
    val = np.sqrt(2.0 / (np.pi * ax)) * (p_sum * np.cos(w) - q_sum * np.sin(w))
    return np.copysign(1.0, x) * val


def bessel_j1(x):
    """Bessel function of the first kind, order 1.

    Power series below |x| = 12, Hankel asymptotic expansion above.
    The series runs 40 terms, or 16 when no series argument exceeds 3.5:
    below J1's first zero (3.83) the sum is >= 0.039 |x| and term 17 is
    < 5e-23 |x|, far under half an ulp, so the bits are the same.
    Absolute accuracy is better than 1e-10 for |x| <= 30 and keeps
    improving beyond. Accepts a scalar or an ndarray.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    a = np.atleast_1d(arr)
    small = np.abs(a) <= _SERIES_CUTOFF
    out = np.empty_like(a)
    if small.any():
        out[small] = _j1_series(a[small])
    large = ~small
    if large.any():
        out[large] = _j1_asymptotic(a[large])
    return float(out[0]) if scalar else out


def _airy_intensity(r: np.ndarray, first_zero_radius: float) -> np.ndarray:
    # (2 J1(v)/v)^2 with v = AIRY_FIRST_ZERO * r / R; its limits are 1 at
    # v = 0 and 0 at v = inf, which a tiny R gives by overflow.
    with np.errstate(over="ignore"):
        v = AIRY_FIRST_ZERO * r / first_zero_radius
    centre = v == 0.0
    far = v == np.inf
    safe = np.where(centre | far, 1.0, v)
    intensity = np.square(2.0 * bessel_j1(safe) / safe)
    intensity[centre] = 1.0
    intensity[far] = 0.0
    return intensity


def _radial_quadrant(profile, quadrant: np.ndarray) -> np.ndarray:
    # profile(r) at offsets (dy, dx) >= 0 from the centre into the square ``quadrant``,
    # evaluated on the octant dy <= dx and mirrored by transposition; np.hypot ignores signs
    # and operand order, so this matches a full-grid evaluation bitwise. A boolean mask
    # visits the octant in np.nonzero order, also on the transpose; it is evaluated in
    # blocks of rows holding at most _BLOCK radii.
    n = quadrant.shape[0]
    octant = ~np.tri(n, k=-1, dtype=bool)
    step = max(_BLOCK // n, 1)
    for i in range(0, n, step):
        dy, dx = np.nonzero(octant[i : i + step])
        values = profile(np.hypot(dy + i, dx))
        mask = octant[i : i + step]
        quadrant[i : i + step][mask] = quadrant.T[i : i + step][mask] = values
    return quadrant


def _radial_image(profile, side: int) -> np.ndarray:
    # the odd square unfolded from its quadrant, which is evaluated in place
    c = side // 2
    out = np.empty((side, side))
    quadrant = _radial_quadrant(profile, out[c:, c:])
    out[c:, :c] = quadrant[:, :0:-1]
    out[:c] = out[:c:-1]
    return out


def make_spot(profile: SpotProfile, side: int, pitch: float = 1.0) -> SpotImage:
    """Sample a spot profile at pixel centers and sum-normalize it.

    side must be odd (well-defined center pixel) and large enough to
    contain the profile's support: Disk needs floor(radius) <= (side-1)/2,
    AiryCore needs first_zero_radius <= (side-1)/2. The Gaussian profile
    is simply truncated at the grid edge.
    """
    side = _odd("spot side", side)
    if not isinstance(profile, SpotProfile):
        raise ValueError(f"unknown spot profile {profile!r}")
    return SpotImage(_normalized(profile.render(side), pitch))


def make_microscope_psf(first_zero_radius: float, side: int, pitch: float = 1.0) -> Image:
    """Full Airy intensity pattern (rings kept) on an odd square grid.

    Unlike the AiryCore spot, no clamping is applied beyond the first
    zero, so the PSF carries its diffraction rings within the grid;
    truncation to any odd side is allowed. Evaluated on one octant and
    mirrored, then sum-normalized over the full side.
    """
    side = _odd("psf side", side)
    _positive("first_zero_radius", first_zero_radius)
    return _normalized(_radial_image(lambda r: _airy_intensity(r, first_zero_radius), side), pitch)


def _blur_halves(psf_side: int, shape: tuple[int, int]) -> tuple[int, int]:
    # per axis, the half-side of the PSF window a blur of a ``shape`` sample reads: taps
    # over N - 1 px from the centre never meet an N-px axis
    return tuple(min(psf_side // 2, n - 1) for n in shape)


def _microscope_quadrant(first_zero_radius: float, side: int,
                         shape: tuple[int, int]) -> np.ndarray:
    """The quadrant ``[c:, c:]`` of ``make_microscope_psf(first_zero_radius, side)`` that a
    blur of a ``shape`` sample reads, h + 1 px per axis (:func:`_blur_halves`); the PSF is
    even in both axes, so the quadrant is all of it that the blur needs. While the halves
    are smaller than c = side // 2 and every radius of the side takes J1's power series
    (v_max = AIRY_FIRST_ZERO * c * sqrt(2) / R <= ``_SERIES_CUTOFF``), only the quadrant
    is evaluated, normalized by :func:`_airy_square_sum` (within 1e-14 relative of the
    PSF's; above the cutoff the asymptotic J1 puts the evaluated sum 5e-14 off the exact
    one); otherwise it is the PSF's quadrant, bit for bit. Frozen."""
    side = _odd("psf side", side)
    _positive("first_zero_radius", first_zero_radius)
    c = side // 2
    rows, cols = (h + 1 for h in _blur_halves(side, shape))
    half = max(rows, cols) - 1
    try:  # v_max is inf for a tiny R; a side or a sum beyond float range overflows
        v_max = AIRY_FIRST_ZERO * c * math.sqrt(2.0) / first_zero_radius
        closed = half < c and v_max <= _SERIES_CUTOFF
        total = _airy_square_sum(first_zero_radius, side) if closed else None
    except OverflowError:
        raise ValueError("psf side and first_zero_radius must keep the PSF's sum finite") from None
    if closed:
        quadrant = _radial_quadrant(lambda r: _airy_intensity(r, first_zero_radius),
                                    np.empty((half + 1, half + 1)))[:rows, :cols]
        quadrant /= total
    else:  # a copy, so that the full PSF is freed
        quadrant = make_microscope_psf(first_zero_radius, side).pixels[c : c + rows,
                                                                       c : c + cols].copy()
    quadrant.setflags(write=False)
    return quadrant


def _airy_square_sum(first_zero_radius: float, side: int) -> float:
    """Sum of (2 J1(v)/v)^2, v = AIRY_FIRST_ZERO * r / first_zero_radius, over the odd
    ``side``^2 square, in exact integer arithmetic to within 2^-64 relative and then
    rounded once (int / int is correctly rounded). Its cost does not grow with the side."""
    # (2 J1(v)/v)^2 = sum_k b_k (v/2)^2k, b_k = (-1)^k (2k+2)! / (k! (k+2)! (k+1)!^2)
    # (DLMF 10.8.3). With (v/2)^2 = beta (dx^2 + dy^2), beta = (AIRY_FIRST_ZERO / R)^2 / 4,
    # the square sums term k to b_k beta^k Q_k, Q_k = sum_j C(k, j) S_j S_(k-j), with
    # S_j = sum_(|d| <= c) d^2j = 2 P_2j (j >= 1) and P_m = sum_(d=1..c) d^m from Pascal's
    # identity sum_(i <= m) C(m+1, i) P_i = (c+1)^(m+1) - 1. The inputs are exact
    # rationals; the partial sum is acc / den, den = k! (k+2)! (k+1)!^2 beta_den^k.
    c = side // 2
    p, q = AIRY_FIRST_ZERO.as_integer_ratio()
    a, b = float(first_zero_radius).as_integer_ratio()
    beta_num, beta_den = (p * b) ** 2, 4 * (q * a) ** 2
    v_max2 = 2.0 * (AIRY_FIRST_ZERO * c / first_zero_radius) ** 2
    power_sums, rise = [c], c + 1  # P_0, then (c+1)^(m+1) for the last m
    sums = [side]  # S_0 counts d = 0 too
    acc, den = 2 * side * side, 2  # term 0: b_0 = 1, Q_0 = side^2
    fact, beta_pow = 2, 1  # (2k + 2)!, beta_num^k
    k = 0
    while True:
        k += 1
        for m in (2 * k - 1, 2 * k):
            rise *= c + 1
            lower = sum(math.comb(m + 1, i) * power_sums[i] for i in range(m))
            power_sums.append((rise - 1 - lower) // (m + 1))
        sums.append(2 * power_sums[-1])
        q_k = sum(math.comb(k, j) * sums[j] * sums[k - j] for j in range(k + 1))
        fact *= (2 * k + 1) * (2 * k + 2)
        beta_pow *= beta_num
        step = k * (k + 2) * (k + 1) ** 2 * beta_den
        acc *= step
        den *= step
        term = fact * beta_pow * q_k
        acc += -term if k % 2 else term
        # every radius's terms alternate in sign, the same sign at every radius, and
        # shrink from term k on once the ratio of terms k + 1 and k is <= 1 at v_max:
        # the rest of the sum is then smaller than term k, here under 2^-64 of it
        if ((2 * k + 4) * (2 * k + 3) * v_max2 <= 4 * (k + 1) * (k + 3) * (k + 2) ** 2
                and term << 64 < acc):
            return acc / den


def _normalized(values: np.ndarray, pitch: float) -> Image:
    # each profile is 1 at the centre pixel, so the sum is >= 1; divided in place and
    # frozen, the array is adopted by Image without a copy
    values /= values.sum()
    values.setflags(write=False)
    return Image(values, pitch)
