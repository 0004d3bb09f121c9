"""tsvd against a dense oracle at the sizes where the fast paths run.

test_oracle.py draws sides 3-14. Here the sides straddle 512, where the
sine transforms take the chirp-convolution path and the transforms run
on threads: a 515 x 520 field under a 5 x 3 box, and a 256 x 256 one
under a gaussian whose two factors are bitwise equal. Both spectral
rules, gray and color data.

The oracle is, by definition, np.linalg.svd of the two assemble_dense_1d
factor matrices: U_j diag(s_j) V_j^T. A restore keeping the singular
pairs in keep is V1 (keep * U1^T g U2 / (s1 s2^T)) V2^T after unmixing
by M^-1, and a sweep point is the relative error of that image. Each
case checks a restore by threshold, one by count, and sampled sweep
points, all at cuts with a relative gap of more than TIE_GAP to the
next product, where rounding cannot move the kept set.

The bound is test_oracle.py's, 1e-12 times the kept conditioning (the
largest over the smallest kept product, times cond(M) for color), plus
the oracle's own error times the same conditioning. LAPACK computes a
singular vector to about eps ||A|| / gap, where gap is the distance of
its singular value to the nearest other one, so a vector moves within
a cluster of close values; the reflective plan reads its exact cosine
vectors off the DCT instead. At n = 520 a gaussian factor's first
LAPACK vectors are 1.4e-11 from the cosine ones (singular gap 1.4e-5),
while both residuals ||A v - s u|| stay below 1.3e-15. Rotations inside
the kept set leave its restore unchanged, so the oracle's error counts
only the per-axis pairs that the cut separates: VECTOR_BOUND ||A_j||
over the smallest gap between a kept and an unkept singular value that
share the other axis's index.
"""

import numpy as np
import pytest
import scipy.fft

import refocus as r
from refocus.filtering import restore, sweep
from refocus.operators import BoundaryCondition as BC

from test_oracle import AMBIGUOUS, BOUND, TIE_GAP

CASES = [
    # unequal box factors: negative symbol lobes, so the reflective plan
    # folds signs, and spectral zeros, which no cut keeps
    ((515, 520), r.mask_from_weights(np.outer(np.ones(5), np.ones(3)))),
    ((256, 256), r.gaussian_mask((3, 3), 1.5)),
]
SWEEP_POINTS = 20
# LAPACK's error bound for a singular vector, in units of ||A|| / gap
VECTOR_BOUND = 10 * np.finfo(float).eps


@pytest.fixture(scope="module")
def oracles():
    """(rule, shape) -> the factors' dense SVDs, built once per module."""
    cache = {}

    def oracle(bc, shape, mask):
        if (bc, shape) not in cache:
            cache[bc, shape] = [np.linalg.svd(r.assemble_dense_1d(w, n, bc))
                                for w, n in zip(r.separable_factors(mask), shape)]
        return cache[bc, shape]

    return oracle


def _problem(shape, mask, bc, color, seed):
    """The operator, a reference, its noisy observation, and the mixing."""
    op = r.BlurOperator(mask, bc, shape)
    f = r.low_frequency_scene_color(shape) if color else r.low_frequency_scene(shape)
    mixing = None
    if color:
        rng = np.random.default_rng(seed)
        stochastic = rng.random((3, 3)) + 0.05
        stochastic /= stochastic.sum(axis=1, keepdims=True)
        mixing = r.ColorMixing(0.7 * np.eye(3) + 0.3 * stochastic)
        g = r.cross_channel_blur(f, mixing, op)
    else:
        g = r.apply_blur(op, f)
    g, _snr = r.add_noise(g, r.NoiseSpec(1e-3, seed))
    return op, f, g, mixing


def _sensitivity(keep, s1, s2):
    """The largest ||A_j|| / gap over the per-axis pairs the kept set separates.

    With s1, s2 descending and a tie-free cut, each column of keep is a
    prefix of r_j rows and each row a prefix of c_i columns; the cut
    separates rows r_j - 1 and r_j in column j, and columns c_i - 1 and
    c_i in row i.
    """
    worst = 0.0
    for counts, s in ((keep.sum(axis=0), s1), (keep.sum(axis=1), s2)):
        split = counts[(counts > 0) & (counts < s.size)]
        if split.size:
            worst = max(worst, s[0] / (s[split - 1] - s[split]).min())
    return worst


def _cuts(ranked):
    """Counts k whose cut keeps only clearly nonzero products and has a gap
    of more than TIE_GAP to the next product."""
    gaps = ranked[:-1] - ranked[1:]
    return np.flatnonzero((gaps > TIE_GAP * ranked[0]) & (ranked[:-1] > AMBIGUOUS[1])) + 1


@pytest.mark.parametrize("color", [False, True], ids=["gray", "color"])
@pytest.mark.parametrize("bc", [BC.REFLECTIVE, BC.ANTIREFLECTIVE], ids=lambda bc: bc.value)
@pytest.mark.parametrize("shape, mask", CASES, ids=["515x520", "256x256"])
def test_tsvd_matches_dense_factor_svd(oracles, shape, mask, bc, color):
    op, f, g, mixing = _problem(shape, mask, bc, color, seed=sum(shape) + 2 * color)
    (u1, s1, v1t), (u2, s2, v2t) = oracles(bc, shape, mask)
    lam = np.multiply.outer(s1, s2)
    order = np.argsort(-lam.ravel(), kind="stable")
    ranked = lam.ravel()[order]
    cuts = _cuts(ranked)
    m_cond = 1.0 if mixing is None else np.linalg.cond(mixing.matrix)
    unmixed = g if mixing is None else np.tensordot(np.linalg.inv(mixing.matrix), g, 1)
    coef = u1.T @ unmixed @ u2

    def dense_restore(k):
        """The oracle image keeping the k largest products, and its conditioning."""
        keep = np.zeros(lam.size, dtype=bool)
        keep[order[:k]] = True
        keep = keep.reshape(lam.shape)
        image = v1t.T @ np.where(keep, coef / lam, 0.0) @ v2t
        oracle_error = VECTOR_BOUND * _sensitivity(keep, s1, s2)
        return image, ranked[0] / ranked[k - 1] * m_cond * (1.0 + oracle_error / BOUND)

    def check(ours, ref, cond, what):
        err = np.linalg.norm(ours - ref) / np.linalg.norm(ref)
        assert err <= BOUND * cond, f"{what}: error {err:.3e}, conditioning {cond:.3e}"

    # a threshold halfway into a tie-free gap, and a tie-free count
    k = cuts[np.searchsorted(cuts, lam.size // 5)]
    delta = 0.5 * (ranked[k - 1] + ranked[k])
    for spec in (r.TruncateByThreshold(delta), r.TruncateByCount(int(k))):
        result = restore(g, op, "tsvd", spec, mixing)
        assert result.count_kept == k and result.skipped_zero == 0
        ref, cond = dense_restore(k)
        check(result.image, ref, cond, spec)
        with scipy.fft.set_workers(2):
            again = restore(g, op, "tsvd", spec, mixing)
        assert again.image.tobytes() == result.image.tobytes()

    curve = sweep(g, op, "tsvd", f, mixing, max_terms=int(cuts[-1]))
    picks = cuts[np.linspace(0, cuts.size - 1, SWEEP_POINTS).astype(int)]
    for k in picks:
        ref, cond = dense_restore(k)
        ref_rre = np.linalg.norm(ref - f) / np.linalg.norm(f)
        # the curve point is the rre of our restore, whose error is bounded as above
        err = abs(curve.rres[k - 1] - ref_rre) * np.linalg.norm(f) / np.linalg.norm(ref)
        assert err <= BOUND * cond, f"sweep point k={k}: error {err:.3e}, conditioning {cond:.3e}"


# Periodic and zero rules: tsvd decomposes the dense 1-D factors, and the
# oracle is the SVD of the whole dense 2-D operator. The mask is
# separable with asymmetric factors, which only these rules accept.
# Periodic singular values come in pairs (|f(x)| = |f(-x)|), so a cut
# must fall between separated values.
ASYMMETRIC = r.mask_from_weights(np.outer([0.2, 0.5, 0.3], [0.1, 0.5, 0.25, 0.1, 0.05]))


@pytest.mark.parametrize("color", [False, True], ids=["gray", "color"])
@pytest.mark.parametrize("bc", [BC.PERIODIC, BC.ZERO], ids=lambda bc: bc.value)
@pytest.mark.parametrize("shape", [(7, 9), (12, 11)], ids=["7x9", "12x11"])
def test_tsvd_matches_dense_operator_svd_off_the_spectral_rules(shape, bc, color):
    op, f, g, mixing = _problem(shape, ASYMMETRIC, bc, color, seed=sum(shape) + 2 * color)
    u, s, vt = np.linalg.svd(r.assemble_dense(op))
    m_cond = 1.0 if mixing is None else np.linalg.cond(mixing.matrix)
    unmixed = g if mixing is None else np.tensordot(np.linalg.inv(mixing.matrix), g, 1)
    coef = unmixed.reshape(-1, s.size) @ u
    # cuts between clearly separated values: a subspace error of
    # VECTOR_BOUND s[0] / gap stays well below the bound
    gaps = s[:-1] - s[1:]
    cuts = np.flatnonzero((gaps > 1e-4 * s[0]) & (s[:-1] > AMBIGUOUS[1])) + 1
    assert cuts.size >= 4

    def dense_restore(k):
        image = ((coef[:, :k] / s[:k]) @ vt[:k]).reshape(g.shape)
        oracle_error = VECTOR_BOUND * s[0] / gaps[k - 1]
        return image, s[0] / s[k - 1] * m_cond * (1.0 + oracle_error / BOUND)

    def check(err, cond, what):
        assert err <= BOUND * cond, f"{what}: error {err:.3e}, conditioning {cond:.3e}"

    k = int(cuts[cuts.size // 2])
    ref, cond = dense_restore(k)
    for spec in (r.TruncateByThreshold(0.5 * (s[k - 1] + s[k])), r.TruncateByCount(k)):
        result = restore(g, op, "tsvd", spec, mixing)
        assert result.count_kept == k and result.skipped_zero == 0
        check(np.linalg.norm(result.image - ref) / np.linalg.norm(ref), cond, spec)

    curve = sweep(g, op, "tsvd", f, mixing, max_terms=int(cuts[-1]))
    for k in cuts:
        ref, cond = dense_restore(k)
        ref_rre = np.linalg.norm(ref - f) / np.linalg.norm(f)
        err = abs(curve.rres[k - 1] - ref_rre) * np.linalg.norm(f) / np.linalg.norm(ref)
        check(err, cond, f"sweep point k={k}")
