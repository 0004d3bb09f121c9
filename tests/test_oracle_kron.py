"""tsd, Tikhonov, sweeps and Picard data against a Kronecker dense oracle
at the sizes where the fast paths and the threads run.

test_oracle.py draws sides 3-14. Here a separable mask with unequal
factors blurs a 515 x 520 field, whose anti-reflective sine transforms
take the chirp-convolution path, and a 512 x 514 one, whose lines (at
most 512 long) take the direct path; every pass at both sizes holds
2^18 values or more, so it runs on threads. Both rules run at both
sizes on gray data, and on color data under a random row-stochastic M
the anti-reflective rule at 515 x 520 and the reflective rule at
512 x 514.

For a separable mask the operator is A1 (x) A2: it maps X to
A1 X A2^T, with A_j = assemble_dense_1d of the factors. The oracle is
eigh (reflective, symmetric) or eig (anti-reflective) of each A_j:
A_j = E_j diag(l_j) E_j^-1, so the 2-D eigenvalues are the products
l1[i] l2[j] and the coefficients of X are E1^-1 X E2^-T. A tsd restore
keeping the products in keep is E1 (keep * unmixed coefficients /
lam) E2^T; a Tikhonov restore solves (lam^2 M^T M + mu I) fhat =
lam M^T ghat at each index; Picard data pair the sorted |lam| with the
channel norm of |ghat|; a sweep point is the relative error of a dense
restore. Each case checks tsd by a tie-free count and by a threshold in
the same gap, Tikhonov at two mu, Picard data at the simple products
and SWEEP_CASE_POINTS sweep points, and requires every output to have the
same bytes at one and at two workers.

The bound is test_oracle.py's, 1e-12 times the kept conditioning, plus
the oracle's own error. An eigenvector of A_j moves by about
eps cond(E_j) ||A_j|| / gap, where gap is the distance of its eigenvalue
to another one; a restore changes only through pairs that the kept set
separates (see test_oracle_tsvd.py), a Picard coefficient through every
other eigenvalue. cond(E_j) is 1 under the reflective rule and about 33
per axis under the anti-reflective one.
"""

import numpy as np
import pytest
import scipy.fft

import refocus as r
from refocus.filtering import restore, sweep
from refocus.operators import BoundaryCondition as BC

from test_oracle import AMBIGUOUS, BOUND, TIE_GAP
from test_oracle_tsvd import VECTOR_BOUND, _problem

# (shape, mask): a 5-tap box times a 3-tap hat, whose symbol has negative
# lobes and, at the reflective nodes of 515 = 5 x 103, exact zeros; and a
# gaussian with unequal widths
CASES = {
    "515x520": ((515, 520), r.mask_from_weights(np.outer(np.ones(5), [1.0, 2.0, 1.0]))),
    "512x514": ((512, 514), r.gaussian_mask((3, 2), (1.4, 0.9))),
}
MUS = (1e-2, 1e-4)
SWEEP_CASE_POINTS = 7


def _factor_oracle(bc, shape, mask):
    """Per axis: the eigenvalues, E_j, E_j^-1 and the eigenvector error scale.

    The scale is VECTOR_BOUND cond(E_j) ||A_j||, with ||A_j||_2 bounded
    by sqrt(||A_j||_1 ||A_j||_inf).
    """
    out = []
    for w, n in zip(r.separable_factors(mask), shape):
        a = r.assemble_dense_1d(w, n, bc)
        if bc is BC.REFLECTIVE:
            (lam, e), cond = np.linalg.eigh(a), 1.0
            e_inv = e.T
        else:
            lam, e = np.linalg.eig(a)
            lam, e = lam.real, e.real  # a real diagonalizable matrix
            e_inv, cond = np.linalg.inv(e), np.linalg.cond(e)
        norm = np.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf))
        out.append((lam, e, e_inv, VECTOR_BOUND * cond * norm))
    return out


def _synthesis(e1, e2, coef):
    return e1 @ coef @ e2.T


def _separated(counts, lam):
    """The smallest eigenvalue gap between indices with different kept counts."""
    split = counts[:, None] != counts[None, :]
    return np.abs(lam[:, None] - lam[None, :])[split].min() if split.any() else np.inf


def _outputs(g, op, f, mixing, count, delta):
    """Every library output the test checks, as a list of arrays."""
    out = [restore(g, op, "tsd", spec, mixing).image
           for spec in (r.TruncateByCount(count), r.TruncateByThreshold(delta))]
    out += [restore(g, op, "tikhonov", r.Tikhonov(mu), mixing).image for mu in MUS]
    out.append(sweep(g, op, "tsd", f, mixing).rres)
    out += list(r.picard_data(g, op))
    return out


@pytest.mark.parametrize("case, bc, color", [
    ("515x520", BC.ANTIREFLECTIVE, False),
    ("515x520", BC.ANTIREFLECTIVE, True),
    ("515x520", BC.REFLECTIVE, False),
    ("512x514", BC.ANTIREFLECTIVE, False),
    ("512x514", BC.REFLECTIVE, True),
], ids=["515x520-antireflective-gray", "515x520-antireflective-color",
        "515x520-reflective-gray", "512x514-antireflective-gray", "512x514-reflective-color"])
def test_eigen_filters_match_kronecker_oracle(case, bc, color):
    shape, mask = CASES[case]
    op, f, g, mixing = _problem(shape, mask, bc, color, seed=sum(shape) + 2 * color)
    (l1, e1, i1, scale1), (l2, e2, i2, scale2) = _factor_oracle(bc, shape, mask)
    lam = np.multiply.outer(l1, l2)
    order = np.argsort(-np.abs(lam).ravel(), kind="stable")
    ranked = np.abs(lam).ravel()[order]
    gaps = ranked[:-1] - ranked[1:]
    cuts = np.flatnonzero((gaps > TIE_GAP * ranked[0]) & (ranked[:-1] > AMBIGUOUS[1])) + 1
    m = np.eye(1) if mixing is None else mixing.matrix
    m_cond = np.linalg.cond(m)
    stack = g.reshape((-1,) + shape)
    coef = i1 @ stack @ i2.T
    unmixed = np.tensordot(np.linalg.inv(m), coef, 1)

    def dense_tsd(k):
        """The oracle image keeping the k largest products, and its conditioning."""
        keep = np.zeros(lam.size, dtype=bool)
        keep[order[:k]] = True
        keep = keep.reshape(lam.shape)
        image = _synthesis(e1, e2, np.where(keep, unmixed / lam, 0.0))
        oracle_error = max(scale1 / _separated(keep.sum(axis=1), l1),
                           scale2 / _separated(keep.sum(axis=0), l2))
        return image, ranked[0] / ranked[k - 1] * m_cond * (1.0 + oracle_error / BOUND)

    def check(err, cond, what):
        assert err <= BOUND * cond, f"{what}: error {err:.3e}, conditioning {cond:.3e}"

    def rel(ours, ref):
        return np.linalg.norm(ours.reshape(ref.shape) - ref) / np.linalg.norm(ref)

    k = int(cuts[np.searchsorted(cuts, lam.size // 5)])
    delta = 0.5 * (ranked[k - 1] + ranked[k])
    outputs = [_outputs(g, op, f, mixing, k, delta)]
    with scipy.fft.set_workers(2):
        outputs.append(_outputs(g, op, f, mixing, k, delta))
    for one, two in zip(*outputs):
        assert one.tobytes() == two.tobytes()
    by_count, by_threshold, *tikhonov, rres, magnitudes, coefficients = outputs[0]

    ref, cond = dense_tsd(k)
    check(rel(by_count, ref), cond, f"tsd count {k}")
    check(rel(by_threshold, ref), cond, f"tsd threshold {delta:.3e}")

    # every index solves (lam^2 M^T M + mu I) fhat = lam M^T ghat; with
    # M = U diag(s) V^T, fhat = V diag(lam s / (lam^2 s^2 + mu)) U^T ghat
    u, sv, vt = np.linalg.svd(m)
    rotated = np.tensordot(u.T, coef, 1)
    for mu, ours in zip(MUS, tikhonov):
        damped = rotated * (np.multiply.outer(sv, lam) / (np.multiply.outer(sv**2, lam**2) + mu))
        cond = np.abs(lam).max() ** 2 * sv[0] ** 2 / mu + 1.0
        ref = _synthesis(e1, e2, np.tensordot(vt.T, damped, 1))
        check(rel(ours, ref), cond, f"tikhonov mu {mu}")

    # Picard data: the sorted magnitudes everywhere, and the coefficients
    # at products that are simple, whose eigenvectors the oracle pins down
    check(np.abs(magnitudes - ranked).max() / ranked[0], 1.0, "picard magnitudes")
    # to first order, eigenvector i moves by scale * sum over k != i of
    # 1 / |l[i] - l[k]|
    spread = []
    for l in (l1, l2):
        gap = np.abs(l[:, None] - l)
        np.fill_diagonal(gap, np.inf)
        with np.errstate(divide="ignore"):  # a tied eigenvalue is in no simple product
            spread.append((1.0 / gap).sum(axis=1))
    simple = (np.append(gaps, np.inf) > TIE_GAP * ranked[0])
    simple &= np.insert(gaps, 0, np.inf) > TIE_GAP * ranked[0]
    at = order[simple]
    i, j = np.unravel_index(at, lam.shape)
    want = np.sqrt((coef**2).sum(axis=0)).ravel()[at]
    allowed = BOUND + scale1 * spread[0][i] + scale2 * spread[1][j]
    err = np.abs(coefficients[simple] - want) / want.max()
    assert (err <= allowed).all(), f"picard coefficients: {(err / allowed).max():.3e} of bound"

    norm_f = np.linalg.norm(f)
    for k in cuts[np.linspace(0, cuts.size - 1, SWEEP_CASE_POINTS).astype(int)]:
        ref, cond = dense_tsd(k)
        ref_rre = np.linalg.norm(ref.reshape(f.shape) - f) / norm_f
        # the curve point is the rre of our restore, whose error is bounded as above
        err = abs(rres[k - 1] - ref_rre) * norm_f / np.linalg.norm(ref)
        check(err, cond, f"sweep point k={k}")
