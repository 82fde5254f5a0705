"""Clebsch-Gordan blocks as null vectors of J^2 at its known eigenvalues.

The blocks of `numerics.cg_blocks` are the eigenvectors of J^2 in each
fixed-M block, a tridiagonal matrix whose eigenvalues L(L+1) are known
exactly, so each column is the null vector of a shifted tridiagonal matrix,
found in O(rows) by twisted factorization.  The problems of several blocks
are solved together, padded to the largest, with numpy running along the
problems and columns and Python along the rows.  `numerics` loads this
module with the first block it needs, and reads the blocks from `solve`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# elements (rows x problems x columns) per padded batch of blocks, 256 KB
# per float array, of which a solve keeps about four alive; a block too
# large for a batch is solved alone, _SLICE elements at a time (each slice
# one more pass over its rows)
_GROUP = 1 << 15
_SLICE = 1 << 17
# stands in for an exact zero pivot; e_k^2 / _TINY stays finite for any spin
# a block can hold in memory
_TINY = 2.0 ** -900


def _pivots(a, e2, reverse):
    """Pivots of the LDL^T (forward) or UDU^T (reverse) factorization of the
    tridiagonals with diagonals a and squared off-diagonals e2, along axis 0.
    An exact zero pivot, which the J^2 blocks meet often, is replaced by
    _TINY, which gives the IEEE limit of every later pivot and ratio."""
    out = np.empty_like(a)
    n = a.shape[0]
    ks = range(n - 2, -1, -1) if reverse else range(1, n)
    step = 1 if reverse else -1
    out[n - 1 if reverse else 0] = a[n - 1 if reverse else 0]
    for k in ks:
        prev = out[k + step]
        prev[prev == 0.0] = _TINY
        np.divide(e2[min(k, k + step)], prev, out=out[k])
        np.subtract(a[k], out[k], out=out[k])
    return out


def _ratios(a, e, e2, size):
    """(up, down, gamma): the ratios -e_k / D+_k and -e_k / D-_{k+1} of the
    twisted factorizations of the padded tridiagonals a, e (see
    `_null_vectors`), and |gamma| = |D+ + D- - a|, inf past each problem."""
    up = _pivots(a, e2, reverse=False)
    down = _pivots(a, e2, reverse=True)
    gamma = np.add(up, down)
    gamma -= a
    np.abs(gamma, out=gamma)
    np.copyto(gamma, np.inf, where=np.arange(a.shape[0])[:, None, None] >= size[:, None])
    np.divide(-e[:-1], up[:-1], out=up[:-1])
    np.divide(-e[:-1], down[1:], out=down[1:])
    return up[:-1], down[1:], gamma


def _twisted(up, down, r):
    """z_k / z_r from the ratios z_k / z_{k+1} = up_k (rows above r) and
    z_k / z_{k-1} = down_{k-1} (rows below), along axis 0.  Overwrites both:
    up with 1 outside its rows, down with its running products."""
    rows = np.arange(up.shape[0] + 1)[:, None, None]
    np.copyto(up, 1.0, where=rows[:-1] >= r)
    np.copyto(down, 1.0, where=rows[1:] <= r)
    z = np.ones(rows.shape[:1] + r.shape)
    np.cumprod(up[::-1], axis=0, out=z[-2::-1])
    z[1:] *= np.cumprod(down, axis=0, out=down)
    return z


def _null_vectors(d, e, e2, lam, size, want):
    """Unit null vectors of T - lam for padded symmetric tridiagonals T.

    Axis 0 runs over rows, axis 1 over problems and axis 2 over columns:
    d, e and e2 = e^2 (formed exactly) are (n, nb, 1), e[k] coupling rows k
    and k + 1 and 0 from each problem's last row on; lam (1, nb, nc) holds
    eigenvalues of each problem's first size[b] rows.  want (nb, nc) is the
    sign wanted at row 0, or 0 to make row size[b] - 1 positive instead.

    Twisted factorization (Parlett & Dhillon, "Fernando's solution to
    Wilkinson's problem", Linear Algebra Appl. 267, 1997): the forward and
    backward pivots D+ and D- meet at the row r where
    |gamma_r| = |D+_r + D-_r - a_r| is least; z_r = 1 and the other
    components follow outward by the two-term ratios -e_k / D+_k (rows
    above r) and -e_{k-1} / D-_k (rows below), so each is a product of
    ratios and keeps its relative accuracy however small it is.  Where the
    arithmetic is exact every gamma is 0, and the first row may hold a
    component near the underflow; a column whose products then overflow is
    twisted again at its largest component, found from the logarithms of
    the ratios.  A component that underflows to 0 still has the sign of
    its product, which is read from the count of negative ratios.
    """
    rows = np.arange(d.shape[0])[:, None, None]
    up, down, gamma = _ratios(d - lam, e, e2, size)
    r = np.argmin(gamma, axis=0)
    del gamma
    with np.errstate(over="ignore", invalid="ignore"):
        z = _twisted(up, down, r)
        norm2 = np.einsum("kbc,kbc->bc", z, z)
    if not np.isfinite(norm2).all():
        # log |z_k / z_r|, from the ratios afresh, and a twist at its peak
        up, down, _ = _ratios(d - lam, e, e2, size)
        with np.errstate(divide="ignore"):
            log_up = np.log(np.abs(np.where(rows[:-1] < r, up, 1.0)))
            log_down = np.log(np.abs(np.where(rows[1:] > r, down, 1.0)))
        z[:] = 0.0
        np.cumsum(log_up[::-1], axis=0, out=z[-2::-1])
        z[1:] += np.cumsum(log_down, axis=0)
        np.copyto(z, -np.inf, where=rows >= size[:, None])
        r = np.argmax(z, axis=0)
        z = _twisted(up, down, r)
        norm2 = np.einsum("kbc,kbc->bc", z, z)
    anchor = np.where(want != 0, 0, size[:, None] - 1)
    sign = np.sign(np.take_along_axis(z, anchor[None], axis=0)[0])
    if not sign.all():
        # the sign of an underflowed product, from the ratios that formed it
        up, down, _ = _ratios(d - lam, e, e2, size)
        negative = [np.count_nonzero((x < 0.0) & mask, axis=0) % 2
                    for x, mask in ((up, rows[:-1] < r), (down, rows[1:] > r))]
        sign = 1 - 2 * np.where(want != 0, *negative)
    z *= np.where(want != 0, want, 1) * sign / np.sqrt(norm2)
    if not np.isfinite(z).all():
        raise DomainError("Clebsch-Gordan columns are not finite")
    return z


def _padded_null_vectors(d, e2, size, lam, want):
    """Signed unit null vectors of T - lam for a batch of symmetric
    tridiagonals T, as a (rows, nb, nc) array.

    d and e2 are (rows, nb): problem b's diagonal and squared off-diagonal
    in its first size[b] rows (e2[k] couples rows k and k + 1; what lies
    past the problem is ignored); lam (nb, nc) holds eigenvalues of each
    problem, and want the sign of each column, as for `_null_vectors`.
    Columns are solved a slice at a time, so that each solve holds at most
    _SLICE elements.
    """
    rows = np.arange(d.shape[0])[:, None]
    d = np.where(rows < size, d, 1.0)[:, :, None]
    e2 = np.where(rows < size - 1, e2, 0.0)[:, :, None]
    e = np.sqrt(e2)
    z = np.empty(d.shape[:2] + lam.shape[1:])
    step = max(1, _SLICE // d.size)
    for c0 in range(0, lam.shape[1], step):
        cols = slice(c0, c0 + step)
        z[:, :, cols] = _null_vectors(d, e, e2, lam[None, :, cols], size, want[:, cols])
    return z


def blocks(tj1: int, tj2: int, tMs) -> list:
    """The `cg_blocks` blocks at the 2M in tMs (each >= 0), solved together.

    J^2 in the |m1, M - m1> basis, m1 ascending, is tridiagonal, with
    diagonal j1(j1+1) + j2(j2+1) + 2 m1 m2 and off-diagonal
    sqrt((j1(j1+1) - m1(m1+1))(j2(j2+1) - m2(m2-1))); the column of L is its
    null vector at L(L+1).  Condon-Shortley signs: the m1 = j1 component is
    positive, and a block with no m1 = j1 row (M < j1 - j2) has an m2 = j2
    row, whose component has the sign (-1)^(j1 + j2 - L).
    At j1 = j2, exchanging m1 and m2 reverses the rows and multiplies the
    column of L by s = (-1)^(2 j1 - L), so the columns of each parity s are
    the null vectors of a problem on the first half of the rows.
    """
    tM = np.asarray(tMs)
    c1 = tj1 * (tj1 + 2) / 4.0
    c2 = tj2 * (tj2 + 2) / 4.0
    lo = np.maximum(-tj1, tM - tj2)
    n = (np.minimum(tj1, tM + tj2) - lo) // 2 + 1
    m1 = (lo + 2 * np.arange(n.max())[:, None]) / 2.0
    m2 = tM / 2.0 - m1
    d = c1 + c2 + 2.0 * m1 * m2
    e2 = (c1 - m1 * (m1 + 1.0)) * (c2 - m2 * (m2 - 1.0))
    tL0 = np.maximum(abs(tj1 - tj2), tM)
    # (-1)^(j1 + j2 - L) of each block's first column; it alternates along L
    sign0 = 1 - 2 * ((tj1 + tj2 - tL0) // 2 % 2)
    if tj1 != tj2:
        size, cols = n, np.arange(n.max())
        # spare columns repeat a block's last one and are dropped
        tL = tL0[:, None] + 2 * np.minimum(cols, n[:, None] - 1)
        want = np.where((tM < tj1 - tj2)[:, None], sign0[:, None] * (1 - 2 * (cols % 2)), 0)
    else:
        # problem (s, b) for s = +1, -1 holds rows 0..h-1 of block b, and for
        # s = +1 in an odd block the middle row h too: its neighbours h - 1
        # and h + 1 carry one value, so z_h / sqrt 2 keeps that problem
        # symmetric.  In an even block row h - 1 meets its mirror image,
        # row h, across e_{h-1}.
        nb, h, odd = tM.size, n // 2, n % 2
        size = np.concatenate([h + odd, h])
        d, e2 = (np.tile(x[:h.max() + 1], 2) for x in (d, e2))
        even = np.flatnonzero(odd == 0)
        d[h[even] - 1, even] += np.sqrt(e2[h[even] - 1, even])
        d[h[even] - 1, nb + even] -= np.sqrt(e2[h[even] - 1, even])
        sym = np.flatnonzero(odd & (h > 0))
        e2[h[sym] - 1, sym] *= 2.0
        # column c of a block has the parity sign0 (-1)^c, so parity s takes
        # every other column from c_s = 0 or 1
        start = np.concatenate([sign0 != 1, sign0 != -1]).astype(int)
        cols = np.minimum(np.arange(h.max() + 1), np.maximum(size, 1)[:, None] - 1)
        tL = np.tile(tL0, 2)[:, None] + 2 * (start[:, None] + 2 * cols)
        want = np.repeat([1, -1], nb)[:, None] * np.ones_like(cols)
    L = tL / 2.0
    z = _padded_null_vectors(d, e2, size, L * (L + 1.0), want)
    if tj1 != tj2:
        return [np.ascontiguousarray(z[:k, b, :k]) for b, k in enumerate(n)]
    out = []
    for b, k in enumerate(n):
        block = np.zeros((k, k))
        hb = h[b]
        for s, p in ((1, b), (-1, nb + b)):
            c = slice(start[p], None, 2)
            zs = z[:size[p], p, :size[p]]
            block[:hb, c] = zs[:hb]
            block[k - hb:, c] = s * zs[:hb][::-1]
            if s > 0 and odd[b]:
                block[hb, c] = math.sqrt(2.0) * zs[hb]
        block *= math.sqrt(0.5)
        out.append(block)
    return out


def solve(tj1: int, tj2: int, tMs):
    """Yield (2M, block) of `cg_blocks` for each 2M >= 0 in tMs, in order,
    solving consecutive blocks together while their padded problems hold at
    most _GROUP elements."""
    tMs = list(tMs)
    rows = [(min(tj1, t + tj2) - max(-tj1, t - tj2)) // 2 + 1 for t in tMs]
    per = 1
    if tj1 == tj2:
        # two half-size problems per block
        rows, per = [k // 2 + 1 for k in rows], 2
    i = 0
    while i < len(tMs):
        j = i + 1
        # padding costs work: a batch's rows stay within twice (plus 4) the
        # rows of its first block
        while (j < len(tMs) and rows[j] <= 2 * rows[i] + 4
               and per * (j + 1 - i) * max(rows[i:j + 1]) ** 2 <= _GROUP):
            j += 1
        yield from zip(tMs[i:j], blocks(tj1, tj2, tMs[i:j]))
        i = j
