"""Positive-definite kernels, Gram matrices and region sup-norms.

All shipped families are continuous and bounded on bounded sets; the
Gaussian RBF family is bounded globally with sup_x sqrt(k(x, x)) = 1.
A cross-kernel matrix or a Gram matrix is one call of the family's
``_cross``. ``Kernel.gram_rows``, which ``train`` and ``LocalModel.h_norm``
use, holds the Gram of more than ``_GRAM_ROWS`` points as its upper block
rows (``BlockRowGram``): about half the entries of the full matrix,
computed by two ``matrix`` calls per block row, and multiplied with
vectors as the full matrix. ``Kernel.apply`` computes K(X, Z) @ coef one
row chunk at a time into buffers it allocates once per call, so
predictions never hold the full cross-kernel matrix; ``LocalModel.predict``
and the experiments' scoring go through it. The Gaussian RBF family
scales its squared distances by -(gamma^2) with a multiply by the exact
reciprocal when -(gamma^2) is a power of two whose reciprocal is a finite
nonzero double, else with a division; both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import as_points
from .errors import InputError
from .regions import RegionPredicate

# entries per row block inside the Gaussian-RBF kernel and per chunk of
# ``Kernel.apply`` (512 KB of float64): small enough that each elementwise
# pass over a block stays in L2, and that a chunk's cross-kernel is still in
# cache when its matrix product reads it
_BLOCK_BUDGET = 65_536


# rows per block row of ``BlockRowGram``: a sample of at most this many
# points keeps its dense Gram. Smaller blocks hold less (n (n + rows) / 2
# entries) but make each product more, shorter BLAS calls
_GRAM_ROWS = 512


def chunk_rows(m: int) -> int:
    """Rows per chunk so that a chunk against m columns stays within budget."""
    return max(1, _BLOCK_BUDGET // max(1, m))


class Kernel:
    """Base class; subclasses implement ``_cross`` on (n, d) x (m, d) arrays.

    ``_cross(X, Z, out=None, workspace=None)`` writes K(X, Z) into ``out``
    (allocated when None) and returns it. ``workspace`` is what the
    family's ``_workspace(Z, rows)`` built for blocks of up to ``rows`` rows
    against Z (built by ``_cross`` itself when None), so ``apply`` builds it
    once for all its chunks. ``matrix`` and ``gram`` check their inputs and
    call ``_cross`` once, so each family's ``_cross`` allocates no (n, m)
    array besides its output and workspace, and ``_cross(X, X)`` on one
    C-contiguous X is exactly symmetric: for Gaussian RBF because
    (a - b)^2 == (b - a)^2 in IEEE arithmetic, for Linear and Polynomial
    because numpy evaluates ``X @ X.T`` there as one symmetric product
    (BLAS syrk), which the elementwise offset and power keep.

    Every family's k(x, x) depends on x only through ||x|| and does not
    decrease as ||x|| grows (1 for Gaussian RBF, ||x||^2 for Linear,
    (||x||^2 + offset)^degree for Polynomial), so its sup over a ball is
    its value at one point of largest norm; ``sup_norm_on_region`` relies
    on this.
    """

    input_dim: int
    family: str = "abstract"

    def _check(self, X: np.ndarray) -> np.ndarray:
        X = as_points(X)
        if X.shape[1] != self.input_dim:
            raise InputError(
                f"kernel expects dim {self.input_dim}, got {X.shape[1]}"
            )
        return X

    def _cross(self, X: np.ndarray, Z: np.ndarray, out=None,
               workspace=None) -> np.ndarray:
        raise NotImplementedError

    def _workspace(self, Z: np.ndarray, rows: int):
        """What ``_cross`` reuses across row blocks of up to ``rows`` rows
        against the columns Z: nothing, unless a family overrides it."""
        return None

    def matrix(self, X, Z) -> np.ndarray:
        """Cross-kernel matrix K[i, j] = k(X[i], Z[j])."""
        X = self._check(X)
        Z = self._check(Z)
        if Z.shape[0] == 0 or X.shape[0] == 0:
            return np.zeros((X.shape[0], Z.shape[0]))
        return self._cross(X, Z)

    def gram(self, points) -> np.ndarray:
        """Gram matrix K[i, j] = k(X[i], X[j]), exactly symmetric."""
        X = self._check(points)
        if X.shape[0] == 0:
            raise InputError("gram of an empty point list")
        # one contiguous array as both operands: a strided view would let
        # BLAS multiply X @ X.T as a general, not a symmetric, product
        X = np.ascontiguousarray(X)
        return self._cross(X, X)

    def gram_rows(self, points):
        """The Gram matrix of ``points`` as an operator with ``@``,
        ``.shape`` and ``.diagonal()``: the dense ``gram`` for at most
        ``_GRAM_ROWS`` points, else a ``BlockRowGram``."""
        X = self._check(points)
        if X.shape[0] <= _GRAM_ROWS:
            return self.gram(X)
        return BlockRowGram(self, np.ascontiguousarray(X))

    def apply(self, X, Z, coef):
        """K(X, Z) @ coef for ``coef`` of shape (m,) or (m, c), one
        ``chunk_rows(m)`` row chunk at a time.

        ``coef`` may also be a list of blocks C_i of shape (m_i,) or
        (m_i, c_i) with m_i <= m; the result is then the list of
        K(X, Z[:m_i]) @ C_i, all from one pass over the chunks of
        K(X, Z[:max m_i]), each block multiplying the first m_i columns of
        every chunk (no zero padding). The chunk buffer and the family's
        ``_workspace`` are built once per call and every chunk's ``_cross``
        writes into them, so the full (n, m) matrix is never held. Each
        kernel entry is computed alone, so the chunk's entries are bitwise
        those of ``matrix``.
        """
        X = self._check(X)
        Z = self._check(Z)
        single = not isinstance(coef, list)
        blocks = [np.asarray(c, dtype=float) for c in ([coef] if single else coef)]
        for c in blocks:
            if (c.ndim not in (1, 2) or c.shape[0] > Z.shape[0]
                    or (single and c.shape[0] != Z.shape[0])):
                raise InputError(f"coef of shape {c.shape} does not match "
                                 f"{Z.shape[0]} kernel columns")
        Z = Z[:max((c.shape[0] for c in blocks), default=0)]
        n, m = X.shape[0], Z.shape[0]
        outs = [np.zeros((n,) + c.shape[1:]) for c in blocks]
        if n and m:
            rows = chunk_rows(m)
            block = np.empty((min(rows, n), m))
            workspace = self._workspace(Z, block.shape[0])
            for start in range(0, n, rows):
                chunk = X[start:start + rows]
                K = self._cross(chunk, Z, out=block[:chunk.shape[0]],
                                workspace=workspace)
                for c, out in zip(blocks, outs):
                    np.matmul(K[:, :c.shape[0]], c, out=out[start:start + rows])
        return outs[0] if single else outs

    def diag(self, X) -> np.ndarray:
        """Vector of k(x, x) values."""
        X = self._check(X)
        return self._diag(X)

    def _diag(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _finite(self, K: np.ndarray) -> np.ndarray:
        """K itself, or an InputError naming the kernel if an entry overflowed."""
        if not np.isfinite(K).all():
            raise InputError(f"kernel {self.to_dict()} overflows: some k(x, x') "
                             "is not finite on these inputs")
        return K

    def to_dict(self) -> dict:
        """family, input_dim, then the family's parameters in field order."""
        d = {"family": self.family, "input_dim": self.input_dim}
        d.update((f.name, getattr(self, f.name)) for f in fields(self)
                 if f.name != "input_dim")
        return d


class BlockRowGram:
    """The Gram matrix K of the rows of a C-contiguous X, held as its upper
    block rows K[s:e, s:] of ``_GRAM_ROWS`` rows each (the last may be
    shorter); K being symmetric, the blocks below the diagonal are the
    transposes of those above it. About n (n + _GRAM_ROWS) / 2 entries are
    computed and held instead of n^2.

    Block row (s, e) keeps its diagonal block ``matrix(X[s:e], X[s:e])``,
    one C-contiguous array as both operands and so exactly symmetric like
    any ``gram``, and the block right of it, ``matrix(X[s:e], X[e:])``.
    Every entry is computed as in ``gram``: bitwise equal to it for
    Gaussian RBF, up to the rounding of the inner products (syrk against
    gemm) for Linear and Polynomial. ``K @ v`` runs block row by block row
    in a fixed order, so it is deterministic at a fixed BLAS thread count.
    """

    def __init__(self, kernel: Kernel, X: np.ndarray):
        n = X.shape[0]
        self.shape = (n, n)
        self.blocks = []  # (s, e, K[s:e, s:e], K[s:e, e:])
        for s in range(0, n, _GRAM_ROWS):
            e = min(s + _GRAM_ROWS, n)
            self.blocks.append((s, e, kernel.matrix(X[s:e], X[s:e]),
                                kernel.matrix(X[s:e], X[e:])))

    def diagonal(self) -> np.ndarray:
        return np.concatenate([np.diagonal(D) for _, _, D, _ in self.blocks])

    def __matmul__(self, v):
        """K @ v for v of shape (n,) or (n, c): y[s:e] += K[s:e, s:] v[s:]
        and y[e:] += K[s:e, e:]' v[s:e] per block row."""
        v = np.asarray(v, dtype=float)
        if v.ndim not in (1, 2) or v.shape[0] != self.shape[1]:
            raise ValueError(f"cannot multiply a {self.shape} Gram by shape {v.shape}")
        y = np.zeros(v.shape)
        for s, e, D, C in self.blocks:
            y[s:e] += D @ v[s:e]
            y[s:e] += C @ v[e:]
            y[e:] += C.T @ v[s:e]
        return y


def _row_factors(X: np.ndarray) -> np.ndarray:
    """(d, n, 2) stack xs with xs[j] = [X[:, j], 1]; the products
    xs[j] @ zs[j] with ``_column_factors(Z)`` are the coordinate
    differences X[:, j] - Z[:, j]'."""
    xs = np.ones((X.shape[1], X.shape[0], 2))
    xs[:, :, 0] = X.T
    return xs


def _column_factors(Z: np.ndarray) -> np.ndarray:
    """(d, 2, m) stack zs with zs[j] = [1, -Z[:, j]]'."""
    zs = np.ones((Z.shape[1], 2, Z.shape[0]))
    np.negative(Z.T, out=zs[:, 1])
    return zs


@dataclass(frozen=True)
class GaussianRBF(Kernel):
    """k(x, x') = exp(-gamma^-2 ||x - x'||_2^2); k(x, x) = 1 exactly."""

    gamma: float
    input_dim: int
    family = "gaussian-rbf"

    def __post_init__(self):
        if not self.gamma > 0:
            raise InputError(f"gamma must be positive, got {self.gamma}")

    def _workspace(self, Z, rows):
        # a scratch of ``rows`` rows for the squares, and Z's factors
        return np.empty((rows, Z.shape[0])), _column_factors(Z)

    def _cross(self, X, Z, out=None, workspace=None):
        # each coordinate difference is one k = 2 matrix product
        # [x_j, 1] @ [1, -z_j]^T, which BLAS writes into the block faster
        # than numpy broadcasts x_j - z_j. Both products are exact, so only
        # their sum is rounded, once: every entry is round(x_j - z_j) under
        # any summation order, FMA or thread split (an exact zero may come
        # out +0 where x_j - z_j gives -0; the square erases the sign).
        # Squares are summed one coordinate at a time into the output, one
        # row block at a time with one block-sized scratch (the workspace's):
        # no (n, m, d) temporary and no second (n, m) buffer. So each entry
        # is bitwise equal to the direct elementwise form, exactly symmetric
        # (rounding is sign-symmetric) and exactly 1 on the diagonal
        n, m, d = X.shape[0], Z.shape[0], X.shape[1]
        if out is None:
            out = np.empty((n, m))
        rows = chunk_rows(m)
        if workspace is None:
            workspace = self._workspace(Z, min(rows, n))
        diff, zs = workspace
        xs = _row_factors(X)
        # IEEE division is sign-symmetric; by a power of two whose reciprocal
        # is finite and nonzero, a multiply by that reciprocal gives its bits
        scale, scale_by = -(self.gamma**2), np.divide
        if abs(math.frexp(scale)[0]) == 0.5 and 0.0 < abs(1.0 / scale) < math.inf:
            scale, scale_by = 1.0 / scale, np.multiply
        for start in range(0, n, rows):
            d2 = out[start:start + rows]
            t = diff[:d2.shape[0]]
            np.matmul(xs[0, start:start + rows], zs[0], out=d2)
            np.square(d2, out=d2)
            for j in range(1, d):
                np.matmul(xs[j, start:start + rows], zs[j], out=t)
                np.square(t, out=t)
                d2 += t
            scale_by(d2, scale, out=d2)
            np.exp(d2, out=d2)
        return out

    def _diag(self, X):
        return np.ones(X.shape[0])


@dataclass(frozen=True)
class Linear(Kernel):
    """k(x, x') = <x, x'>."""

    input_dim: int
    family = "linear"

    def _cross(self, X, Z, out=None, workspace=None):
        with np.errstate(over="ignore"):
            return self._finite(np.matmul(X, Z.T, out=out))

    def _diag(self, X):
        with np.errstate(over="ignore"):
            return self._finite((X * X).sum(axis=1))


@dataclass(frozen=True)
class Polynomial(Kernel):
    """k(x, x') = (<x, x'> + offset)^degree."""

    degree: int
    offset: float
    input_dim: int
    family = "polynomial"

    def __post_init__(self):
        if not (isinstance(self.degree, int) and self.degree >= 1):
            raise InputError(f"degree must be a positive integer, got {self.degree}")
        if self.offset < 0:
            raise InputError(f"offset must be nonnegative, got {self.offset}")

    def _cross(self, X, Z, out=None, workspace=None):
        with np.errstate(over="ignore"):
            K = np.matmul(X, Z.T, out=out)
            K += self.offset
            K **= self.degree
        return self._finite(K)

    def _diag(self, X):
        with np.errstate(over="ignore"):
            return self._finite(((X * X).sum(axis=1) + self.offset) ** self.degree)


def kernel_from_dict(d: dict) -> Kernel:
    """Build a kernel from its JSON/config form: ``family``, ``input_dim`` and
    the family's parameters, as ``to_dict`` writes them (Polynomial's
    ``offset`` may be left out for 0). A dict read from a file has passed
    the config or model schema, which checks its keys and types;
    ``input_dim`` and ``degree`` may be integral floats, as in JSON Schema.
    An unknown family is an InputError."""
    family = d.get("family")
    cls = next((c for c in (GaussianRBF, Linear, Polynomial) if c.family == family),
               None)
    if cls is None:
        raise InputError(f"unknown kernel family {family!r}")
    params = {"offset": 0.0} if cls is Polynomial else {}
    params.update((key, (int if key in ("input_dim", "degree") else float)(value))
                  for key, value in d.items() if key != "family")
    return cls(**params)


def sup_sqrt_diag(kernel: Kernel, points) -> float:
    """max of sqrt(k(x, x)) over the rows of ``points`` (0 when there are none).

    The one kernel sup-norm computation: region sup-norms, model bound
    audits and the train summary all go through it.
    """
    return float(np.sqrt(kernel.diag(points)).max(initial=0.0))


def sup_norm_on_region(kernel: Kernel, region: RegionPredicate) -> float:
    """sup of sqrt(k(x, x)) over the closed ball ``region``, exactly.

    k(x, x) is a nondecreasing function of ||x|| (see ``Kernel``), and
    ||x|| <= ||c|| + r on the ball with equality at c + r c / ||c|| (any
    point at distance r when c = 0), so the sup is the value at a point of
    norm ||c|| + r; it is 1 for Gaussian RBF, ||c|| + r for Linear and
    ((||c|| + r)^2 + offset)^(degree / 2) for Polynomial.
    """
    x = np.zeros((1, region.center.size))
    with np.errstate(over="ignore"):  # Linear and Polynomial reject an inf norm
        x[0, 0] = np.linalg.norm(region.center) + region.radius
    return sup_sqrt_diag(kernel, x)
