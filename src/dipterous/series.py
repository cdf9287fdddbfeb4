"""Reference integer sequences and generating-series arithmetic.

These are the independent oracles the enumeration and kernel computations
are checked against, so nothing here touches the tree or algebra code:
little Schroeder numbers come from their three-term recurrence, Catalan
numbers from the closed form, and the remaining series from exact
truncated power-series arithmetic.
"""

from __future__ import annotations

from math import comb


def little_schroeder(n: int) -> list[int]:
    """[s_1, ..., s_n]: planar trees with k leaves, no unary nodes.

    Recurrence: (k+1) s_{k+1} = 3(2k-1) s_k - (k-2) s_{k-1}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = [1, 1]
    for k in range(2, n):
        num = 3 * (2 * k - 1) * s[k - 1] - (k - 2) * s[k - 2]
        q, r = divmod(num, k + 1)
        assert r == 0
        s.append(q)
    return s[:n]


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_series(n: int) -> list[int]:
    """[c_0, ..., c_{n-1}] so entry k counts binary trees with k internal nodes."""
    return [catalan(k) for k in range(n)]


def series_mul(a: list, b: list, order: int) -> list:
    """Truncated product of power series given as coefficient lists [x^0..]."""
    out = [0] * order
    for i, ai in enumerate(a[:order]):
        if not ai:
            continue
        for j, bj in enumerate(b[: order - i]):
            out[i + j] += ai * bj
    return out


def geometric_compose(inner: list[int], order: int) -> list[int]:
    """Coefficients of sum_{k>=1} g(x)^k up to x^order, for g with g(0)=0.

    ``inner`` lists [g_1, ..., g_m] (no constant term).
    """
    g = [0] + list(inner[: order ])
    g = (g + [0] * (order + 1))[: order + 1]
    total = [0] * (order + 1)
    power = [1] + [0] * order
    for _ in range(order):
        power = series_mul(power, g, order + 1)
        total = [t + p for t, p in zip(total, power)]
    return total[1 : order + 1]


def large_schroeder(n: int) -> list[int]:
    """[r_1, ..., r_n]: forests of Schroeder trees, via geometric composition."""
    return geometric_compose(little_schroeder(n), n)


def qndipt_dims(n: int) -> list[int]:
    """[1, 2, 2, ...]: expansion of x(1+x)/(1-x)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [1] + [2] * (n - 1)


def composition_sum(parts: list[int], n: int) -> int:
    """sum over compositions n = n_1 + ... + n_k of prod parts[n_i - 1]."""
    table = [0] * (n + 1)
    table[0] = 1
    for m in range(1, n + 1):
        acc = 0
        for head in range(1, min(m, len(parts)) + 1):
            acc += parts[head - 1] * table[m - head]
        table[m] = acc
    return table[n]


def symmetric_inverse_dims(series: list[int], n: int) -> list[int]:
    """Graded dims p_k with prod_k (1 - x^k)^{-p_k} = 1 + sum_m series[m-1] x^m.

    This inverts the symmetric-power (free commutative) construction on a
    graded space, coefficient by coefficient, exactly.
    """
    if len(series) < n:
        raise ValueError("need series coefficients up to order n")
    product = [1] + [0] * n
    dims: list[int] = []
    for k in range(1, n + 1):
        p_k = series[k - 1] - product[k]
        dims.append(p_k)
        # multiply the running product by (1 - x^k)^(-p_k), whose
        # coefficients are binomials, so every step stays in int
        factor = [0] * (n + 1)
        for j in range(0, n // k + 1):
            factor[j * k] = comb(p_k + j - 1, j) if j else 1
        product = series_mul(product, factor, n + 1)
    return dims
