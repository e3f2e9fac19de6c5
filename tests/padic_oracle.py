"""Brute-force extension oracle over Z/p^N for degree <= 3 polynomials.

Independent of the chain machinery: certified root lifting over Z/p^N
plus Newton-polygon geometry on integer coefficient valuations, with
mod-p factorization done by scanning roots.  Returns the multiset of
(e, f) pairs for the extensions of v_p to Q[x]/(g), for monic integral
g irreducible over Q of degree <= 3.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple


def _vp(n: int, p: int, cap: int) -> int:
    if n == 0:
        return cap
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return min(v, cap)


def _poly_eval(coeffs: List[int], x: int, mod: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % mod
    return acc


def _deriv(coeffs: List[int]) -> List[int]:
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def _zp_roots(coeffs: List[int], p: int, N: int) -> List[int]:
    """Certified simple roots of g in Z_p, as residues mod p^N."""
    g = coeffs
    gp = _deriv(coeffs)
    pN = p ** N
    certified: List[int] = []
    work = [(r, 1) for r in range(p) if _poly_eval(g, r, p) == 0]
    while work:
        r, k = work.pop()
        vg = _vp(_poly_eval(g, r, pN), p, N)
        vgp = _vp(_poly_eval(gp, r, pN), p, N)
        # k > vgp guarantees distinct roots lie in distinct classes mod p^k
        if vg > 2 * vgp and k > vgp:
            # Hensel-certified: Newton-iterate to full precision
            x = r
            for _ in range(N):
                fx = _poly_eval(g, x, pN)
                if fx == 0:
                    break
                dfx = _poly_eval(gp, x, pN)
                shift = _vp(dfx, p, N)
                inv = pow(dfx // p ** shift, -1, pN)
                x = (x - (fx // p ** shift) * inv) % pN
            certified.append(x % pN)
            continue
        if k > N - 10:
            raise AssertionError("root certification ran out of precision")
        step = p ** k
        for c in range(p):
            r2 = r + c * step
            if _vp(_poly_eval(g, r2, pN), p, N) >= k + 1:
                work.append((r2, k + 1))
    # deduplicate approximations of the same root
    out: List[int] = []
    for x in certified:
        if all(_vp(x - y, p, N) < N - 5 for y in out):
            out.append(x)
    return out


def _deflate(coeffs: List[int], root: int, mod: int) -> List[int]:
    """Monic quotient of g by (x - root) mod ``mod``."""
    out = []
    acc = 0
    for c in reversed(coeffs[1:]):
        acc = (acc * root + c) % mod
        out.append(acc)
    return list(reversed(out))


def _fp_factor_shape(coeffs: List[int], p: int):
    """Shape of a monic squarefree-or-not polynomial of degree <= 3 mod p:
    ("irreducible",) or ("power", a) for (y-a)^deg, or ("mixed",)."""
    d = len(coeffs) - 1
    roots = [r for r in range(p) if _poly_eval(coeffs, r, p) == 0]
    if not roots:
        if d == 2:
            return ("irreducible",)
        # rootless cubic over F_p is irreducible
        return ("irreducible",)
    for a in roots:
        # test (y - a)^d
        binom = {1: [(-a) % p, 1],
                 2: [(a * a) % p, (-2 * a) % p, 1],
                 3: [(-a ** 3) % p, (3 * a * a) % p, (-3 * a) % p, 1]}[d]
        if all((coeffs[i] - binom[i]) % p == 0 for i in range(d + 1)):
            return ("power", a)
    return ("mixed",)


def _cluster(coeffs: List[int], p: int, prec: int, depth: int = 0) -> List[Tuple[int, int]]:
    """(e, f) pairs for a monic factor with no Z_p-roots, degree 2 or 3."""
    assert depth < 60, "cluster recursion exceeded bound"
    d = len(coeffs) - 1
    cap = prec
    pts = [(k, _vp(coeffs[k] % p ** prec, p, cap)) for k in range(d + 1)
           if coeffs[k] % p ** prec != 0]
    assert pts[-1][0] == d
    # lower hull
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    edges = list(zip(hull, hull[1:]))
    assert len(edges) == 1, "multi-edge cluster after root removal is impossible"
    (k1, v1), (k2, v2) = edges[0]
    assert k1 == 0 and k2 == d
    lam = Fraction(v1 - v2, d)
    assert v1 < prec - 5, "cluster constant term below precision"
    if lam.denominator == d:
        return [(d, 1)]
    assert lam.denominator == 1, "impossible slope denominator for deg <= 3"
    s = lam.numerator
    assert s >= 0
    # normalize x = p^s * y: coefficient k becomes c_k p^(ks) / p^(ds)
    norm = []
    for k in range(d + 1):
        num = coeffs[k] % p ** prec
        shift = d * s - k * s
        assert num % p ** min(shift, prec) == 0
        norm.append((num // p ** shift) % p ** (prec - shift))
    shape = _fp_factor_shape([c % p for c in norm], p)
    if shape[0] == "irreducible":
        return [(1, d)]
    assert shape[0] == "power", "mixed residual would contain a Z_p root"
    a = shape[1]
    shifted = _shift_poly(norm, a, p ** (prec - d * s - 2))
    return _cluster(shifted, p, prec - d * s - 2, depth + 1)


def _shift_poly(coeffs: List[int], a: int, mod: int) -> List[int]:
    """Coefficients of g(y + a) mod ``mod``."""
    cc = [c % mod for c in coeffs]
    out = []
    work = list(cc)
    for _ in range(len(cc)):
        q = []
        acc = 0
        for c in reversed(work):
            acc = (acc * a + c) % mod
            q.append(acc)
        out.append(q.pop())
        work = list(reversed(q))
        if not work:
            break
    return out


def rational_root_free(coeffs: List[int]) -> bool:
    """Whether the monic x^n + c_(n-1) x^(n-1) + ... + c_0 has no rational
    root; ``coeffs`` are c_0, ..., c_(n-1), without the leading 1.  A root
    is an integer dividing c_0, and c_0 = 0 counts as the root 0."""
    c0 = coeffs[0]
    if c0 == 0:
        return False
    for r in range(1, abs(c0) + 1):
        if abs(c0) % r:
            continue
        for s in (r, -r):
            acc, power = 0, 1
            for c in coeffs + [1]:
                acc += c * power
                power *= s
            if acc == 0:
                return False
    return True


def padic_extensions(p: int, int_coeffs: List[int], N: int = 40) -> List[Tuple[int, int]]:
    """Sorted (e, f) pairs of the extensions of v_p to Q[x]/(g).

    ``int_coeffs`` are the monic integer coefficients (constant first,
    including the leading 1); deg <= 3 and irreducibility over Q are the
    caller's responsibility.
    """
    d = len(int_coeffs) - 1
    assert 1 <= d <= 3 and int_coeffs[-1] == 1
    pN = p ** N
    out: List[Tuple[int, int]] = []
    roots = _zp_roots(int_coeffs, p, N)
    rest = [c % pN for c in int_coeffs]
    for r in roots:
        out.append((1, 1))
        rest = _deflate(rest, r, pN)
    deg_rest = len(rest) - 1
    if deg_rest >= 1:
        if deg_rest == 1:
            raise AssertionError("a linear cofactor must have been certified as a root")
        out.extend(_cluster(rest, p, N - 6))
    return sorted(out)
