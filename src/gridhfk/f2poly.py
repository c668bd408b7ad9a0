"""Polynomials over F2 packed into Python ints (bit k = coefficient of T^k).

Addition is xor, multiplication is carry-less; division is exact long
division.  Used for the Alexander-polynomial determinant, where mod 2 the
permanent of the grading matrix equals its determinant.
"""

from __future__ import annotations

from .errors import DimensionMismatch, DivisionInexact


def mul(a, b):
    if a == 0 or b == 0:
        return 0
    if a.bit_count() > b.bit_count():
        a, b = b, a
    acc = 0
    while a:
        low = a & -a
        acc ^= b << (low.bit_length() - 1)
        a ^= low
    return acc


def divmod_poly(a, b):
    if b == 0:
        raise ZeroDivisionError("division by zero polynomial")
    db = b.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= db and a:
        shift = a.bit_length() - 1 - db
        q ^= 1 << shift
        a ^= b << shift
    return q, a


def exact_div(a, b):
    q, r = divmod_poly(a, b)
    if r:
        raise DivisionInexact("polynomial division left a remainder")
    return q


def pow_poly(a, k):
    acc = 1
    while k:
        if k & 1:
            acc = mul(acc, a)
        a = mul(a, a)
        k >>= 1
    return acc


def determinant(rows):
    """Determinant of a square matrix of F2[T] polynomials (Bareiss).

    Fraction-free elimination keeps every intermediate entry a polynomial;
    the final pivot is the determinant.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    if any(len(r) != n for r in m):
        raise DimensionMismatch(f"determinant of a non-square {n}-row matrix")
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]  # sign is irrelevant mod 2
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(mul(pivot, m[i][j]) ^ mul(m[i][k], m[k][j]), prev)
            m[i][k] = 0
        prev = pivot
    return m[n - 1][n - 1]
