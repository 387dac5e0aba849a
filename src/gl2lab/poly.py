"""Dense polynomials as ascending coefficient sequences.

The one copy of the arithmetic that the three exact rings share: the
Galois ring Z[x]/(p^N, f) (`padic`), Q(zeta_M) = Q[x]/Phi_M (`cyclotomic`)
and Q(t) (`ratfunc`).  Coefficients are ints or Fractions.  Every loop
starts from the int 0, skips zero terms and coerces nothing, so a caller
gets back the coefficient type it passed in.
"""

from __future__ import annotations


def trim(a):
    """a without its trailing zeros, as a tuple; the zero polynomial is ()."""
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return tuple(a[:n])


def add(a, b):
    """a + b, as long as the longer summand (not trimmed)."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(x + y for x, y in zip(a, b)) + tuple(a[len(b):])


def mul(a, b):
    """a * b, a list of len(a) + len(b) - 1 coefficients ([] if a or b is)."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def divide(a, b, p=None):
    """(quotient, remainder) of a by b, the remainder with len(b) - 1 entries.

    The leading coefficient of b must be 1, or, when the prime p is given,
    a unit mod p; the quotient and the remainder are then reduced mod p.
    """
    a = list(a)
    d = len(b) - 1
    inv = None if p is None else pow(b[-1], -1, p)
    quo = [0] * (len(a) - d)
    for i in range(len(a) - d - 1, -1, -1):
        c = a[i + d] if inv is None else a[i + d] * inv % p
        if c:
            quo[i] = c
            for j in range(d):
                a[i + j] -= c * b[j]
    rem = a[:d]
    if len(rem) < d:
        rem += [0] * (d - len(rem))
    if p is not None:
        rem = [c % p for c in rem]
    return quo, rem


def horner(a, x):
    """a(x), by Horner's rule from the int 0."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc
