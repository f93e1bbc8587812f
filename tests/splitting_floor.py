"""Digit sums and the valuation floors of the splitting coefficients: the
certificates that the tests hold ``padic.splitting_coefficients`` to.

sigma(m), the sum of the base-p digits of m, gives ord(pi^m / m!) =
sigma(m) / (p - 1) by Legendre's formula."""

from fractions import Fraction


def sigma_digit_sum(m: int, p: int) -> int:
    s = 0
    while m:
        s += m % p
        m //= p
    return s


def splitting_floors(p: int, Q: int, i_max: int) -> list[Fraction]:
    """Certified lower bounds on ord c_i for the coefficients of
    padic.splitting_coefficients, i = 0..i_max.

    The floor of c_i is the larger of two bounds: the ultrametric minimum of
    the term valuations (sigma(a) + sigma(b)) / (p-1) over a + Q b = i
    (sharp below Q, where a single term contributes), and (p-1) i / (p Q),
    which survives the partial cancellation between terms because the series
    factors as a product of theta(z^(p^k)) with coefficient decay (p-1)/p^2.
    """
    return [
        max(
            Fraction(
                min(
                    sigma_digit_sum(i - Q * b, p) + sigma_digit_sum(b, p)
                    for b in range(i // Q + 1)
                ),
                p - 1,
            ),
            Fraction((p - 1) * i, p * Q),
        )
        for i in range(i_max + 1)
    ]
