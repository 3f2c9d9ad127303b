"""The vectorized ``float.__repr__`` and ``int.__str__`` of
:mod:`resolvquad.floatrepr` against the builtins, cell for cell."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from resolvquad import floatrepr


def lines(cells: np.ndarray) -> bytes:
    """The text of each cell, NULs dropped, one line each."""
    rows = np.concatenate([cells, np.full((len(cells), 1), ord("\n"),
                                          np.uint8)], axis=1)
    return rows.tobytes().translate(None, b"\0")


def assert_reprs(x: np.ndarray) -> None:
    x = np.asarray(x, np.float64)
    cells = floatrepr.repr_cells(x)
    assert cells.shape == (x.size, floatrepr.WIDTH)
    assert lines(cells) == "".join(
        map("{!r}\n".format, x.tolist())).encode()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_any_bit_pattern(patterns):
    assert_reprs(np.array(patterns, np.uint64).view(np.float64))


def edge_values() -> np.ndarray:
    pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
    pow10 = np.array([float(f"1e{k}") for k in range(-324, 309)])
    near = np.concatenate([np.arange(-1000, 1001) + 2**53,
                           np.arange(-1000, 1001) + 2**54]).astype(np.float64)
    switches = np.array([1e-4, 1e-5, 1e15, 1e16])
    # least and greatest subnormals, and a few between
    subnormal = np.array([1, 2, 3, 12345, 2**51, 2**52 - 1],
                         np.uint64).view(np.float64)
    # the two mantissas divisible by 5**22 (the first power that Ryu's
    # fast path meets among large magnitudes), at every exponent
    mant = np.array([2 * 5**22, 3 * 5**22], np.uint64) - np.uint64(2**52)
    biased = np.arange(1, 2047, dtype=np.uint64)[:, None] << np.uint64(52)
    fives = (biased | mant).ravel().view(np.float64)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    values = np.concatenate([pow2, pow10, near, switches, subnormal, fives])
    steps = [np.nextafter(values, -np.inf), np.nextafter(values, np.inf)]
    out = np.concatenate([values, *steps, special])
    return np.concatenate([out, -out])


def test_edge_values():
    assert_reprs(edge_values())


def test_a_million_bit_patterns():
    rng = np.random.default_rng(20)
    x = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    for part in np.split(x, 10):  # in parts, to bound the memory
        assert_reprs(part)


def test_solver_like_values_take_the_fast_path():
    """Only zeros, non-finite values and Ryu's trailing-zero branch fall
    back to ``float.__repr__``; values like a solver's take none of them."""
    x = np.random.default_rng(21).standard_normal(10**5)
    digits, exponent, fallback = floatrepr.shortest(x)
    assert not fallback.any()
    assert all(float(f"{d}e{e}") == abs(v) for d, e, v in
               zip(digits[:1000].tolist(), exponent[:1000].tolist(),
                   x[:1000].tolist()))
    _, _, fallback = floatrepr.shortest(
        np.array([0.0, -0.0, np.inf, np.nan, 0.5, 3.0, 1e16, 1e22]))
    assert fallback.all()


def test_int_cells():
    v = np.array([0, 1, 9, 10, 99, 100, 9999, 10000, 10001, 123456789,
                  10**12, 10**18 - 1, 10**18, 2**63 - 1])
    assert lines(floatrepr.int_cells(v)) == "".join(
        f"{i}\n" for i in v.tolist()).encode()
    assert lines(floatrepr.int_cells(np.arange(0, 20000, 7))) == "".join(
        f"{i}\n" for i in range(0, 20000, 7)).encode()
    assert floatrepr.int_cells(np.array([], np.int64)).shape == (0, 4)
