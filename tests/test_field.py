import json
import random
import time

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designforge.field import (
    BUILTIN_POLYS,
    FieldCtx,
    find_irreducible,
    isqrt_exact,
    is_irreducible,
    load_poly_table,
)

# ---------------------------------------------------------------------------
# construction and the polynomial table
# ---------------------------------------------------------------------------


def test_builtin_polys_are_irreducible():
    for (p, r), poly in BUILTIN_POLYS.items():
        assert is_irreducible(poly, p), (p, r, poly)


def test_binary_builtin_polys_are_primitive():
    # the Galois-ring lift needs x to generate the unit group
    for r in range(1, 13):
        ctx = FieldCtx(2, r)
        x = ctx.element((0, 1)) if r > 1 else ctx.one
        assert ctx.element_order(x) == ctx.q - 1, r


def test_find_irreducible_deterministic():
    assert find_irreducible(3, 3) == find_irreducible(3, 3)
    poly = find_irreducible(5, 4)
    assert is_irreducible(poly, 5)


def test_explicit_modulus_and_override_table(tmp_path):
    table_file = tmp_path / "polys.json"
    table_file.write_text(json.dumps({"2,3": [1, 1, 0, 1]}))  # x^3 + x + 1
    table = load_poly_table(str(table_file))
    ctx = FieldCtx(2, 3, poly_table=table)
    assert ctx.modulus == (1, 1, 0, 1)


def test_rejects_reducible_modulus():
    with pytest.raises(ValueError):
        FieldCtx(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


def test_isqrt_exact_is_exact_for_big_integers():
    assert isqrt_exact(0) == 0
    assert isqrt_exact(49) == 7
    assert isqrt_exact(50) is None
    assert isqrt_exact(-4) is None
    big = 3**50 + 1
    assert isqrt_exact(big * big) == big  # a float round trip loses this one
    assert isqrt_exact(big * big + 1) is None
    assert isqrt_exact(10**400) == 10**200  # too large for a float


def test_rejects_nonprime_and_oversize():
    with pytest.raises(ValueError):
        FieldCtx(6)
    with pytest.raises(ValueError):
        FieldCtx(2, 21)  # 2^21 over the cap


def test_oversize_is_refused_before_any_primality_or_power_work():
    # the cap comes first, with the degree clamped: no trial division of a
    # 61-bit prime, and no power with a billion-bit result
    t0 = time.perf_counter()
    for p, r in [(2**61 - 1, 1), (2, 10**12), (1048583, 1), (3, 13)]:
        with pytest.raises(ValueError, match="exceeds the 1048576 cap"):
            FieldCtx(p, r)
    assert time.perf_counter() - t0 < 1


# ---------------------------------------------------------------------------
# the exp/log tables against the tuple walk they replaced
# ---------------------------------------------------------------------------


def tuple_walk(ctx):
    """g^0, g^1, ..., g^(q-2) by one tuple ``FieldCtx.mul`` per step, with the
    order check the walk made: g^(q-1) = 1."""
    powers, cur = [], ctx.one
    for _ in range(ctx.q - 1):
        powers.append(cur)
        cur = ctx.mul(cur, ctx.g)
    assert cur == ctx.one
    return powers


def _primes(limit):
    return [n for n in range(2, limit + 1) if all(n % d for d in range(2, int(n**0.5) + 1))]


WALK_FIELDS = sorted(BUILTIN_POLYS) + [(p, 1) for p in _primes(211)] + [(65003, 1)]


@pytest.mark.parametrize("p, r", WALK_FIELDS)
def test_doubled_exp_matches_the_tuple_walk(p, r):
    ctx = FieldCtx(p, r)
    tables, group = ctx.unit_tables, ctx.additive_group()
    powers = tuple_walk(ctx)
    assert group.decode_elements(tables.exp) == powers
    assert tables.log[group.encode(powers)].tolist() == list(range(ctx.q - 1))
    assert tables.log[0] == -1 and not tables.exp.flags.writeable


def test_doubled_exp_across_chunks():
    # above 2 * 65536 units the doubling applies g^s in several chunks: every
    # step of GF(1048559) is checked as one integer product, and GF(2^18) on
    # a sample of steps with the tuple product
    ctx = FieldCtx(1048559)
    exp = ctx.unit_tables.exp.astype(np.int64)
    g = ctx.g[0]
    assert exp[0] == 1 and (exp[1:] == exp[:-1] * g % ctx.q).all() and exp[-1] * g % ctx.q == 1
    ctx = FieldCtx(2, 18)
    tables, group = ctx.unit_tables, ctx.additive_group()
    rng = random.Random(3)
    for i in [0, 65535, 65536, 131071, 131072, 196607, 196608, ctx.q - 2] + rng.sample(
        range(ctx.q - 1), 500
    ):
        nxt = group.element(int(tables.exp[(i + 1) % (ctx.q - 1)]))
        assert ctx.mul(group.element(int(tables.exp[i])), ctx.g) == nxt, i


def test_doubled_exp_with_other_moduli():
    # a table override, explicit moduli and a scanned modulus: none of them
    # need x to be primitive, so g is whatever the order scan finds
    cases = [
        FieldCtx(2, 3, poly_table={(2, 3): (1, 1, 0, 1)}),
        FieldCtx(3, 2, poly_table={(3, 2): (1, 0, 1)}),  # x^2 + 1: x has order 4
        FieldCtx(2, 4, modulus=(1, 1, 1, 1, 1)),  # x has order 5
        FieldCtx(5, 3, modulus=(1, 1, 0, 1)),  # x^3 + x + 1
        FieldCtx(2, 13),
        FieldCtx(17, 2),
    ]
    for ctx in cases:
        group = ctx.additive_group()
        assert group.decode_elements(ctx.unit_tables.exp) == tuple_walk(ctx), ctx


def test_non_primitive_generator_is_refused(monkeypatch):
    # g = 2 has order 3 in GF(7), and x^3 order 5 in GF(16): the doubled
    # table repeats itself, and the bijection proof refuses it
    for ctx_args, g in [((7,), (2,)), ((2, 4), (0, 0, 0, 1))]:
        monkeypatch.setattr(FieldCtx, "_find_primitive", lambda self, g=g: g)
        with pytest.raises(RuntimeError, match="not a bijection onto the units"):
            FieldCtx(*ctx_args)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_gf7_basics():
    f = FieldCtx(7)
    assert f.g == (3,)  # smallest primitive root mod 7
    assert f.mul((3,), (5,)) == (1,)
    for a in f.nonzero_elements():
        assert f.mul(a, f.inv(a)) == f.one


def test_gf8_polynomial_reduction():
    # oracle: x^3 = x^2 + 1 modulo x^3 + x^2 + 1
    f = FieldCtx(2, 3)
    xi = f.element((0, 1))
    assert f.modulus == (1, 0, 1, 1)
    assert f.mul(xi, f.mul(xi, xi)) == (1, 0, 1)


def test_inversion_of_zero_rejected():
    f = FieldCtx(7)
    with pytest.raises(ZeroDivisionError):
        f.inv(f.zero)


def test_trace_examples():
    f8 = FieldCtx(2, 3)
    assert f8.trace(f8.one) == 1  # r = 3 is odd
    xi = f8.element((0, 1))
    xi3 = f8.poly_pow(xi, 3)
    # oracle: conjugates of xi^3 are xi^3, xi^6, xi^5; their sum vanishes
    conj_sum = f8.add(f8.poly_pow(xi, 3), f8.add(f8.poly_pow(xi, 6), f8.poly_pow(xi, 5)))
    assert conj_sum == f8.zero
    assert f8.trace(xi3) == 0
    f7 = FieldCtx(7)
    for a in f7.elements():
        assert f7.trace(a) == a[0]


def test_trace_linear_and_surjective():
    f = FieldCtx(3, 2)
    values = set()
    for a in f.elements():
        for b in f.elements():
            assert f.trace(f.add(a, b)) == (f.trace(a) + f.trace(b)) % 3
        values.add(f.trace(a))
    assert values == {0, 1, 2}


def test_frobenius_additive_exhaustive():
    for p, r in [(2, 3), (3, 2), (5, 2)]:
        f = FieldCtx(p, r)
        for a in f.elements():
            for b in f.elements():
                lhs = f.frobenius(f.add(a, b))
                rhs = f.add(f.frobenius(a), f.frobenius(b))
                assert lhs == rhs


# ---------------------------------------------------------------------------
# multiplicative structure
# ---------------------------------------------------------------------------


def test_mult_subgroup_examples():
    assert {x[0] for x in FieldCtx(7).mult_subgroup(2)} == {1, 2, 4}
    assert {x[0] for x in FieldCtx(11).mult_subgroup(2)} == {1, 3, 4, 5, 9}
    f = FieldCtx(13)
    assert f.mult_subgroup(1) == frozenset(f.nonzero_elements())


def test_mult_subgroup_size_law():
    f = FieldCtx(2, 4)
    for e in (1, 3, 5, 15):
        assert len(f.mult_subgroup(e)) * e == f.q - 1
    with pytest.raises(ValueError):
        f.mult_subgroup(7)


def test_discrete_log_examples():
    f = FieldCtx(7)
    assert f.discrete_log(f.one) == 0
    assert f.discrete_log((2,)) == 2  # 3^2 = 9 = 2 (mod 7)
    assert f.discrete_log(f.g) == 1
    with pytest.raises(ZeroDivisionError):
        f.discrete_log(f.zero)
    with pytest.raises(ValueError, match=r"field element \(8,\) outside"):
        f.discrete_log((8,))  # the tables hold reduced elements only


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=340), st.integers(min_value=0, max_value=340))
def test_log_is_homomorphic_gf343(i, j):
    f = FieldCtx(7, 3)
    a, b = f.g_pow(i), f.g_pow(j)
    assert f.mul(a, b) == f.g_pow((i + j) % (f.q - 1))


def test_prime_power_fields_for_the_sweep():
    for p, r in [(3, 3), (3, 5), (7, 3)]:
        f = FieldCtx(p, r)
        assert f.element_order(f.g) == f.q - 1
