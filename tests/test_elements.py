import copy
import gc
import pickle
import random

import pytest

from eggbox import constructions, elements
from eggbox.constructions import build_idempotent_cover, verify_cover
from eggbox.elements import (
    compose_transformations,
    identity_row_monomial,
    make_rowmono_mul,
    make_table_mul,
    make_tuple_mul,
    row_monomial,
    table_element,
    transformation,
    tuple_element,
)
from eggbox.errors import InconsistentProduct, NotRowMonomial
from eggbox.groups import builtin_group


def test_transformation_composition_order():
    # s then t: (s*t)(i) = t(s(i))
    s = transformation([1, 2, 0])
    t = transformation([0, 0, 2])
    st = compose_transformations(s, t)
    assert st.data == (0, 2, 0)


def test_transformation_identity():
    e = transformation(range(4))
    s = transformation([3, 3, 1, 0])
    assert compose_transformations(e, s) == s
    assert compose_transformations(s, e) == s


def test_trusted_transformation_product_matches_checked_constructor():
    rnd = random.Random(7)
    for _ in range(200):
        n = rnd.randint(1, 8)
        a = transformation([rnd.randrange(n) for _ in range(n)])
        b = transformation([rnd.randrange(n) for _ in range(n)])
        ab = compose_transformations(a, b)
        expected = transformation([b.data[i] for i in a.data])
        assert (ab.kind, ab.data, ab.key) == (expected.kind, expected.data, expected.key)
        assert hash(ab) == hash(expected)
    with pytest.raises(InconsistentProduct):
        compose_transformations(transformation([0, 1]), transformation([0, 1, 2]))


def test_table_elements_multiply_by_lookup():
    mul = make_table_mul([[0, 1], [1, 0]], "z2")
    a = table_element("z2", 0)
    b = table_element("z2", 1)
    assert mul(a, b) == b
    assert mul(b, b) == a


def test_table_mul_rejects_foreign_elements():
    mul = make_table_mul([[0]], "one")
    alien = table_element("other", 0)
    with pytest.raises(InconsistentProduct):
        mul(alien, alien)


def test_row_monomial_shape_checks():
    g = table_element("g", 0)
    with pytest.raises(NotRowMonomial):
        row_monomial([(2, g)])  # column out of range for a 1-row matrix
    with pytest.raises(NotRowMonomial):
        row_monomial([(0, "not an element")])


def test_row_monomial_multiplication():
    gmul = make_table_mul([[0, 1], [1, 0]], "z2")
    one = table_element("z2", 0)
    g = table_element("z2", 1)
    mul = make_rowmono_mul(gmul)
    # x: row i -> column (i+1) mod 2 with entry g
    x = row_monomial([(1, g), (0, g)])
    xx = mul(x, x)
    # row i of xx: column (i+2) mod 2 = i, entry g*g = 1
    assert xx == identity_row_monomial(2, one)


def test_rowmono_mul_size_mismatch():
    gmul = make_table_mul([[0]], "one")
    one = table_element("one", 0)
    mul = make_rowmono_mul(gmul)
    with pytest.raises(InconsistentProduct):
        mul(identity_row_monomial(2, one), identity_row_monomial(3, one))


def test_tuple_element_pairs():
    a = tuple_element((table_element("t", 0), table_element("t", 1)))
    b = tuple_element((table_element("t", 0), table_element("t", 1)))
    assert a == b and hash(a) == hash(b)


def reference_product(entry_mul, x, y):
    """Row i of x*y, computed row by row through row_monomial()."""
    rows = []
    for c, v in x.data:
        d, w = y.data[c]
        rows.append((d, entry_mul(v, w)))
    return row_monomial(rows)


def random_matrix(rnd, n, entry):
    return row_monomial([(rnd.randrange(n), entry()) for _ in range(n)])


def assert_same_matrix(got, want):
    assert got.key == want.key and got.data == want.data


def test_memoised_rule_matches_reference_over_s3():
    s3 = builtin_group("S3")
    mul = make_rowmono_mul(s3.mul)
    rnd = random.Random(5)
    for _ in range(200):
        x = random_matrix(rnd, 6, lambda: rnd.choice(s3.elements))
        y = random_matrix(rnd, 6, lambda: rnd.choice(s3.elements))
        assert_same_matrix(mul(x, y), reference_product(s3.mul, x, y))


def test_memoised_rule_matches_reference_over_c4_blocks():
    c4 = builtin_group("C4")
    inner_mul = make_rowmono_mul(c4.mul)
    block_mul = make_rowmono_mul(inner_mul)
    rnd = random.Random(7)

    def inner():
        return random_matrix(rnd, 2, lambda: rnd.choice(c4.elements))

    def ref_inner(v, w):
        return reference_product(c4.mul, v, w)

    for _ in range(200):
        x = random_matrix(rnd, 4, inner)
        y = random_matrix(rnd, 4, inner)
        assert_same_matrix(block_mul(x, y), reference_product(ref_inner, x, y))


def test_cover_multiplies_each_entry_pair_once(monkeypatch):
    calls = []

    def counting_rule(entry_mul):
        def counted(v, w):
            calls.append((v, w))
            return entry_mul(v, w)
        counted.associative = entry_mul.associative
        return make_rowmono_mul(counted)

    monkeypatch.setattr(constructions, "make_rowmono_mul", counting_rule)
    c3 = builtin_group("C3")
    c = build_idempotent_cover(c3, 6, mode="full")
    report = verify_cover(c)
    assert all(ch.status == "pass" for ch in report.checks)
    assert len(c.monoid.elements) == 6 + 6 * 6 * 3
    assert 0 < len(calls) <= len(c3.elements) ** 2


def test_cover_entries_are_shared_objects():
    c3 = builtin_group("C3")
    c = build_idempotent_cover(c3, 6, mode="full")
    entries = {id(e) for m in c.monoid.elements for _, e in m.data}
    assert len(entries) <= len(c3.elements)


@pytest.mark.parametrize("name, n", [("C3", 6), ("S3", 23)])
def test_cover_products_share_one_row_per_column_and_entry(name, n):
    # every element past the generators is a product of the cover's rule,
    # unless it was alive before the rule made it: a cover still alive
    # from an earlier test would lend this one its elements and their rows
    gc.collect()
    h = builtin_group(name)
    m = build_idempotent_cover(h, n, mode="full", cap=10**20).monoid
    # the rule's products share one row per (column, entry), all n·|H| used
    rows = [r for x in m.elements if len(m.words[x]) >= 2 for r in x.data]
    assert len({id(r) for r in rows}) == len(set(rows)) == n * len(h.elements)
    # a second cover built while the first is alive is made of its objects
    again = build_idempotent_cover(h, n, mode="full", cap=10**20).monoid
    assert all(x is y and x.data is y.data for x, y in zip(m.elements, again.elements))


def assert_rows_shared(products, operands):
    """Equal rows of the products the rule made are one object; a product
    that was alive already, as an operand, keeps the rows it was made with."""
    alive = {id(x) for x in operands}
    rows = {}
    count = 0
    for p in products:
        if id(p) in alive:
            continue
        for row in p.data:
            assert rows.setdefault(row, row) is row
            count += 1
    assert len(rows) < count  # some row value came back


def test_rowmono_rule_hands_out_shared_rows():
    s3 = builtin_group("S3")
    mul = make_rowmono_mul(s3.mul)
    rnd = random.Random(13)
    operands, products = [], []
    for _ in range(100):
        x = random_matrix(rnd, 6, lambda: rnd.choice(s3.elements))
        y = random_matrix(rnd, 6, lambda: rnd.choice(s3.elements))
        operands += [x, y]
        products.append(mul(x, y))
    one = identity_row_monomial(6, s3.identity)
    products.append(mul(x, one))
    assert products[-1] is x and products[-1].data is x.data
    assert_rows_shared(products, operands)


def test_block_rule_hands_out_shared_rows():
    c4 = builtin_group("C4")
    inner_mul = make_rowmono_mul(c4.mul)
    block_mul = make_rowmono_mul(inner_mul)
    rnd = random.Random(17)

    def inner():
        return random_matrix(rnd, 2, lambda: rnd.choice(c4.elements))

    operands, products = [], []
    for _ in range(100):
        x = random_matrix(rnd, 3, inner)
        y = random_matrix(rnd, 3, inner)
        operands += [x, y]
        products.append(block_mul(x, y))
    one = identity_row_monomial(3, identity_row_monomial(2, c4.identity))
    products.append(block_mul(one, y))
    assert products[-1] is y and products[-1].data is y.data
    assert_rows_shared(products, operands)


def test_equal_values_are_one_object():
    s3 = builtin_group("S3")
    a, b = s3.elements[1], s3.elements[2]
    mul = make_rowmono_mul(s3.mul)
    x = row_monomial([(1, a), (0, b)])
    xx = mul(x, x)
    assert row_monomial([(0, s3.mul(a, b)), (1, s3.mul(b, a))]) is xx
    pair = make_tuple_mul([s3.mul, mul])
    got = pair(tuple_element((a, x)), tuple_element((b, x)))
    assert tuple_element((s3.mul(a, b), xx)) is got
    assert transformation([1, 0]) is transformation((1, 0))
    assert table_element("t", 3) is table_element("t", 3)


def test_a_dropped_cover_leaves_no_live_elements():
    c3 = builtin_group("C3")
    gc.collect()
    before = len(elements._live)
    c = build_idempotent_cover(c3, 6, mode="full")
    assert len(elements._live) >= before + len(c.monoid.elements)
    del c
    gc.collect()
    assert len(elements._live) == before


def test_copies_and_pickles_are_the_live_element():
    c4 = builtin_group("C4")
    x = row_monomial([(1, tuple_element((c4.elements[1], transformation([0, 0])))), (0, c4.identity)])
    assert copy.copy(x) is x
    assert copy.deepcopy(x) is x
    assert pickle.loads(pickle.dumps(x)) is x


def test_rowmono_rule_rejects_a_non_element_entry():
    one = table_element("one", 0)
    mul = make_rowmono_mul(lambda v, w: "not an element")
    x = identity_row_monomial(2, one)
    for _ in range(2):  # a rejected entry never enters the memo
        with pytest.raises(NotRowMonomial):
            mul(x, x)


def test_rowmono_rule_keeps_a_wrong_entry_product():
    s3 = builtin_group("S3")
    a, b = s3.elements[1], s3.elements[2]

    def wrong_once(v, w):
        return s3.identity if (v, w) == (a, b) else s3.mul(v, w)

    mul = make_rowmono_mul(wrong_once)
    rnd = random.Random(11)
    differ = 0
    for _ in range(200):
        x = random_matrix(rnd, 5, lambda: rnd.choice(s3.elements))
        y = random_matrix(rnd, 5, lambda: rnd.choice(s3.elements))
        got = mul(x, y)
        assert_same_matrix(got, reference_product(wrong_once, x, y))
        differ += got != reference_product(s3.mul, x, y)
    assert differ > 0
