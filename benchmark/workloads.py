"""The cover, embed and monoids workloads.

A workload is a fixed list of operations.  Each operation builds and
verifies one object through eggbox's public functions (timed), then a check
compares what came back with values the benchmark computed without eggbox
(untimed).  ``setup`` does everything before the first timed operation:
building groups, parsing ``definitions/*.defs``, ``prepare_base`` and
generating the seeded inputs.

Every check is a module-level function of the operation's result and its
``expected`` dictionary, and returns a list of problems, empty when the
output is right.  The quick test drives the same functions with wrong
expectations and doctored results to show that each of them can fail.
"""

from __future__ import annotations

import random

from oracles import (
    ORDER_PROFILES,
    RANKS,
    SIMPLE_ORDERS,
    cayley_table,
    closure,
    compose,
    faithful_on_minimal_ideal,
    h_class_size,
    minimum_rank_elements,
    order_profile,
)


class Op:
    """One timed operation: ``run(carry)`` returns a result that
    ``check(result, expected, carry)`` judges.  ``carry`` is a per-round
    dictionary through which an operation hands a small value to a later
    one."""

    __slots__ = ("name", "run", "check", "expected")

    def __init__(self, name, run, check, expected):
        self.name = name
        self.run = run
        self.check = check
        self.expected = expected


class Workload:
    __slots__ = ("name", "ops", "largest")

    def __init__(self, name, ops, largest):
        self.name = name
        self.ops = ops
        self.largest = largest


def _all_pass(report):
    """Every check of a ConstructionReport passed; none was skipped."""
    return [f"check {ch.name} is {ch.status}" + (f" ({ch.witness})" if ch.witness else "")
            for ch in report.checks if ch.status != "pass"]


# ---------------------------------------------------------------------------
# cover: idempotent covers in full mode

# (entry group from definitions/covers.defs, n); the last one is the
# largest object and the only one above GREEN_LIMIT and
# REES_EXHAUSTIVE_LIMIT, so it takes the certified and sampled paths
COVERS = (("C2", 3), ("C3", 5), ("C3", 6), ("S3", 23))
COVERS_TINY = (("C2", 3),)
# group orders, known apart from the program
COVER_GROUP_ORDERS = {"C2": 2, "C3": 3, "S3": 6}
# above the n + n|H|^n + 1 estimate for S3 at n = 23 (about 1.8e19), so
# that the actual closure, not the estimate, decides the work
COVER_CAP = 10 ** 20


def check_cover(result, expected, carry):
    c, report = result
    n, order = expected["n"], expected["order"]
    problems = []
    if c.mode != "full" or c.monoid is None:
        return [f"cover built in mode {c.mode}"]
    if len(c.monoid.elements) != n + n * n * order:
        problems.append(f"|M| = {len(c.monoid.elements)}, expected n + n^2|H| = {n + n * n * order}")
    if len(c.ideal.elements) != n * n * order:
        problems.append(f"|I| = {len(c.ideal.elements)}, expected n^2|H| = {n * n * order}")
    if len(c.rees.group.elements) != order:
        problems.append(f"|G_y| = {len(c.rees.group.elements)}, expected |H| = {order}")
    return problems + _all_pass(report)


def cover(eb, root, seed, tiny, inputs):
    defs = eb.load_definitions(str(root / "definitions" / "covers.defs"))
    ops = []
    for gname, n in (COVERS_TINY if tiny else COVERS):
        h = defs.groups[gname]

        def run(carry, h=h, n=n):
            c = eb.build_idempotent_cover(h, n, mode="full", cap=COVER_CAP)
            return c, eb.verify_cover(c, seed=seed)

        ops.append(Op(f"{gname}-n{n}", run, check_cover,
                      {"n": n, "order": COVER_GROUP_ORDERS[gname]}))
    return Workload("cover", ops, ops[-1].name)


# ---------------------------------------------------------------------------
# embed: block-matrix extensions of the worked examples

EMBED_CAP = 500_000
# small enough that the corrupted generators overflow it, so the mutation
# takes closure's cap-exceeded path
MUTATION_CAP = 100
GROUP_ORDERS = {"C2": 2, "C4": 4}


def check_solution(result, expected, carry):
    sol, report = result
    if sol.mode != "full" or sol.mprime is None:
        return [f"solved in mode {sol.mode}"]
    problems = []
    if expected.get("p") is not None and sol.p != expected["p"]:
        problems.append(f"p = {sol.p}, expected {expected['p']}")
    group = sol.group_elements
    if len(group) != GROUP_ORDERS[expected["group"]]:
        problems.append(f"|G'| = {len(group)}, expected |H| = {GROUP_ORDERS[expected['group']]}")
    profile = order_profile(group, sol.block_mul, sol.e_prime)
    if profile != ORDER_PROFILES[expected["group"]]:
        problems.append(f"order profile {profile} is not that of {expected['group']}")
    base = sol.problem.base.monoid
    if len(sol.rho_map) != len(sol.mprime.elements):
        problems.append(f"rho is defined on {len(sol.rho_map)} of {len(sol.mprime.elements)} elements")
    if set(sol.rho_map.values()) != set(base.elements):
        problems.append("rho is not onto the base")
    return problems + _all_pass(report)


def check_mutation(result, expected, carry):
    sol, report = result
    problems = []
    if sol.mode != "capped":
        problems.append(f"mutated closure ran in mode {sol.mode}, not capped")
    if not any(ch.status == "fail" and ch.witness for ch in report.checks):
        problems.append("no failing check carries a witness")
    return problems


def corrupt_block_entry(eb, raw, problem):
    """The generators with the first inner entry of the second one pushed
    off its coset of ker(alpha) by the generator of H."""
    h = problem.alpha.source
    shift = h.generators[0]
    rows = list(raw[1].data)
    col, blk = rows[0]
    bcol, bval = blk.data[0]
    rows[0] = (col, eb.row_monomial([(bcol, h.mul(bval, shift))] + list(blk.data[1:])))
    return [raw[0], eb.row_monomial(rows)] + list(raw[2:])


def embed(eb, root, seed, tiny, inputs):
    d1 = eb.load_definitions(str(root / "definitions" / "unit-zero.defs"))
    d2 = eb.load_definitions(str(root / "definitions" / "doubled-swap.defs"))
    problems = {}
    for key, defs in (("E1", d1), ("E2", d2), ("E3", d2)):
        decl = defs.problems[key]
        base = eb.prepare_base(eb.underlying(decl["base"]))
        problems[key] = eb.EmbeddingProblem(decl["alpha"], base)

    def solve(key, p=None, keep=False):
        def run(carry):
            sol = eb.solve_embedding(problems[key], p_override=p, cap=EMBED_CAP,
                                     require_full=True)
            if keep:
                carry[key] = (sol.raw, sol.p)
            return sol, eb.verify_embedding(sol, seed=seed)
        return run

    def mutate(carry):
        raw, p = carry["E2"]
        bad = corrupt_block_entry(eb, raw, problems["E2"])
        sol = eb.assemble_embedding(problems["E2"], p, bad, strict=False, cap=MUTATION_CAP)
        return sol, eb.verify_embedding(sol, seed=seed)

    ops = [
        Op("E1", solve("E1"), check_solution, {"group": "C2"}),
        Op("E2", solve("E2", keep=True), check_solution, {"group": "C4"}),
        Op("E2-mutation", mutate, check_mutation, {}),
        Op("E3", solve("E3"), check_solution, {"group": "C2"}),
    ]
    if tiny:
        return Workload("embed", ops, "E2")
    ops.append(Op("E2-p7", solve("E2", p=7), check_solution, {"group": "C4", "p": 7}))
    return Workload("embed", ops, "E2-p7")


# ---------------------------------------------------------------------------
# monoids: the steps of `eggbox analyze` on seeded random monoids, and S-ranks

# random monoids: how many, and the band their size must fall in.  The band
# keeps the work of a round nearly the same for every seed, and stays
# above 200 so every monoid takes the same (sampled) validation path.
RANDOM_MONOIDS = 4
SIZE_BAND = (210, 250)
RANDOM_MONOIDS_TINY = 2
SIZE_BAND_TINY = (20, 60)
# the largest object: the full transformation monoid T4, |T4| = 4^4
T4 = ((1, 0, 2, 3), (1, 2, 3, 0), (0, 0, 2, 3))
T3 = ((1, 0, 2), (1, 2, 0), (0, 0, 2))
RANK_CORPUS = (
    ("S4xC2", "C2"), ("S4xC2", "C3"), ("A5", "C2"), ("A5", "A5"), ("S5", "C2"),
    ("C2xC2xC2xC2", "C2"), ("C3xC3", "C3"), ("A4", "C3"), ("D4", "C2"),
    ("Q8", "C2"), ("C2xC6", "C2"),
)
RANK_CORPUS_TINY = (("C2xC2", "C2"), ("S3", "C2"))
# library groups built once in set-up, so that `identify` never fills its
# cache inside a timed operation
IDENTIFY_WARM = ("1", "C2", "C3", "C4", "C2xC2", "C5", "S3")


def random_generators(rnd):
    """A random permutation of 4 or 5 points and one or two random maps."""
    degree = rnd.choice((4, 5))
    perm = list(range(degree))
    rnd.shuffle(perm)
    maps = [tuple(rnd.randrange(degree) for _ in range(degree))
            for _ in range(rnd.choice((1, 2)))]
    return degree, [tuple(perm)] + maps


def check_analysis(result, expected, carry):
    m, ideal, e, group, label, faithful, decode = result
    problems = []
    if len(m.elements) != expected["size"]:
        problems.append(f"|M| = {len(m.elements)}, expected {expected['size']}")
    if frozenset(decode(x) for x in ideal.elements) != expected["ideal"]:
        problems.append("minimal ideal is not the set of least-rank elements")
    order = expected["h_orders"].get(decode(e))
    if order is None:
        return problems + ["the chosen idempotent is not an idempotent of least rank"]
    if len(group.elements) != order:
        problems.append(f"|G_e| = {len(group.elements)}, expected |H_e| = {order}")
    if order == 1 or all(order % d for d in range(2, order)):
        if label != f"C{order}":
            problems.append(f"a group of prime order {order} identified as {label}")
    if faithful != expected["faithful"]:
        problems.append(f"faithful_on_min_ideal = {faithful}, expected {expected['faithful']}")
    return problems


class MonoidInput:
    """A monoid for the analysis steps, with what the oracles say about it.

    ``table`` is None for a monoid given by transformations, else the
    Cayley table over ``order``, the element list it indexes."""

    __slots__ = ("name", "degree", "gens", "order", "table", "expected")

    def __init__(self, name, degree, gens, elements, as_table, size=None):
        self.name = name
        self.degree = degree
        self.gens = gens
        self.order, self.table = cayley_table(elements) if as_table else (None, None)
        ideal = minimum_rank_elements(elements)
        self.expected = {
            "size": len(elements) if size is None else size,
            "ideal": ideal,
            # |H_e| for every idempotent e eggbox may pick
            "h_orders": {e: h_class_size(ideal, e) for e in ideal if compose(e, e) == e},
            "faithful": faithful_on_minimal_ideal(elements),
        }


def analysis_op(eb, given):
    """Operation running `eggbox analyze`'s steps on one monoid input."""
    name, order = given.name, given.order
    if given.table is not None:
        index = {x: i for i, x in enumerate(order)}
        mul = eb.make_table_mul(given.table, name)
        seeds = [eb.table_element(name, index[g]) for g in given.gens]
        identity = eb.table_element(name, 0)

        def decode(x):
            return order[x.data[1]]
    else:
        mul = eb.compose_transformations
        seeds = [eb.transformation(g) for g in given.gens]
        identity = eb.transformation(range(given.degree))

        def decode(x):
            return x.data

    def run(carry):
        m = eb.generate_monoid(seeds, mul, identity=identity, name=name)
        eb.green_structure(m)
        ideal = eb.minimal_ideal(m)
        e = ideal.idempotents[0]
        group = eb.maximal_subgroup(m, e, ideal=ideal)
        label = eb.identify(group)
        faithful = eb.is_faithful_on_min_ideal(m)
        return m, ideal, e, group, label, faithful, decode

    return Op(name, run, check_analysis, given.expected)


def check_rank(result, expected, carry):
    order, rank = expected["order"], expected["rank"]
    problems = []
    if result.rank != rank:
        problems.append(f"r_S = {result.rank}, expected {rank}")
    if len(result.kernel) * expected["simple_order"] ** rank != order:
        problems.append(f"|m_S(G)| = {len(result.kernel)}, expected |G|/|S|^r")
    return problems


def monoid_inputs(seed, tiny=False):
    """The seeded random monoids, then the largest object, with the oracle
    values for each; made without eggbox, before set-up is timed."""
    count = RANDOM_MONOIDS_TINY if tiny else RANDOM_MONOIDS
    low, high = SIZE_BAND_TINY if tiny else SIZE_BAND
    rnd = random.Random(seed)
    inputs = []
    while len(inputs) < count:
        degree, gens = random_generators(rnd)
        elements = closure(gens, degree, high)
        if elements is None or len(elements) < low:
            continue
        # every other monoid goes in as a Cayley table, so that Green runs
        # over table products as well as transformation products
        inputs.append(MonoidInput(f"random{len(inputs)}", degree, gens, elements,
                                  as_table=len(inputs) % 2 == 1))
    big, degree = (T3, 3) if tiny else (T4, 4)
    inputs.append(MonoidInput(f"T{degree}", degree, big, closure(big, degree, degree ** degree),
                              as_table=False, size=degree ** degree))
    return inputs


def monoids(eb, root, seed, tiny, inputs):
    groups = {}
    corpus = RANK_CORPUS_TINY if tiny else RANK_CORPUS
    for gname, sname in corpus:
        for name in (gname, sname):
            if name not in groups:
                groups[name] = eb.builtin_group(name)
    for name in IDENTIFY_WARM:
        eb.identify(eb.builtin_group(name))

    ops = [analysis_op(eb, given) for given in inputs]
    largest = ops[-1].name
    for gname, sname in corpus:
        def run(carry, g=groups[gname], s=groups[sname]):
            return eb.r_s(g, s)

        order, rank = RANKS[(gname, sname)]
        ops.append(Op(f"rank-{gname}-{sname}", run, check_rank,
                      {"order": order, "rank": rank, "simple_order": SIMPLE_ORDERS[sname]}))
    return Workload("monoids", ops, largest)


def no_inputs(seed, tiny=False):
    return None


# name -> (inputs made without eggbox before set-up, set-up)
WORKLOADS = {
    "cover": (no_inputs, cover),
    "embed": (no_inputs, embed),
    "monoids": (monoid_inputs, monoids),
}
