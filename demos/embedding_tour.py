"""Tour: extending a base monoid along a group surjection.

The base is the monoid generated by two copies of the swap on two points;
its maximal subgroup is C2 and we extend along alpha: C4 ->> C2.  The
solver picks the modulus prime, lifts the generators to block matrices,
and hands back a monoid M' whose subgroup at the anchored idempotent is a
copy of C4 compatible with the base through rho.

A second pass corrupts one inner entry of one lifted generator and shows
the verifier catching it.
"""

from eggbox import (
    EmbeddingProblem,
    assemble_embedding,
    load_definitions,
    prepare_base,
    row_monomial,
    solve_embedding,
    verify_embedding,
)

defs = load_definitions("definitions/doubled-swap.defs")
decl = defs.problems["E2"]
prob = EmbeddingProblem(decl["alpha"], prepare_base(decl["base"]))
sol = solve_embedding(prob)
report = verify_embedding(sol)
# nu, ell, m and r are the verifier's own values, derived from the problem
# and the block generators
print(", ".join(f"{key}={value}" for key, value in report.params))

print("\ntheta maps the subgroup at e' onto C4:")
hit = sorted(set(sol.theta_map.values()), key=str)
print(f"  {len(sol.group.elements)} block matrices  ->  {hit}")

print("\nrho sends the lifted generators back onto the base:")
for i, t in enumerate(sol.raw):
    print(f"  rho(x~{i + 1}) = {sol.rho_map[t]}")

print(f"\nverification: {report.counts()[0]} checks pass")

# corrupt one block entry and watch the checks fail
c4 = prob.alpha.source
g = c4.generators[0]
raw = list(sol.raw)
rows = list(raw[1].data)
col, blk = rows[0]
bcol, bval = blk.data[0]
rows[0] = (col, row_monomial([(bcol, c4.mul(bval, g))] + list(blk.data)[1:]))
raw[1] = row_monomial(rows)

bad = assemble_embedding(prob, sol.p, raw)
failing = [c for c in verify_embedding(bad).checks if c.status == "fail"]
print(f"\nafter corrupting one inner entry, {len(failing)} checks fail:")
for c in failing:
    print(f"  [{c.name}] {c.witness}")
