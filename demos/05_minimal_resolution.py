"""A bar-free route to every hh^n of a monomial algebra.

Bardzell's minimal projective bimodule resolution is indexed by
vertices, arrows, relations, their overlaps and the longer chains
after them; it is built one degree at a time, each degree certified,
and applying Hom(-, A) gives a complex whose cohomology must match the
normalized-complex engine.
"""

from hochschild import (
    build_partial_resolution, chain_paths, hh, hh_via_resolution,
    load_bundled, regular_bimodule, relation_extension_algebra,
)

# the relation extension of the bundled triangle is monomial
_, pres = load_bundled("ex5_9_C")
_, B = relation_extension_algebra(pres)

chains = chain_paths(B)
print("relations:", [p.label() for p in chains.relations])
print("overlaps:")
for p in chains.overlaps:
    print("   ", p.label())

res = build_partial_resolution(B)   # certifies d o d = 0 and exactness
res.reach(4)                        # extends it through P^5
print("projective summands per degree:",
      {n: len(res.summands[n]) for n in range(6)})

reg = regular_bimodule(B)
for n in range(5):
    via_res = hh_via_resolution(B, n, res).dim
    # counted on the normalized complex: hh's own dim of a monomial
    # algebra is read off a Bardzell resolution too
    via_normalized = len(hh(B, reg, n).vectors())
    marker = "==" if via_res == via_normalized else "!="
    print(f"hh^{n}: resolution {via_res} {marker} normalized {via_normalized}")
