"""From a spectrum and a diagonal to a K-theory presentation.

Fixes a strictly decreasing zero-sum spectrum lam and a reduction level mu,
checks that mu avoids every tail-sum wall, enumerates the kernel
generators with their half-space witnesses, certifies every generator
against its support (one support per base class G_{v^-1}, relabelled by
gamma, and one check per witness at its worst support point), and
assembles the generators-and-relations presentation.

Run with:  python3 demos/weight_variety_presentation.py
"""

from kflag import (
    WeightVector,
    is_regular,
    kernel_generators,
    kernel_soundness,
    moment_image,
    presentation,
)
from kflag.perm import all_permutations

lam = WeightVector.parse("1,0,-1")
mu = WeightVector.parse("1/4,1/8,-3/8")

print(f"spectrum lam = {lam}, level mu = {mu}")
print()
print("moment images of the fixed points (the permutohedron vertices):")
for w in all_permutations(3):
    print(f"    {w} -> {moment_image(lam, w)}")

cert = is_regular(lam, mu)
print()
print(f"wall check: {'regular' if cert.regular else 'NOT regular'}"
      f" ({len(cert.walls)} wall hits)")

gens = kernel_generators(lam, mu)
print()
print(f"{len(gens)} kernel generators (v, gamma, witnessed cut positions):")
for gen in gens:
    print(f"    v={gen.v} gamma={gen.gamma} k={list(gen.witnesses)}  {gen.poly}")

checks = sum(len(cert.checks) for cert in kernel_soundness(gens, lam, mu))
print()
print(f"soundness: {checks} strict inequalities verified, one per witness,"
      " each at the worst support point")

pres = presentation(lam, mu)
print()
print("presentation summary:")
print(f"    symmetric-difference relations: {len(pres.ideal_i)}")
print(f"    determinant relation terms:     {len(pres.det_relation.terms)}")
print(f"    kernel generators:              {len(pres.kernel)}")
print()
print("a degenerate wall example: mu = 0 is NOT regular for this spectrum:")
bad = is_regular(lam, WeightVector.parse("0,0,0"))
first = bad.walls[0]
print(
    f"    regular={bad.regular}; first wall hit at"
    f" v={first.v} gamma={first.gamma} k={first.k} (tail sum {first.value})"
)
