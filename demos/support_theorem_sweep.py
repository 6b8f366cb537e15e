"""Exhaustive support verification at small ranks.

For every pair (w, gamma) in S_n x S_n the support of the permuted class is
compared with the permuted Bruhat interval {v : v <=_gamma w}. Both sets are
computed once per base class u = gamma^{-1}w, point by point, and relabelled
by gamma for the other pairs. Rank 4 already covers 576 pairs with 24
restriction points each.

Run with:  python3 demos/support_theorem_sweep.py
"""

import time

from kflag import verify_support_theorem

for n in (2, 3, 4):
    t0 = time.perf_counter()
    report = verify_support_theorem(n)
    elapsed = time.perf_counter() - t0
    print(f"rank {n}: {report.summary()}  ({elapsed:.2f}s)")
    assert report.all_passed

print()
print("sample report entry (rank 3, last pair):")
report = verify_support_theorem(3)
entry = report.to_json_obj()[-1]
for key, value in entry.items():
    print(f"    {key}: {value}")

print()
print("the rank-5 sweep (14400 pairs) is reachable the same way:")
print("    verify_support_theorem(5)   # or: kflag verify --n 5  (serial, a few seconds)")
