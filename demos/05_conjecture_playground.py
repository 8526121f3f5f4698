"""The general T_m^n conjecture as executable data.

Its length formula r_n(s,m) specializes to the two proven ladders at
n = 2, and for higher n the engine can run the conjectural schedule and
check it against the conjectural module presentation.  That certifies
internal consistency, not mathematical truth.
"""

from bockstein import compare, r_conj, r_len, t12_profile, t22_profile, tmn_profile
from bockstein.cases import Case

p = 3
print("r_2(s,1) vs r(s,1):", [(r_conj(p, 2, 1, s), r_len(p, s, 1)) for s in range(1, 5)])
print("r_2(s,2) vs r(s,2):", [(r_conj(p, 2, 2, s), r_len(p, s, 2)) for s in range(1, 5)])
print("specialization m=1:", tmn_profile(p, 2, 1, 400) == t12_profile(p, 400))
print("specialization m=2:", tmn_profile(p, 2, 2, 300) == t22_profile(p, 300))

for (n, m) in ((3, 1), (3, 2)):
    case = Case("conj", p, 200, n=n, m=m)
    sched, _, prof = case.run()
    rep = compare(prof, case.oracle(), case.D)
    print(f"conjectural run (p={p}, n={n}, m={m}): pages {sorted(sched.pages)},",
          rep.lines()[0], "[internal consistency only]")
