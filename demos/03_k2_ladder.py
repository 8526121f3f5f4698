"""The v2-Bockstein ladder at p = 2, and why page generators matter.

On late pages the surviving algebra is generated by composite classes such
as λ5 = λ2·μ3^2, so the Leibniz extension must factor monomials over the
page generators: λ2λ3μ3^6 is really λ5·λ6, and it dies under
d_36(λ6·μ3^16) even though its raw mu-exponent 20 is not a multiple of 16.
The engine's per-page attachment map implements exactly that.
"""

from bockstein import compare, run
from bockstein.cases import Case

case = Case("v2", p=2, D=160)
A, sched, w = case.build()
print("pages and lambda-attachments (generator index: attached mu-exponent):")
for r in sorted(sched.pages):
    pg = sched.pages[r]
    att = {A.generators[i].name: c for i, c in sorted(pg.attach.items())}
    print(f"  d_{r} on μ3^{pg.rules[0].source[3]}, attachments {att}")

pages, profile = run(A, sched, w)
print(f"\nselected towers (base degree: lengths):")
for t in (3, 10, 18, 25, 39, 79, 118, 147):
    print(f"  {t}: {[str(x) for x in profile.lengths(t)]}")

print("\nfull certification:", compare(profile, case.oracle(), case.D).lines()[0])
