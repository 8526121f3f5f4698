"""The v2-Bockstein ladder at p = 2, and why page generators matter.

On late pages the surviving algebra is generated by composite classes such
as λ5 = λ2·μ3^2, so the Leibniz extension must factor monomials over the
page generators: λ2λ3μ3^6 is really λ5·λ6, and it dies under
d_36(λ6·μ3^16) even though its raw mu-exponent 20 is not a multiple of 16.
So each page states its generators: the live λi, each with the power of μ3
attached to it, and the power of μ3 its one rule fires on.  A monomial that
does not factor over them supports nothing on that page.
"""

from bockstein import compare, run
from bockstein.cases import Case
from bockstein.jsonio import monomial_str

case = Case("v2", p=2, D=160)
A, sched, w = case.build()
mu = A.ngens - 1
print("page generators, the one d_r fires on first:")
for r, pg in sorted(sched.pages.items()):
    (rule,) = pg.rules
    live = [tuple(1 if j == i else c if j == mu else 0 for j in range(A.ngens))
            for i, c in sorted(pg.attach.items())]
    print(f"  E_{r}:", ", ".join(monomial_str(A, m) for m in [rule.source] + live))

pages, profile = run(A, sched, w)
print(f"\nselected towers (base degree: lengths):")
for t in (3, 10, 18, 25, 39, 79, 118, 147):
    print(f"  {t}: {[str(x) for x in profile.lengths(t)]}")

print("\nfull certification:", compare(profile, case.oracle(), case.D).lines()[0])
