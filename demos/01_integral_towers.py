"""The v0-Bockstein story: from the mod-p input algebra to integral torsion.

E_1 is E(λ1..λ3) ⊗ P(μ3) ⊗ P(v0).  The schedule is the ladder (2, 0):
step s states one rule on page s, on a page generator:
d_s(μ3^{2^(s-1)}) = v0^s λ_{2+s}, where λ_{2+s} = λ3 μ3^{2^(s-1)-1}.  Leibniz
extends it to d_{ν2(k)+1}(μ3^k) = v0^{ν2(k)+1} μ3^{k-1} λ3 and to every
product, and the surviving towers encode Z-torsion: a length-k tower at
degree t means a Z/2^k summand there.
"""

from bockstein import compare, run
from bockstein.cases import Case
from bockstein.jsonio import monomial_str

case = Case("v0", p=2, D=58, n=2)
A, sched, w = case.build()
print("input algebra:", ", ".join(f"{g.name} (deg {g.degree})" for g in A.generators))

Av = A.adjoin(sched.v)
print("\ndifferential schedule (one generator rule per page):")
for r, pg in sorted(sched.pages.items()):
    for rule in pg.rules:
        target = " + ".join(monomial_str(Av, m) for m in rule.target)
        print(f"  d_{r}({monomial_str(A, rule.source)}) = {target}")

pages, profile = run(A, sched, w)
print(f"\ncomputed pages E_1 .. E_{pages[-1].r}; towers on 0..{case.D}:")
for line in profile.summary_lines():
    print(" ", line)

report = compare(profile, case.oracle(), case.D)
print("\ncertification against the closed-form torsion module:")
for line in report.lines():
    print(" ", line)
