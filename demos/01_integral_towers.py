"""The v0-Bockstein story: from the mod-p input algebra to integral torsion.

E_1 is E(λ1..λ3) ⊗ P(μ3) ⊗ P(v0).  The schedule fires d_{ν2(k)+1} on μ3^k,
Leibniz handles every product, and the surviving towers encode Z-torsion:
a length-k tower at degree t means a Z/2^k summand there.
"""

from bockstein import compare, run
from bockstein.cases import Case

case = Case("v0", p=2, D=58, n=2)
A, sched, w = case.build()
print("input algebra:", ", ".join(f"{g.name} (deg {g.degree})" for g in A.generators))

print("\ndifferential schedule (page: mu-powers):")
for r, rules in sorted(sched.rules.items()):
    print(f"  d_{r} on", ", ".join(f"μ3^{src[3]}" for src, _ in rules))

pages, profile = run(A, sched, w)
print(f"\ncomputed pages E_1 .. E_{pages[-1].r}; towers on 0..{case.D}:")
for line in profile.summary_lines():
    print(" ", line)

report = compare(profile, case.oracle(), case.D)
print("\ncertification against the closed-form torsion module:")
for line in report.lines():
    print(" ", line)
