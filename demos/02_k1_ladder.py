"""The v1-Bockstein ladder at p = 3.

One differential per power of mu3: d_{r(n,1)} kills mu3^{p^{n-1}} into
v1^{r(n,1)} times a recursively defined lambda-class.  The lengths r(n,1)
and the lambda degrees obey the exact identity
|mu^{p^{n-1}}| - 1 - d(n+1,1) = |v1| * r(n,1).
"""

from bockstein import LambdaFamily, compare, d_deg, r_len
from bockstein.cases import Case

p, D = 3, 130
print("ladder lengths r(n,1):", [r_len(p, n, 1) for n in range(1, 5)])
print("target degrees d(n,1):", [d_deg(p, n, 1) for n in range(1, 6)])

family = LambdaFamily(p, 2, 1)
for s in range(4, 7):
    base, e = family.entry(s)
    print(f"  λ{s} unrolls to λ{base}·μ3^{e}  (degree {family.degree(s)})")

case = Case("v1", p, D)
_, pages, profile = case.run()
print(f"\ntowers on 0..{D} (length k = P(v1)/v1^k summand, inf = free):")
for line in profile.summary_lines():
    print(" ", line)

print("\ncertification:", compare(profile, case.oracle(), D).lines()[0])
