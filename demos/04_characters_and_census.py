"""From finite character theory to curve counting.

The permutation module on surjections (Z/p^n)^2 ->> Z/p^n splits into
characters induced from the Borel subgroup; its fixed points under a
combined matrix/unit action compute the semisimple trace at an ordinary
point, while the supersingular trace uses the Steinberg dimension.  The
same numbers drive the census of elliptic curves with level structure.
"""

from gl2lab.curves import (boundary_orbit_report, boundary_ss_trace,
                           enumerate_curves, level_m_count, ss_lefschetz)
from gl2lab.finitegl2 import (FiniteGL2, drinfeld_module_character,
                              induced_character, ss_trace_point,
                              steinberg_character)

p, n = 3, 1
G = FiniteGL2(p, n)
print(f"GL2(Z/{p**n}): order {G.order}, {len(G.class_reps)} classes")
dr = drinfeld_module_character(p, n)
print(f"surjection permutation character degree: {dr.degree()}")
for chi in G.characters():
    print(f"  induced from {chi}: degree {induced_character(G, chi).degree()}")
st = steinberg_character(p, n)
print(f"Steinberg degree: {st.degree()}, norm <St, St> = {st.inner(st)}")
print()

print("semisimple point traces at (p, r, n) = (3, 1, 1):")
print("  supersingular:", ss_trace_point("supersingular", 3, 1, 1))
for a in (1, 2):
    print(f"  ordinary, eigenvalue residue {a}:",
          ss_trace_point("ordinary", 3, 1, 1, a=a))
print()

q, m = 7, 3
print(f"census over F_{q} with level {m}:")
for E in enumerate_curves(q):
    pts = level_m_count(E, m)
    if pts:
        print(f"  curve {E.a}: trace {E.trace}, |Aut| {E.aut_order}, "
              f"{pts} moduli points")
rep = ss_lefschetz(q, 1, 1, m)
print(f"level-{m} moduli points: {rep.moduli_points}")
print(f"semisimple Lefschetz total at n=1: {rep.total}")
print(f"boundary term: {rep.boundary}")
packets, fixed, ok = boundary_orbit_report(q, 1, 1, m)
print(f"boundary packets by direct enumeration: {packets} "
      f"(fixed: {fixed}, sizes ok: {ok})")
assert boundary_ss_trace(q, 1, 1, m) == packets == fixed
