"""The constructive choice solver on regular Hessenberg matrices."""

from char2spec import GF4
from char2spec.harnesses import choice_lemma_audit
from char2spec.matrix import char_poly, companion, from_rows, mat_add, place, trace
from char2spec.structure import choice_solve
from char2spec.upoly import poly, poly_str

m = companion(poly([0, 1, 1]))  # t^2 + t
target = poly([1, 1, 1])
r = choice_solve(GF4, m, target, p=1)
print(f"M = {m}, target {poly_str(target)}: top-right block {list(r.entries)}")
print("  check:", poly_str(char_poly(GF4, mat_add(m, place(2, 2, 0, 1, r)))))

m3 = from_rows([[1, 2, 3], [1, 0, 1], [0, 2, 1]])
print(f"\nAll 16 trace-{trace(m3)} monic cubics are reachable from M3, both splits:")
hits = 0
for a0 in range(4):
    for a1 in range(4):
        t = poly([a0, a1, trace(m3), 1])
        for p in (1, 2):
            if choice_solve(GF4, m3, t, p) is not None:
                hits += 1
print(f"  {hits} / 32 (target, split) pairs solved")

v = choice_lemma_audit(GF4, n=3, cap=2000, seed=0)
print(f"\nCapped audit over {v.detail['hessenberg_matrices']} Hessenberg matrices: "
      f"{v.outcome} ({v.detail['solved']} solves, {v.detail['failures']} failures)")
