"""The catalogue of named spaces and their verified spectrum properties."""

from char2spec import GF4, check_space, parse_predicate
from char2spec.constructions import CATALOGUE, b2m, build, k2m, mul_space_left, syms
from char2spec.matrix import inverse

print("Catalogue over GF(4): expression, built dimension (stated), claim")
for entry in CATALOGUE:
    print(f"  {entry.expr:<30} dim {build(GF4, entry.expr).dim:>2} ({entry.dim:>2})"
          f"  {entry.pred or '-'}")

print("\nEvery claim checked over GF(4):")
for entry in CATALOGUE:
    if entry.pred is not None:
        v = check_space(GF4, build(GF4, entry.expr), parse_predicate(entry.pred),
                        budget=1 << 20, samples=20_000, seed=0)
        print(f"  {entry.expr:<30} {entry.pred:<11} {v.outcome} ({v.mode}, {v.checked} elements)")

k = k2m(GF4, 2)
same = b2m(GF4, 2) == mul_space_left(GF4, inverse(GF4, k), syms(GF4, 4))
print(f"\nb2m(2) equals K^-1 * Mats_4 as canonical subspaces: {same}")
