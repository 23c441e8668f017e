"""
Tensor multiplication suite
===========================

ttv, ttm and ttt contract tensors on one engine of fiber dot products,
with no unfolding: the mode and the operand orders are plain runtime
values.
The general tensor-tensor product subsumes the rest.
"""

import random

from tensorlib import (
    ContractionSpec,
    DenseTensor,
    frobenius_norm,
    inner_product_tensors,
    outer_product,
    reduce_ttv_to_ttt,
    tensors_equal,
    times_vectors,
    transpose,
    ttm,
    ttt,
    ttv,
)

rng = random.Random(1)


def randomize(t):
    t.data = [rng.randint(-4, 4) for _ in range(t.size)]
    return t


a = randomize(DenseTensor((3, 4, 2), layout=(2, 3, 1)))

# Tensor times vector: the contracted mode is a runtime argument.
b = randomize(DenseTensor((4,)))
for mode in (1, 2, 3):
    vec = randomize(DenseTensor((a.shape[mode - 1],)))
    print(f"ttv mode {mode}: {a.shape} x ({a.shape[mode-1]},) -> {ttv(a, vec, mode).shape}")

# Tensor times matrix replaces one extent.
m = randomize(DenseTensor((5, 4)))
print("ttm mode 2:", a.shape, "x", m.shape, "->", ttm(a, m, 2).shape)

# The general product: free dims of A (phi order), free dims of B (psi
# order), contracted pairs last in each permutation.
bt = randomize(DenseTensor((4, 3, 5), layout=(3, 1, 2)))
spec = ContractionSpec(2, (3, 1, 2), (3, 2, 1))
c = ttt(a, bt, spec)
print("ttt contracting two dimension pairs:", a.shape, "x", bt.shape, "->", c.shape)

# ttv is the one-pair special case of ttt.
vec = randomize(DenseTensor((4,)))
same = tensors_equal(ttv(a, vec, 2), ttt(a, vec, reduce_ttv_to_ttt(3, 2)))
print("ttv equals its ttt reduction:", same)

# Outer and inner products are the q = 0 and r = s = 0 corners.
u = randomize(DenseTensor((2,)))
w = randomize(DenseTensor((3,)))
print("outer product shape:", outer_product(u, w).shape)
pair = randomize(DenseTensor((3, 4, 2)))
print("<a, pair> =", inner_product_tensors(a, pair))
print("||a||_F =", round(frobenius_norm(a), 6))

# Transposition is a permuted copy.
print("transpose (2,1,3):", a.shape, "->", transpose(a, (2, 1, 3)).shape)

# Sequenced contractions: highest mode first, so positions stay put.
ones = [DenseTensor((n,), fill_value=1) for n in a.shape]
total = times_vectors(a, ones, [1, 2, 3])
print("contracting every mode with ones sums all elements:",
      total.item() == sum(a.data))
