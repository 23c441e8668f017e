"""
Stride-based and multidimensional iterators
===========================================

Iterators decouple algorithms from storage.  A stride iterator walks one
dimension; a multi iterator hands out stride iterator pairs per dimension
and lets nested loops cover the whole index set of any layout.
"""

from tensorlib import DenseTensor, walk_positions
from tensorlib.iterators import fill_range, inner_product_range

a = DenseTensor((4, 3, 2))
print("shape (4,3,2), default layout, strides:", a.strides)

# The dimension-2 fiber through the origin: memory indices 0, 4, 8.
it, end = a.dim_begin(2), a.dim_end(2)
positions = []
while it != end:
    positions.append(it.pos)
    it.advance()
print("fiber positions along dimension 2:", positions)

# Ranges work like ordinary iterator pairs: fill one fiber with 5.
fill_range(a.dim_begin(2), a.dim_end(2), 5.0)
print("fiber after fill:", [a.get_memory(p) for p in positions])

# Fibers of different tensors combine; layouts don't have to match.
b = DenseTensor((3, 5), layout=(2, 1))
for j in range(b.size):
    b.set_memory(j, 1)
dot = inner_product_range(a.dim_begin(2), a.dim_end(2), b.dim_begin(1), 0.0)
print("fiber dot product:", dot)

# The iteration order: dimension p outermost, dimension 1 innermost.
# walk_positions lists the memory indices the fiber planner visits in that
# order; it touches every memory index exactly once whatever the
# permutation.
for layout in ((1, 2, 3), (3, 2, 1), (2, 3, 1)):
    t = DenseTensor((2, 2, 2), layout=layout)
    print(f"layout {layout}: visit order {walk_positions(t.miter())}")

# Written out by hand, the walk is three nested while loops:
t = DenseTensor((2, 3, 2), layout=(2, 1, 3))
cursor = t.miter()
count = 0
f2, e2 = cursor.begin(2), cursor.end(2)
while f2 != e2:
    cursor.move_to(f2)
    f1, e1 = cursor.begin(1), cursor.end(1)
    while f1 != e1:
        cursor.move_to(f1)
        f0, e0 = cursor.begin(0), cursor.end(0)
        while f0 != e0:
            f0.value = count
            count += 1
            f0.advance()
        f1.advance()
    f2.advance()
print("elements written by the hand-rolled loops:", count, "of", t.size)
