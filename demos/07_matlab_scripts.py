"""
MATLAB script emission
======================

Tensors print as executable MATLAB assignments so results can be checked
externally: order 1 becomes a column, order 2 a matrix literal, higher
orders nest through cat(p, ...).  Values are read once, in iteration order
(dimension 1 fastest), so the emitted text is identical whatever the
layout or offsets.
"""

import os
import tempfile

from tensorlib import DenseTensor, MatlabScript, emit_tensor, ttv

# The classic check: elements equal to their memory indices, row-major
# style storage.
a = DenseTensor((3, 4, 2), layout=(3, 2, 1))
for j in range(a.size):
    a.set_memory(j, j)
print(emit_tensor(a, "A"))

# Same values, different storage: identical emission.
b = DenseTensor((3, 4, 2))
b.assign(a)
print("layout-invariant text:", emit_tensor(b, "A") == emit_tensor(a, "A"))

# A whole verification script: inputs, our result, and a comparison line
# to run after computing the reference in MATLAB.
vec = DenseTensor((4,), fill_value=1.0)
c = ttv(a, vec, 2)

script = MatlabScript()
script.add_tensor(a, "A")
script.add_tensor(vec, "b")
script.add_tensor(c, "C")
script.add_command("Cref = squeeze(sum(A .* reshape(b, 1, [], 1), 2));")
script.add_command("disp(max(abs(C(:) - Cref(:))));")

path = os.path.join(tempfile.mkdtemp(), "check_ttv.m")
script.write(path)
print("wrote", path)
print("---")
print(script.text(), end="")
