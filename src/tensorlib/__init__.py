"""tensorlib: dense tensors with runtime order, extents, offsets and
storage layout.

The container layer (:class:`DenseTensor`, :class:`TensorView`) gives
layout-transparent element access; the iterator layer
(:class:`MultiIterator`, :class:`StrideIterator`) decouples the algorithm
suites from storage so that elementwise operations and contractions
(``ttv``/``ttm``/``ttt`` and friends) combine operands of arbitrary
layouts, offsets and view-ness, in place and without unfolding.  On
top sit the higher-order power method for best rank-one approximation and
a MATLAB script emitter for external verification.
"""

from .contraction import (
    ContractionSpec,
    frobenius_norm,
    inner_product_tensors,
    outer_product,
    reduce_ttm_to_ttt,
    reduce_ttv_to_ttt,
    times_matrices,
    times_vectors,
    transpose,
    ttm,
    ttt,
    ttv,
)
from .elementwise import (
    CompareResult,
    accumulate,
    all_of,
    any_of,
    compare_ranges,
    copy,
    copy_if,
    count_matching,
    extremum_element,
    fill,
    find_first,
    for_each,
    generate,
    inner_product_flat,
    iota,
    none_of,
    quantify,
    transform_binary,
    transform_unary,
)
from .hopm import DegenerateInputError, HopmState, hopm, rank_one_compose, residual
from .iterators import MultiIterator, StrideIterator, walk_positions
from .layout import (
    TensorMeta,
    compute_strides,
    first_order_layout,
    inverse_memory_index,
    last_order_layout,
    memory_index,
    volume,
    zero_indices,
)
from .matlab_io import MatlabScript, emit_tensor, write_script
from .tensor import DenseTensor, tensors_equal
from .verify import RunConfig, run_verification
from .views import Range, TensorView, classify_view

__version__ = "0.1.0"

__all__ = [
    "CompareResult",
    "ContractionSpec",
    "DegenerateInputError",
    "DenseTensor",
    "HopmState",
    "MatlabScript",
    "MultiIterator",
    "Range",
    "RunConfig",
    "StrideIterator",
    "TensorMeta",
    "TensorView",
    "accumulate",
    "all_of",
    "any_of",
    "classify_view",
    "compare_ranges",
    "compute_strides",
    "copy",
    "copy_if",
    "count_matching",
    "emit_tensor",
    "extremum_element",
    "fill",
    "find_first",
    "first_order_layout",
    "for_each",
    "frobenius_norm",
    "generate",
    "hopm",
    "inner_product_flat",
    "inner_product_tensors",
    "inverse_memory_index",
    "iota",
    "last_order_layout",
    "memory_index",
    "none_of",
    "outer_product",
    "quantify",
    "rank_one_compose",
    "reduce_ttm_to_ttt",
    "reduce_ttv_to_ttt",
    "residual",
    "run_verification",
    "tensors_equal",
    "times_matrices",
    "times_vectors",
    "transform_binary",
    "transform_unary",
    "transpose",
    "ttm",
    "ttt",
    "ttv",
    "volume",
    "walk_positions",
    "write_script",
    "zero_indices",
]
