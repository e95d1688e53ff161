"""Program transformations: Magic Sets and Counting.

The paper's core contribution (factoring) lives in :mod:`repro.core`;
this package holds the transformations it composes with.
"""

from repro import _facade

__getattr__, __dir__, __all__ = _facade(
    __name__,
    {
        "magic": ("MagicResult", "magic_sets", "magic_name"),
        "counting": (
            "CountingResult", "counting", "delete_index_fields",
            "counting_diverges", "refine_counting",
        ),
    },
)
