"""Exact imaginary Verma module computations over affine Lie algebras.

Layers: cartan/finite (simple algebra from its Cartan matrix, Chevalley basis
with extraspecial-pair structure constants), affine (loop realization, closed
partitions, order-2 twists), verma (imaginary Verma modules and reduced
quotients on truncation windows), category (explicit windowed modules, torsion
splits, membership reports, decomposition into reduced summands), cli.

All arithmetic is exact rational; contexts are immutable and operations pure.
"""

from imverma.affine import (AffineAlgebra, AffineRoot, LoopElement, TwistedSubalgebra,
                            affine_bracket, check_closed_partition,
                            natural_partition_contains, standard_partition_contains)
from imverma.cartan import (CartanMatrix, cartan_matrix_from_text,
                            cartan_matrix_of_type, make_cartan_matrix)
from imverma.category import (ExplicitModule, build_loop_module,
                              check_category_membership,
                              decompose_into_reduced_vermas,
                              extract_annihilated_vector, sl2_irrep_matrices,
                              torsion_decompose)
from imverma.errors import ImvermaError, WindowOverflowError
from imverma.finite import (DiagramAutomorphism, FiniteAlgebra, FiniteElement,
                            build_simple_algebra)
from imverma.verma import (ModuleVector, TruncationWindow, VermaModule, Weight,
                           parse_weight, parse_window)

__version__ = "0.1.0"

__all__ = [
    "AffineAlgebra", "AffineRoot", "CartanMatrix", "DiagramAutomorphism",
    "ExplicitModule", "FiniteAlgebra", "FiniteElement", "ImvermaError",
    "LoopElement", "ModuleVector", "TruncationWindow", "TwistedSubalgebra",
    "VermaModule", "Weight", "WindowOverflowError", "affine_bracket",
    "build_loop_module", "build_simple_algebra", "cartan_matrix_from_text",
    "cartan_matrix_of_type", "check_category_membership", "check_closed_partition",
    "decompose_into_reduced_vermas", "extract_annihilated_vector",
    "make_cartan_matrix", "natural_partition_contains", "parse_weight",
    "parse_window", "sl2_irrep_matrices", "standard_partition_contains",
    "torsion_decompose",
]
