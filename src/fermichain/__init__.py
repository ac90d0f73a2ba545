"""Graded observable algebras, thermal states, and stability checks on
finite fermion chains.

Everything lives on a chain of at most twelve sites, represented exactly in
the occupation basis.  The layers, bottom to top:

- :mod:`fermichain.regions` — site subsets of a chain, the index language
  every other layer speaks;
- :mod:`fermichain.car` — local elements held on their support as small
  (``2**|S|``-square) representations, with the dense matrix as a view and
  one checked constructor for dense input; annihilators with the
  anticommutation relations, the fermion grading, and local structure
  through one fermionic mode reordering: small representations (partial
  traces), their inverse embeddings, conditional expectations onto local
  algebras; trace-orthogonal monomial bases, kept as the tests' oracle;
- :mod:`fermichain.potentials` — interactions as local terms held on their
  supports, their standard form, local and total Hamiltonians;
- :mod:`fermichain.states` — density states: Gibbs, decoupled
  equilibria, restrictions, noneven perturbations, and a vector state that
  is even outside one site yet maximally noneven on it;
- :mod:`fermichain.entropy` — relative and conditional entropy;
- :mod:`fermichain.stability` — the local free energy, projections onto
  the constraint algebras (the complement's algebra and the region's
  commutant), variational checks of local thermal stability with the
  constrained free-energy maximizer, and the pipeline showing noneven
  states lose free energy strictly;
- :mod:`fermichain.probes` — symmetry probes: clustering, grading
  asymmetry, odd-correlation scans;
- :mod:`fermichain.cli` — the ``fermichain`` command.

The only dependency is NumPy; :mod:`fermichain.kernels` holds the column-map
gather/scatter operations of the monomial oracle, which only the tests use.
"""

from .car import (AlgebraElement, Monomial, MonomialBasis, annihilator,
                  embed, mode_reordering, monomial_basis, random_element,
                  small_representation, theta)
from .entropy import (EntropyValue, conditional_entropy, relative_entropy,
                      restricted_relative_entropy)
from .kernels import BACKEND
from .potentials import (MODELS, Potential, PotentialReport, build_model,
                         hopping_model, local_hamiltonian,
                         potential_from_records, prune,
                         random_standard_potential, raw_number_model,
                         standardize, total_hamiltonian, tv_model,
                         validate_potential)
from .probes import (ProbeResult, cluster_coefficient, grading_asymmetry,
                     purely_imaginary_check, scan_odd_correlations)
from .regions import MAX_SITES, Region
from .stability import (ConstraintProjection, MaximizerInfo, StabilityReport,
                        feasible_sampler, free_energy, lts_check,
                        prop4_pipeline)
from .states import (DensityState, FactorState, RestrictedState, gibbs_state,
                     kms_residual, noneven_perturbation, odd_direction,
                     perturbed_state, product_check, random_pair_panel,
                     remark2_construct, remark2_restriction_defect, restrict)

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "BACKEND", "ConstraintProjection", "DensityState",
    "EntropyValue", "FactorState", "MAX_SITES", "MODELS",
    "MaximizerInfo", "Monomial", "MonomialBasis", "Potential",
    "PotentialReport", "ProbeResult", "Region", "RestrictedState",
    "StabilityReport", "annihilator", "build_model",
    "cluster_coefficient", "conditional_entropy", "embed",
    "feasible_sampler", "free_energy", "gibbs_state",
    "grading_asymmetry", "hopping_model",
    "kms_residual", "local_hamiltonian", "lts_check",
    "mode_reordering", "monomial_basis",
    "noneven_perturbation", "odd_direction",
    "perturbed_state", "potential_from_records", "product_check",
    "prop4_pipeline", "prune", "purely_imaginary_check", "random_element",
    "random_pair_panel", "random_standard_potential", "raw_number_model",
    "relative_entropy", "remark2_construct", "remark2_restriction_defect",
    "restrict", "restricted_relative_entropy", "scan_odd_correlations",
    "small_representation", "standardize", "theta", "total_hamiltonian",
    "tv_model", "validate_potential", "__version__",
]
