"""symidx: symplectic path indices, Chern numbers from clutching data,
Hamiltonian periodic orbits, and GF(2) Morse / cascade chain complexes."""

from .errors import SymidxError
from .splin import (
    SymmetricFamily,
    SymmetricFamily2,
    SymplecticMatrix,
    SymplecticPath,
    classify_eigenvalues,
    constant_path,
    exp_path,
    is_symplectic,
    path_from_symmetric,
    recover_symmetric,
    rho,
    rotation_path,
    standard_j,
)
from .index import (
    IndexValue,
    WindingInterval,
    cz_degree_sp2,
    cz_rs,
    cz_winding,
    loop_operator_spectral_flow,
    maslov_loop,
    rs_index,
    spectral_flow_matrix,
)
from .chern import ClutchingData, c1_from_clutching, c1_lagrangian_loop, check_c1_axioms
from .hamdyn import (
    HamiltonianSystem,
    PeriodicOrbit,
    find_periodic_orbit,
    ham_vector_field,
    harmonic_system,
    integrate,
    monodromy_and_cz,
    pendulum_system,
    prime_period,
    twist_fixed_points,
)
from .chain import (
    ChainComplex,
    ChainMap,
    MorseBottData,
    action_spectrum,
    build_complex,
    cascade_complex,
    cohomology,
    homology,
    rfh_unit_sphere,
    verify_continuation,
)
from .axioms import run_axiom_suite

__version__ = "0.1.0"
