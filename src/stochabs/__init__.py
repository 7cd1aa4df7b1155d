"""Finite grid abstractions of contractive stochastic control systems.

The pipeline: describe a controlled diffusion in a small text format
(sysdsl), verify a quadratic contraction certificate and derive the
bound functions it induces (certify, cmpfun), pick quantization
parameters and build the finite transition system of the sampled
dynamics (gridabs), compose abstractions over an interconnection network
(netcomp), decide disturbance bisimilarity between finite systems
(bisimcheck), and validate every moment bound by seeded Monte-Carlo
simulation (mcvalidate).
"""

from .bisimcheck import RelationTable, check_relation, largest_bisimulation
from .certify import (
    BoundKit,
    QuadraticCertificate,
    derive_bounds,
    increment_constant,
    neighbor_drift_bound,
    noise_gap_bound,
    pitch_upper_bound,
    precision_lower_bound,
    verify_certificate,
)
from .cmpfun import Compose, KLFunction, PowerLaw, Zero
from .errors import StochabsError
from .gridabs import (
    FiniteAbstraction,
    Lattice,
    build_abstraction,
    deserialize,
    flow_nominal,
    quantize,
    read_abstraction,
    snap_input_pitch,
    snap_state_pitch,
)
from .mcvalidate import (
    simulate_em,
    simulate_ensemble,
    validate_bisim_step,
    validate_delta_iss,
    validate_increment_bound,
    validate_moment_closeness,
    validate_moments,
)
from .netcomp import (
    build_node_abstraction,
    build_wtilde,
    compose_abstractions,
    composed_relation_params,
    eps_tilde_vec,
    neighbors_of_set,
    psi_bound,
    synthesize_params,
)
from .sysdsl import NetworkSpec, SysModel, check_regularity, load, parse_network, parse_system

__version__ = "0.1.0"
