"""Finite grid abstractions of contractive stochastic control systems.

The pipeline: describe a controlled diffusion in a small text format
(sysdsl), verify a quadratic contraction certificate and derive the
bound functions it induces (certify, cmpfun), pick quantization
parameters and build the finite transition system of the sampled
dynamics (gridabs), compose abstractions over an interconnection network
(netcomp), decide disturbance bisimilarity between finite systems
(bisimcheck), and validate every moment bound by seeded Monte-Carlo
simulation (mcvalidate).

The package root holds no other names: import from the submodules,
e.g. ``from stochabs import gridabs`` or ``from stochabs.sysdsl import load``.
"""

__version__ = "0.1.0"
