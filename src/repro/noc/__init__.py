"""2-D mesh network-on-chip with XY routing.

Geometry and route caching live in :mod:`repro.noc.mesh`; the per-link
reservation hot loop lives behind the swappable kernel boundary of
:mod:`repro.noc.kernel` (registry :data:`repro.registry.NOC_KERNELS`).
"""

from repro.noc.kernel import NOC_KERNELS, CompiledKernel, ReferenceKernel
from repro.noc.mesh import MeshNoC, Message, resolve_kernel_name

__all__ = ["CompiledKernel", "MeshNoC", "Message", "NOC_KERNELS",
           "ReferenceKernel", "resolve_kernel_name"]
