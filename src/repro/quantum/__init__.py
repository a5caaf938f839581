"""From-scratch quantum-computing substrate, with no external quantum SDK.

Import the submodule that holds what you need:

``statevector``, ``circuit``, ``gates``, ``library``
    dense statevector simulation and the circuit IR behind the circuit
    QPE backend and fig2's cross-check (QFT and its inverse);
``phase_estimation``
    the QPE circuit and the closed-form readout distribution the
    analytic backend samples;
``pauli``, ``hamiltonian``
    Pauli decomposition, exact and Trotterized evolution (ablation A1);
``noise``
    Monte-Carlo gate and readout noise (ablation A3);
``measurement``
    the finite-shot vector-state tomography model of the readout stage;
``resources``
    gate and qubit step counts for the runtime-scaling figure.
"""
