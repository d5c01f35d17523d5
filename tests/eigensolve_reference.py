"""Reference Rayleigh-Ritz loop for the gradient-flow eigensolver.

The loop of ``kahler.eigensolve_gradient_flow`` written with the plain
numpy calls: an (n, k) basis grown by ``column_stack``, norms from
``np.linalg.norm`` and Gram-Schmidt by matrix products, applied twice.  The
library's loop does the same steps with a preallocated basis and scalar
norms, so it must take the same number of iterations and agree on the
eigenvalue to rounding level.  Inputs are not validated here.
"""

import numpy as np

from geomqm.kahler import HISTORY_POINTS, STALL_WINDOW, TAU_DEPENDENT, EigensolveResult
from geomqm.kernel import NumericalError


def reference_eigensolve(a, psi0, tol=1e-9, max_iter=100_000, direction="descent"):
    a = np.asarray(a, dtype=complex)
    psi = np.asarray(psi0, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    stop = tol * np.linalg.norm(a)
    pick = -1 if direction == "ascent" else 0
    step = np.zeros_like(psi)
    history = []
    residual, halved_at, target = np.inf, 0, np.inf
    for it in range(max_iter + 1):
        apsi = a @ psi
        ev = float(np.vdot(psi, apsi).real)
        r = apsi - ev * psi
        residual = float(np.linalg.norm(r))
        history.append(residual)
        if residual <= stop:
            keep = np.linspace(0, it, min(it + 1, HISTORY_POINTS)).round().astype(int)
            return EigensolveResult(ev, psi, it, residual, [history[k] for k in keep])
        if residual < target:
            halved_at, target = it, residual / 2
        elif it - halved_at >= STALL_WINDOW:
            raise NumericalError(f"gradient flow stalled at iteration {it}", residual)
        basis = psi[:, None]
        for v in (r, step):
            scale = np.linalg.norm(v)
            for _ in range(2):
                v = v - basis @ (basis.conj().T @ v)
            norm = np.linalg.norm(v)
            if norm > TAU_DEPENDENT * scale:
                basis = np.column_stack([basis, v / norm])
        c = np.linalg.eigh(basis.conj().T @ (a @ basis))[1][:, pick]
        psi = basis @ c
        psi = psi / np.linalg.norm(psi)
        step = basis[:, 1:] @ c[1:]
    raise NumericalError("gradient flow did not converge", residual)
