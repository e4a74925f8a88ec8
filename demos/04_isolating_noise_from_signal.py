"""Send the noise down one arm and the amplified signal down the other.

Adding an orbital splitter in front of the two-arm arrangement tags the
photon with the +1 eigenvector of L_x.  Post-selecting on v_a and an
alpha-dependent polarization separates the observables: sigma_z lives in
the right arm with weak value tan(theta/2) tan(alpha) (two independent
amplification knobs), while the noise observable L_x (x) sigma_x reads
exactly 1 in the left arm and 0 in the right.  Meter fits confirm each
entry of the table.
"""

import numpy as np

from weakmeter import CouplingSpec, pointer_readout, weak_value
from weakmeter.meter import make_meter
from weakmeter.optics import named_state
from weakmeter.weakvalue import observable

meter = make_meter(64, 4.0)


def pointer_fit(variant, pre, post):
    """The pointer fit of the arm-resolved measurement ``variant`` (g = g' = 1e-3, t = 1)."""
    return pointer_readout(CouplingSpec(variant=variant), pre, post, meter)[1]


for theta, alpha in ((np.pi / 2, np.pi / 4), (2 * np.pi / 3, np.pi / 3)):
    pre = named_state("disembody_in", theta=theta)
    post = named_state("disembody_f", alpha=alpha)
    print(f"theta = {theta:.4f}, alpha = {alpha:.4f} "
          f"(tan(theta/2) tan(alpha) = {np.tan(theta / 2) * np.tan(alpha):.4f})")
    for obs_id in ("sigma_z_L", "sigma_z_R", "Lx_sigma_x_L", "Lx_sigma_x_R"):
        value = weak_value(pre, post, observable(obs_id))
        print(f"  {obs_id:<14} weak value {value.real:>9.6f}")
    fit_signal = pointer_fit("measure_sigma_zR_noisy", pre, post)
    fit_noise = pointer_fit("measure_LxSx_L", pre, post)
    fit_silent = pointer_fit("measure_LxSx_R", pre, post)
    print(f"  meter fits: signal {fit_signal.value.real:.6f}, "
          f"noise (left) {fit_noise.value.real:.6f}, "
          f"noise (right) {abs(fit_silent.value):.2e}")
    print()
