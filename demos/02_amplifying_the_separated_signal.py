"""Amplify the separated polarization signal by tuning the input polarization.

Preparing cos(theta/2)|H> + sin(theta/2)|V> and running it through the
polarizing splitter, the right-arm half waveplate and a pi phase shifter
yields the pre-selected state cos(theta/2)|L,H> - i sin(theta/2)|R,H>.
The right-arm polarization weak value is then tan(theta/2): past
theta = pi/2 it leaves the [-1, 1] eigenvalue range entirely, while the
photon's left-arm localization and the x-component quartet stay pinned.
"""

import numpy as np

from weakmeter import weak_value
from weakmeter.optics import named_state
from weakmeter.weakvalue import observable

post = named_state("amp_f")
print(f"{'theta':>10} {'sigma_z_R':>12} {'tan(theta/2)':>14} {'pi_L':>6} {'sigma_x_L':>10}")
for theta in (np.pi / 6, np.pi / 4, np.pi / 2, 2 * np.pi / 3, 0.9 * np.pi):
    pre = named_state("amp_in", theta=theta)
    rows = {obs_id: weak_value(pre, post, observable(obs_id))
            for obs_id in ("sigma_z_R", "pi_L", "sigma_x_L")}
    print(f"{theta:>10.4f} {rows['sigma_z_R'].real:>12.6f} {np.tan(theta / 2):>14.6f}"
          f" {rows['pi_L'].real:>6.2f} {rows['sigma_x_L'].real:>10.2f}")

