"""What a pointer really registers when spin-orbit noise rides the coupling.

During a polarization measurement an extra orbital-polarization term
g' L_x (x) sigma_x acts for the whole measurement window.  First-order
bookkeeping predicts the effective weak value (g't + i) tan(alpha); the
exact evolution tells a sharper story: the preparation is an eigenstate of
the noise operator, so noise acting before the kick only contributes a
phase and the fitted pointer response stays at i tan(alpha).  Placing the
kick before the noise instead rotates the response to i tan(alpha) e^{2i g't}.
This script shows all three, plus the residual that certifies each fit.
"""

import numpy as np

from weakmeter import CouplingSpec, pointer_readout, weak_value
from weakmeter.meter import make_meter
from weakmeter.optics import named_state
from weakmeter.weakvalue import observable

alpha = np.pi / 4
g = 1e-3
meter = make_meter(64, 4.0)
pre = named_state("noisy_in")
post = named_state("noisy_f", alpha=alpha)

print(f"alpha = pi/4, g = {g}")
print(f"{'g_prime*t':>10} {'formula (g.t+i)tan':>22} {'fit, noise->kick':>20} "
      f"{'fit, kick->noise':>20}")
for gpt in (0.02, 0.05, 0.1):
    formula = weak_value(pre, post, observable("effective_spin_orbit", gprime_t=gpt))
    fits = {}
    for label, kick_time in (("end", None), ("start", 0.0)):
        spec = CouplingSpec(variant="spin_orbit", g=g, gprime=gpt, t=1.0,
                            kick_time=kick_time)
        _, fit = pointer_readout(spec, pre, post, meter)
        fits[label] = fit.value
    print(f"{gpt:>10.3f} {formula:>22.6f} {fits['end']:>20.6f} {fits['start']:>20.6f}")

print()
print("kick->noise prediction: i tan(alpha) exp(2i g't); noise->kick: i tan(alpha)")
print("the formula's extra real part g't tan(alpha) never appears in the meter")
