"""Where is the photon, and where is its polarization?

A photon enters a two-arm interferometer and we condition on one detector.
Weak values then localize the photon itself in the left arm while its
circular-polarization component travels on the right: the projector onto the
left path reads 1 and the right-arm polarization observable reads 1, with
the two complementary readings pinned at 0.
"""

from weakmeter import CouplingSpec, pointer_readout, weak_value
from weakmeter.meter import make_meter
from weakmeter.optics import named_state
from weakmeter.weakvalue import observable

pre = named_state("cheshire_in")
post = named_state("cheshire_f")

print("conditional (weak) values for the balanced arrangement")
print(f"{'observable':<12} {'value':>10}")
for obs_id in ("pi_L", "pi_R", "sigma_z_L", "sigma_z_R"):
    value = weak_value(pre, post, observable(obs_id))
    print(f"{obs_id:<12} {value.real:>10.6f}")

# The same number read off an actual pointer: couple a Gaussian meter to the
# right-arm polarization, post-select, and watch the momentum mean move by
# g times the weak value.
g = 1e-3
meter = make_meter(64, 4.0)
spec = CouplingSpec(variant="measure_sigma_zR", g=g)
readout, _ = pointer_readout(spec, pre, post, meter)
print()
print(f"pointer momentum shift / g = {readout.mean_p / g:.6f}  (weak value 1)")
print(f"post-selection probability = {readout.success_probability:.4f}  (|<f|i>|^2 = 0.25)")
