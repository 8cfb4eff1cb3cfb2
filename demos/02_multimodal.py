"""Multimodal posteriors: every mode is found, weighed, and combined.

Two stories:
  * a 4-mode Gaussian mixture - all modes carry equal weight;
  * a 90/10 asymmetric pair - the search must not lose the minor mode
    even though every sample near it ranks below the major mode's
    flanks.
"""

import numpy as np

from laplev import get_target, preset_config, run

for name, dim in (("mixture4", 2), ("bimodal-asym", 8)):
    target = get_target(name, dim)
    result = run(target.problem, preset_config("conservative", seed=1))
    err = abs(np.expm1(result.log_z_total - target.true_log_integral))
    print(f"=== {name} (d={dim}) ===")
    print(f"log Z {result.log_z_total:+.6f}  analytic "
          f"{target.true_log_integral:+.6f}  ratio error {err:.2e}")
    # Per-mode posterior weight = exp(log_z_k - log_z_total).
    for k, m in enumerate(sorted(result.modes, key=lambda m: -m.log_z)):
        w = np.exp(m.log_z - result.log_z_total)
        head = np.round(m.peak.position[:3], 3)
        print(f"  mode {k}: weight {w:6.1%}  logl {m.peak.logl:+8.4f}  "
              f"at {head}{'...' if dim > 3 else ''}")
    print()
