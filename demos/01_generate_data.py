"""Sample a noisy gaussian mixture and inspect its geometry.

Features are x = y_clean * mu + xi with standard gaussian coordinates xi,
and each label is flipped independently with probability eta.  The mean mu
points along the all-ones direction with norm d**r, so r controls how much
signal survives the d-dimensional noise.
"""

import tempfile
from pathlib import Path

import numpy as np

from advlab import (
    MixtureSpec,
    PerturbationModel,
    check_assumptions,
    generate,
    geometry_constant,
    load_dataset_csv,
    mu_from_scaling,
    save_dataset_csv,
    standard_margin,
)

spec = MixtureSpec(d=500, mu=mu_from_scaling(500, 0.35), eta=0.1, seed=0)
ds = generate(spec, 40)

print(f"n={ds.n} d={ds.d}  ||mu||_2 = {np.linalg.norm(spec.mu):.3f} = 500^0.35")
print(f"flipped labels: {len(ds.noise_indices)} of {ds.n} (eta={spec.eta})")

# squared norms concentrate around d, their spread is the geometry constant
sq = np.sum(ds.features**2, axis=1)
print(f"||x||^2 / d over samples: min={sq.min()/ds.d:.3f} max={sq.max()/ds.d:.3f}")
print(f"geometry constant c0 = {geometry_constant(ds):.3f}")

model = PerturbationModel(2.0, 0.1)
rep = check_assumptions(ds, model, standard_margin(ds, model.q).value)
print(f"separable={rep.separable} dimension_ok={rep.dimension_ok}")
print(
    f"  (dimension check wants d >= {rep.dimension_threshold:.0f} for n={ds.n};"
    " the theory regime is far more overparameterized than this demo)"
)

path = str(Path(tempfile.gettempdir()) / "advlab_demo_dataset.csv")
save_dataset_csv(ds, path)
assert load_dataset_csv(path).features.tobytes() == ds.features.tobytes()
print(f"wrote {path} (y,clean_y,x_0,...) for external tools; it reloads bit-exactly")
