"""Build the shared latent space with pairwise symmetric InfoNCE and probe
it with cross-modal retrieval.

Run:  python3 demos/03_contrastive_alignment.py   (about one minute)
"""

import numpy as np

from crossgen import toydata as td
from crossgen.bridging import (PromptEncoders, retrieval_eval,
                               train_alignment)

ds = td.generate_dataset(seed=5, n=1200, positive_rates=[0.5] * 5)
encoders = PromptEncoders(dim=32, hidden=128, seed=5)

print("untrained retrieval (chance is 1/32 at batch 32):")
before = retrieval_eval(encoders, ds.subset("test"), batch_size=32, seed=0)
for key, value in before.items():
    print(f"  {key}: {value:.4f}" if isinstance(value, float) else f"  {key}: {value}")

history = train_alignment(ds, encoders, epochs=25, batch_size=64, lr=1e-3,
                          tau=0.07, seed=5)
by_epoch = {}
for row in history:
    by_epoch.setdefault(row["epoch"], []).append(row["loss"])
for epoch in (0, 5, 15, 24):
    print(f"epoch {epoch:2d}  mean symmetric InfoNCE {np.mean(by_epoch[epoch]):.3f}")

print("\ntrained retrieval:")
after = retrieval_eval(encoders, ds.subset("test"), batch_size=32, seed=0)
for key, value in after.items():
    if isinstance(value, float):
        print(f"  {key}: {value:.4f}")

# All embeddings are unit vectors, so dot product == cosine similarity.
h_img = encoders.encode_batch("view_a", [ds.records[0].view_a])[0]
h_txt, other = encoders.encode_batch("report", [r.report for r in ds.records[:2]])
print(f"\ncos(view_a, own report)   = {h_img @ h_txt:+.3f}")
print(f"cos(view_a, other report) = {h_img @ other:+.3f}")
