"""Train a conditional latent diffusion generator under multi-prompt
conditioning and sample images from a text prompt.

The conditioning subset is resampled uniformly per record among the
non-empty subsets of the available prompt modalities and combined convexly
into one conditioning vector.

Run:  python3 demos/04_multi_prompt_diffusion.py   (a few minutes)
"""

import numpy as np

from crossgen import toydata as td
from crossgen.bridging import PromptEncoders, train_alignment
from crossgen.conditioning import SubsetSampler
from crossgen.diffusion import (ImageCodec, make_schedule, noise_stream,
                                sample, train_ldm)
from crossgen.rng import stream

ds = td.generate_dataset(seed=9, n=1200, positive_rates=[0.5] * 5)
train = ds.subset("train")

# stage a: shared latent space
encoders = PromptEncoders(dim=32, hidden=128, seed=9)
train_alignment(ds, encoders, epochs=25, batch_size=64, seed=9)
print("alignment done")

# the subset sampler behind multi-prompt training: with two available
# prompt modalities there are three equally likely conditioning tasks
sampler = SubsetSampler(["view_b", "report"], stream(9, "demo"))
draws = [sampler.sample_subset() for _ in range(9)]
print("subset draws:", draws)

# frozen image codec: 16 patches of 4x4 pixels -> 64-dim latent
codec = ImageCodec(seed=9, hidden=48)
codec.fit(np.stack([r.view_a for r in train] + [r.view_b for r in train]),
          epochs=60, seed=9)
print(f"codec held-out mse: "
      f"{codec.reconstruction_mse(np.stack([r.view_a for r in ds.subset('test')])):.5f}")

# stage b: the conditional denoiser against the noise-prediction objective
schedule = make_schedule(100, 1e-3, 0.2)
denoiser, history = train_ldm(ds, "view_a", encoders, codec, schedule,
                              epochs=120, batch_size=64, lr=2e-3,
                              hidden=128, n_blocks=2, attn_dim=32, seed=9)
print(f"diffusion loss {history[0]:.1f} -> {history[-1]:.2f}")

# text -> image: render a prompt report for chosen conditions, embed it,
# run ancestral sampling, decode
labels = np.array([1, 0, 0, 1, 0], dtype=np.uint8)
prompt = td.render_report(labels, style_seed=17)
print("\nprompt:", " ".join(prompt))
omega = encoders.encode_batch("report", [prompt])
images = sample(denoiser, schedule, omega, codec, noise_stream(123, "demo"))

ramp = " .:-=+*#%@"
for row in images[0]:
    print("".join(ramp[min(int(v * 9 + 0.5), 9)] for v in row))
print("expected glyph boxes:", [td.condition_box(k, 'view_a') for k in range(5)
                                if labels[k]])
