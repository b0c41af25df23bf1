"""Couple two frozen diffusion generators through trainable projections and
coupling adapters (one-token cross-attention, a linear map of the partner's
projected latent) so one prompt yields a coherent (image, report) pair.

Run:  python3 demos/05_joint_generation.py   (several minutes)
"""

import numpy as np

from crossgen import toydata as td
from crossgen.bridging import PromptEncoders, train_alignment
from crossgen.diffusion import (ImageCodec, TextCodec, make_schedule,
                                noise_stream, sample, train_ldm)
from crossgen.jointgen import joint_sample, train_joint

ds = td.generate_dataset(seed=13, n=1200, positive_rates=[0.5] * 5)
train = ds.subset("train")

encoders = PromptEncoders(dim=32, hidden=128, seed=13)
train_alignment(ds, encoders, epochs=25, batch_size=64, seed=13)

img_codec = ImageCodec(seed=13, hidden=48)
img_codec.fit(np.stack([r.view_a for r in train] + [r.view_b for r in train]),
              epochs=60, seed=13)
txt_codec = TextCodec(seed=13, latent_dim=32, hidden=128)
txt_codec.fit([r.report for r in train], epochs=100, seed=13)
codecs = {"view_a": img_codec, "view_b": img_codec, "report": txt_codec}

schedule = make_schedule(100, 1e-3, 0.2)
bases = {}
for m in ("view_a", "report"):
    bases[m], hist = train_ldm(ds, m, encoders, codecs[m], schedule,
                               epochs=120, batch_size=64, lr=2e-3, hidden=128,
                               n_blocks=2, attn_dim=32, seed=13)
    print(f"base {m}: loss {hist[0]:.1f} -> {hist[-1]:.2f}")

# stage c: freeze the bases, train projections + coupling adapters with the
# summed coupled losses plus a contrastive term between the projections
components, jhist, _ = train_joint(ds, ("view_a", "report"), encoders, codecs,
                                   bases, schedule, epochs=30, batch_size=64,
                                   lr=1e-3, coupling_dim=16, proj_hidden=32,
                                   lam=0.1, tau=0.07, seed=13)
print(f"joint loss {jhist[0]:.2f} -> {jhist[-1]:.2f}")

# prompt with a lateral view; generate the frontal view and report together
prompts = ds.subset("test")[:200]
omega = encoders.encode_batch("view_b", np.stack([r.view_b for r in prompts]))
joint = joint_sample(components, schedule, omega, codecs, seed=77)
indep = {m: sample(bases[m], schedule, omega, codecs[m], noise_stream(77, m))
         for m in ("view_a", "report")}


def mean_cos(out):
    h_i = encoders.encode_batch("view_a", np.stack(out["view_a"]))
    h_j = encoders.encode_batch("report", out["report"])
    return float(np.mean(np.sum(h_i * h_j, axis=1)))


print(f"\nmean cosine alignment, joint:       {mean_cos(joint):.4f}")
print(f"mean cosine alignment, independent: {mean_cos(indep):.4f}")

labels_from_reports = np.stack([td.rule_label_text(r) for r in joint["report"][:5]])
print("\none jointly generated pair:")
print("report:", " ".join(joint["report"][0]))
print("labels from report:", labels_from_reports[0])
ramp = " .:-=+*#%@"
for row in joint["view_a"][0]:
    print("".join(ramp[min(int(v * 9 + 0.5), 9)] for v in row))
