"""Latent-Gaussian posterior sampling toolkit.

Pipeline: invert a strongly invertible generator by gradient descent, sample
the latent posterior with unadjusted Langevin chains, and compile the whole
procedure into a deep latent Gaussian network. Verification utilities compare
samplers against dense grid oracles, and a sign-pattern generator family gives
an exactly enumerable hard case.
"""

__version__ = "0.1.0"
