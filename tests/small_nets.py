"""Small float64 networks for the finite-difference gradient checks.

`rl.init_actor_critic`, `teammate.init_encoder` and `teammate.init_decoder`
build float32 networks of the trained widths. These build the same
architectures at any width and dtype (float64 by default), with the same
draws from `rng` in the same order, through `nn.mlp_init` and the dataclass
constructors.
"""

import numpy as np

from pursuit_lab import nn, rl, teammate


def actor_critic(obs_dim, critic_in_dim, hidden, rng, dtype=np.float64) -> rl.ActorCritic:
    actor = nn.mlp_init([obs_dim, *hidden, 1], rng, dtype=dtype, final_scale=0.01)
    critic = nn.mlp_init([critic_in_dim, *hidden, 1], rng, dtype=dtype)
    return rl.ActorCritic(actor, np.full(1, np.log(rl.INIT_STD), dtype=dtype), critic)


def encoder(layout: teammate.WindowLayout, rng, hidden, embed_dim) -> teammate.TeamEncoder:
    nets = [nn.mlp_init([d, hidden, embed_dim], rng, dtype=np.float64) for d in layout.branch_in_dims]
    return teammate.TeamEncoder(*nets, mix_logits=np.zeros(3), layout=layout)


def decoder(embed_dim, rng, hidden) -> teammate.TeamDecoder:
    return teammate.TeamDecoder(nn.mlp_init([embed_dim, hidden, teammate.DECODER_OUT], rng, dtype=np.float64))
