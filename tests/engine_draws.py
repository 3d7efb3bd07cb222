"""The trial engine's per-row draw as statistics Z, for the tests that
hold the draw to a law: the engine counts each block in the domain its
variates were drawn in, and these helpers turn the same variates into Z."""

import numpy as np

import iqsense.montecarlo as montecarlo


def block_statistics(block) -> np.ndarray:
    """Z of every trial of a drawn block: -scale*log(p) for each product
    of uniforms p (inf for a zero product), then scale*x for each value x."""
    scale, products, values = block
    with np.errstate(divide="ignore"):
        return np.concatenate([np.log(products) * -scale, values * scale])


def row_statistics(sc, hyp: int, streams, size: int) -> np.ndarray:
    """``size`` statistics of row ``hyp`` of scenario ``sc``, drawn as the
    engine draws a block from ``streams[kind]``."""
    draw = montecarlo._statistic_draws(sc)[hyp]
    return block_statistics(draw(streams.__getitem__, size))
