"""Hand-written closed form of the per-hypothesis variances.

The package derives its variances as the phase average of
``detection.pair_table``.  This is the same model written out term by
term, so that tests can hold the package's derivation, and the sampled
estimator, against a form that shares no code with it.
"""

from iqsense.signal_model import MismatchCoefficients


def component_variances(cfg, tx, rx=None) -> tuple[float, float, float, float]:
    """(sigma0^2, ..., sigma3^2), unordered, for mismatch coefficients
    ``tx`` and ``rx`` (None is the ideal receiver).

    2*sigma^2 = |alpha_r|^2*E|y_k|^2 + |beta_r|^2*E|y_-k|^2, with
    E|y_k|^2 = (|alpha_t|^2*P_k*[own] + |beta_t|^2*P_mk*[mirror])*cv + N0
    and E|y_-k|^2 its mirror-swapped form; the H3 cross term averages to
    zero over the symbol phase.
    """
    rx = MismatchCoefficients(1.0, 0.0) if rx is None else rx
    at2, bt2 = abs(tx.alpha) ** 2, abs(tx.beta) ** 2
    ar2, br2 = abs(rx.alpha) ** 2, abs(rx.beta) ** 2
    # weights of the k-side and the mirror-side channel in E|r_k|^2
    g = ar2 * cfg.channel_var
    gm = br2 * cfg.channel_var_mirror
    s0 = 0.5 * (ar2 + br2) * cfg.noise_var
    s1 = 0.5 * (bt2 * cfg.power_mk * g + at2 * cfg.power_mk * gm) + s0
    s2 = 0.5 * (at2 * cfg.power_k * g + bt2 * cfg.power_k * gm) + s0
    s3 = s2 + (s1 - s0)
    return s0, s1, s2, s3
