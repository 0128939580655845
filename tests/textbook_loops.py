"""Oracle for the tests: the closed loops of schemes 1 and 2 as textbook
code, one fresh array per expression.

Each loop calls the step functions of quasi_static and two_path without
out= or hoisted scales, adds the artificial noise as 0.0 away from times 4
and 5, and forms the received symbol as h1 * x + h2 * x_prev + noise at
every step, as the engines did before they stepped in place. It draws the
same keyed streams as the engines, so run_trials must return the same
arrays. The package never runs it, so it lives with the tests.
"""

import math
from dataclasses import replace

import numpy as np

from skfading import quasi_static as qs
from skfading import two_path as tp
from skfading.simulation import _ball_gain, _env_stream, _link_rows


def _alias_event(arg, half):
    return (arg < -half) | (arg >= half)


def _original_or_partner(closed_loop, params, coupled, z_shape):
    z_hist = np.zeros(z_shape) if coupled else None

    def quantize(x_t, col):
        y_t, z = qs.quantize_feedback(x_t, params.sigma_z)
        if coupled:
            z_hist[col] = z
        return y_t, z

    original = closed_loop(params, quantize, False)
    if not coupled:
        del original["residual"]
        return original

    def add_recorded(x_t, col):
        z = z_hist[col]
        return x_t + z, z

    partner = closed_loop(replace(params, lattice_spacing=math.inf), add_recorded, True)
    partner["pow_fwd"] = original["pow_fwd"]
    partner["pow_fb"] = original["pow_fb"]
    return partner


def textbook_quasi_static(scenario, master_seed, indices, coupled=False):
    """run_trials of a scheme-1 scenario, in textbook form."""
    params = scenario.derive()
    n = params.n
    count = qs.message_size(n, params.rate)
    gam = params.feedback_gains
    alpha = params.power_gain
    half = params.lattice_spacing / 2.0
    root12p = math.sqrt(12.0 * params.P)
    t = len(indices)
    u, w, _ = _env_stream(master_seed, 1, [count])(indices)
    u, w = u[:, 0], w[:, 0]
    dithers, noise = _link_rows(master_seed, indices, params, scenario.noise_scale, n - 1)
    h = _ball_gain(scenario.h, scenario.h_hat, scenario.distortion, u)
    theta = qs.map_message(w, count)
    x1 = root12p * theta

    def closed_loop(p, link, partner):
        eps = np.empty((n, t)).T
        alias = np.zeros((n - 1, t), dtype=bool).T
        residual = 0.0
        if partner:
            theta_hat = theta + noise[:, 0] / (h * root12p)
        else:
            theta_hat = (h * x1 + noise[:, 0]) / (h * root12p)
        eps[:, 0] = theta_hat - theta
        pow_fwd = x1 * x1
        pow_fb = np.zeros(t)
        steps = qs.mmse_steps1(p, h)
        next(steps)
        for i, (beta, _) in enumerate(steps):
            x_t = qs.rx_feedback1(theta_hat, gam[i], dithers[:, i], p)
            y_t, z = link(x_t, i)
            alias[:, i] = _alias_event(gam[i] * eps[:, i] + z, half)
            x = qs.tx_step1(y_t, gam[i], theta, dithers[:, i], p)
            y = h * x + noise[:, i + 1]
            theta_hat, y_dot = qs.rx_update1(theta_hat, y, z, h, beta, p)
            if partner:
                expected = h * alpha * gam[i] * eps[:, i] + noise[:, i + 1]
                residual = max(residual, float(np.max(np.abs(y_dot - expected), initial=0.0)))
            else:
                pow_fb += x_t * x_t
                pow_fwd += x * x
            eps[:, i + 1] = theta_hat - theta
        return {
            "correct": qs.decode_midpoint(theta_hat, count) == w,
            "eps": eps,
            "alias": alias,
            "pow_fwd": pow_fwd / n,
            "pow_fb": pow_fb / n,
            "residual": residual,
        }

    return _original_or_partner(closed_loop, params, coupled, (n - 1, t))


def textbook_two_path(scenario, master_seed, indices, coupled=False):
    """run_trials of a scheme-2 scenario, in textbook form."""
    params = scenario.derive()
    n = params.n
    count = qs.message_size(n, params.rate)
    gam = params.feedback_gains
    alpha = params.power_gain
    half = params.lattice_spacing / 2.0
    root12p = math.sqrt(12.0 * params.P)
    t = len(indices)
    u, w, art = _env_stream(master_seed, 2, [count], normal=True)(indices)
    w = w[:, 0]
    h1 = _ball_gain(scenario.h1, scenario.h1_hat, scenario.distortion, u[:, 0])
    h2 = _ball_gain(scenario.h2, scenario.h2_hat, scenario.distortion, u[:, 1])
    sign = tp.pilot_sign(h1, h2, params.sigma_z)
    pilot_ok = sign == tp.sign_product(h1, h2)
    dithers, noise = _link_rows(master_seed, indices, params, scenario.noise_scale, n - 2)
    art *= math.sqrt(params.art_noise_var)
    theta = qs.map_message(w, count)
    x1 = root12p * theta
    y1 = h1 * x1 + noise[:, 0]
    y2 = h2 * x1 + noise[:, 1]
    init = tp.init_estimate(y1, y2, h1, h2, params.P)

    def closed_loop(p, link, partner):
        eps = np.zeros((n, t)).T
        alias = np.zeros((n - 2, t), dtype=bool).T
        residual = 0.0
        theta_hat = init.copy()
        eps[:, 0] = theta_hat - theta
        eps[:, 1] = eps[:, 0]
        pow_fwd = x1 * x1
        pow_fb = np.full(t, (2.0 * params.sigma_z) ** 2)
        steps = tp.mmse_steps2(p, h1, h2, sign)
        next(steps)
        x_prev = ydot_prev = z_prev = beta_prev = gain_prev = 0.0
        for k, ((beta, _, combined), gain) in enumerate(zip(steps, gam), start=3):
            u_now = art if k == 4 else 0.0
            u_prev = art if k == 5 else 0.0
            x_t = qs.rx_feedback1(theta_hat, gain, dithers[:, k - 3], p)
            y_t, z = link(x_t, k - 3)
            alias[:, k - 3] = _alias_event(gain * eps[:, k - 2] + z + u_now, half)
            x = tp.tx_step2(y_t, gain, theta, dithers[:, k - 3], sign, k, p,
                            art_noise=u_now)
            y = h1 * x + h2 * x_prev + noise[:, k - 1]
            y_dot = tp.rx_aux2(
                y, z, z_prev, ydot_prev, gain_prev, beta_prev, h1, h2, sign,
                k, p, art_noise=u_now, art_noise_prev=u_prev,
            )
            if partner:
                expected = alpha * combined * eps[:, k - 2] + noise[:, k - 1] + u_now
                residual = max(residual, float(np.max(np.abs(y_dot - expected), initial=0.0)))
            else:
                pow_fb += x_t * x_t
                pow_fwd += x * x
            theta_hat = theta_hat - beta * y_dot
            eps[:, k - 1] = theta_hat - theta
            x_prev, ydot_prev, z_prev, beta_prev, gain_prev = x, y_dot, z, beta, gain
        return {
            "correct": (qs.decode_midpoint(theta_hat, count) == w) & pilot_ok,
            "eps": eps,
            "alias": alias,
            "pow_fwd": pow_fwd / n,
            "pow_fb": pow_fb / n,
            "pilot_ok": pilot_ok,
            "residual": residual,
        }

    return _original_or_partner(closed_loop, params, coupled, (n - 2, t))
