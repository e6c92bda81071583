"""Optimizers and gradient utilities."""

from __future__ import annotations

import numpy as np

__all__ = ["SGD", "Adam", "clip_grad_norm"]


def clip_grad_norm(parameters, max_norm: float) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging).
    """
    params = [p for p in parameters if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


class SGD:
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, parameters, lr: float = 1e-2, momentum: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam:
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        parameters,
        lr: float = 3e-4,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Two reusable temporaries per parameter: ``step`` runs the
        # textbook update op for op, but into these buffers instead of
        # ~10 fresh full-size arrays, so results are bitwise unchanged.
        self._scratch = [
            (np.empty_like(p.data), np.empty_like(p.data))
            for p in self.parameters
        ]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for p, m, v, (a, b) in zip(
            self.parameters, self._m, self._v, self._scratch
        ):
            if p.grad is None:
                continue
            # m = beta1 * m + (1 - beta1) * g
            m *= self.beta1
            np.multiply(p.grad, 1.0 - self.beta1, out=a)
            m += a
            # v = beta2 * v + (1 - beta2) * g**2
            v *= self.beta2
            np.square(p.grad, out=a)
            a *= 1.0 - self.beta2
            v += a
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            np.divide(m, bias1, out=a)
            np.divide(v, bias2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a *= self.lr
            a /= b
            p.data -= a

    def state_dict(self) -> dict:
        return {
            "t": self._t,
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        self._t = state["t"]
        for target, source in zip(self._m, state["m"]):
            target[...] = source
        for target, source in zip(self._v, state["v"]):
            target[...] = source
