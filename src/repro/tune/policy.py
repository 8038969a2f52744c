"""Backend-selection policies for the ``auto`` pseudo-backend.

Three policies sit behind one :class:`BackendPolicy` protocol:

* :class:`StaticPolicy` -- always the analysis's default backend
  (exactly the pre-``auto`` behaviour, useful as the control arm);
* :class:`HeuristicPolicy` -- hand-written rules distilled from
  ``BENCH_baseline.json``: vector clocks win atomic-heavy traces,
  incremental CSSTs win the rest;
* :class:`BanditPolicy` -- epsilon-greedy over observed runtimes, one
  arm per ``(analysis, feature-bucket, backend)``.  Its learned state
  round-trips through JSON (:func:`save_policy_state` /
  :func:`make_policy` with ``state_path``) so a sweep can warm-start a
  later watch session.

Policies *rank* candidates; they never invent one.  ``choose`` always
returns a member of the ``candidates`` sequence the caller derived from
``Analysis.applicable_backends()``, so a policy can never hand an
incremental-only analysis a deletion-based backend.
"""

from __future__ import annotations

import json
import os
import random
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import TuneError
from repro.tune.features import TraceFeatures

#: Version of the policy-state JSON document.
STATE_VERSION = 1

#: The selectable policy names, in documentation order.
POLICY_NAMES = ("static", "heuristic", "bandit")

#: Policy used when ``backend="auto"`` is requested without ``--policy``.
DEFAULT_POLICY = "heuristic"


class BackendPolicy:
    """Protocol (and inert base) for backend-selection policies.

    ``choose`` picks one backend out of ``candidates`` for a trace with
    the given ``features``; ``observe`` feeds a measured runtime back
    (a no-op for stateless policies); ``state_dict``/``load_state``
    round-trip any learned state through plain JSON-able dicts.
    """

    name = "static"

    def choose(self, analysis: str, candidates: Sequence[str],
               features: TraceFeatures,
               default: Optional[str] = None) -> str:
        raise NotImplementedError

    def observe(self, analysis: str, bucket: str, backend: str,
                elapsed_seconds: float) -> None:
        """Record a measured runtime; stateless policies ignore it."""

    def state_dict(self) -> Dict:
        return {"version": STATE_VERSION, "policy": self.name}

    def load_state(self, state: Dict) -> None:
        _check_state(state, self.name)

    @staticmethod
    def _fallback(candidates: Sequence[str],
                  default: Optional[str]) -> str:
        if not candidates:
            raise TuneError("cannot choose a backend from an empty "
                            "candidate list")
        if default is not None and default in candidates:
            return default
        return candidates[0]


class StaticPolicy(BackendPolicy):
    """Always the caller's default backend -- the pre-``auto`` behaviour."""

    name = "static"

    def choose(self, analysis: str, candidates: Sequence[str],
               features: TraceFeatures,
               default: Optional[str] = None) -> str:
        return self._fallback(candidates, default)


class HeuristicPolicy(BackendPolicy):
    """Fixed rules distilled from the repository perf baseline.

    ``BENCH_baseline.json`` (full mode) shows the incremental CSST
    kernel ahead on the lock-structured figure-11 workload (0.069s vs
    ``vc`` 0.197s), while on atomic-heavy C11 traces the vector clocks
    win (``vc-flat`` 0.043s on c11-races).  Hence: prefer ``vc-flat``
    when a meaningful share of events is atomic, ``incremental-csst``
    otherwise, and ``csst`` for deletion-based analyses.
    """

    name = "heuristic"

    #: Atomic-event fraction above which vector clocks are preferred.
    ATOMIC_THRESHOLD = 0.1

    def choose(self, analysis: str, candidates: Sequence[str],
               features: TraceFeatures,
               default: Optional[str] = None) -> str:
        preferences: List[str] = []
        if features.atomic_fraction > self.ATOMIC_THRESHOLD:
            preferences += ["vc-flat", "vc"]
        preferences += ["incremental-csst", "csst"]
        for backend in preferences:
            if backend in candidates:
                return backend
        return self._fallback(candidates, default)


class BanditPolicy(BackendPolicy):
    """Epsilon-greedy bandit over observed per-arm mean runtimes.

    One arm per ``(analysis, feature-bucket, backend)``.  Unseen
    candidates are tried first (in candidate order); after that the
    policy exploits the lowest observed mean runtime, exploring a
    random candidate with probability ``epsilon / sqrt(1 + pulls)`` --
    the decay keeps early sweeps exploratory and warm-started watch
    sessions stable.  Exploration is seeded and therefore
    reproducible.
    """

    name = "bandit"

    def __init__(self, epsilon: float = 0.05, seed: int = 0) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise TuneError(f"epsilon must be in [0, 1], got {epsilon!r}")
        self.epsilon = epsilon
        self.seed = seed
        self._rng = random.Random(seed)
        # arm key "analysis|bucket|backend" -> [pull count, total seconds]
        self._arms: Dict[str, List[float]] = {}

    def _key(self, analysis: str, bucket: str, backend: str) -> str:
        return f"{analysis}|{bucket}|{backend}"

    def choose(self, analysis: str, candidates: Sequence[str],
               features: TraceFeatures,
               default: Optional[str] = None) -> str:
        if not candidates:
            return self._fallback(candidates, default)
        bucket = features.bucket()
        arms = {backend: self._arms.get(self._key(analysis, bucket, backend))
                for backend in candidates}
        for backend, arm in arms.items():
            if arm is None or arm[0] == 0:
                return backend
        pulls = sum(arm[0] for arm in arms.values())
        if self._rng.random() < self.epsilon / (1.0 + pulls) ** 0.5:
            return self._rng.choice(list(candidates))
        return min(arms, key=lambda backend: (
            arms[backend][1] / arms[backend][0]))

    def observe(self, analysis: str, bucket: str, backend: str,
                elapsed_seconds: float) -> None:
        if elapsed_seconds < 0:
            return
        arm = self._arms.setdefault(
            self._key(analysis, bucket, backend), [0, 0.0])
        arm[0] += 1
        arm[1] += float(elapsed_seconds)

    def state_dict(self) -> Dict:
        return {
            "version": STATE_VERSION,
            "policy": self.name,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "arms": {key: [int(arm[0]), float(arm[1])]
                     for key, arm in sorted(self._arms.items())},
        }

    def load_state(self, state: Dict) -> None:
        _check_state(state, self.name)
        self.epsilon = float(state.get("epsilon", self.epsilon))
        self.seed = int(state.get("seed", self.seed))
        self._rng = random.Random(self.seed)
        arms = state.get("arms", {})
        if not isinstance(arms, dict):
            raise TuneError("policy state 'arms' must be an object")
        self._arms = {}
        for key, arm in arms.items():
            try:
                count, total = arm
                self._arms[str(key)] = [int(count), float(total)]
            except (TypeError, ValueError):
                raise TuneError(f"malformed bandit arm {key!r}: {arm!r}")


_POLICY_CLASSES = {
    "static": StaticPolicy,
    "heuristic": HeuristicPolicy,
    "bandit": BanditPolicy,
}


def _check_state(state: Dict, expected_policy: str) -> None:
    if not isinstance(state, dict):
        raise TuneError("policy state must be a JSON object")
    version = state.get("version")
    if version != STATE_VERSION:
        raise TuneError(f"unsupported policy-state version {version!r} "
                        f"(expected {STATE_VERSION})")
    recorded = state.get("policy")
    if recorded != expected_policy:
        raise TuneError(f"policy state was saved by policy {recorded!r}, "
                        f"cannot load it into {expected_policy!r}")


def make_policy(name: Optional[Union[str, BackendPolicy]] = None,
                state_path: Optional[str] = None) -> BackendPolicy:
    """Build (or pass through) a selection policy.

    ``name`` may be a policy name from :data:`POLICY_NAMES`, an existing
    :class:`BackendPolicy` instance (returned unchanged; ``state_path``
    must then be omitted), or ``None`` -- meaning the policy recorded in
    the state file when one is readable, else :data:`DEFAULT_POLICY`.
    When ``state_path`` names an existing file its state is loaded into
    the policy; a name that contradicts the file's recorded policy is a
    :class:`~repro.errors.TuneError`.  A non-existent ``state_path`` is
    fine -- it is where the caller will save state later.
    """
    if isinstance(name, BackendPolicy):
        if state_path is not None:
            raise TuneError("pass either a policy instance or a "
                            "state_path, not both")
        return name
    state = None
    if state_path is not None and os.path.exists(state_path):
        try:
            with open(state_path, "r", encoding="utf-8") as handle:
                state = json.load(handle)
        except (OSError, ValueError) as error:
            raise TuneError(f"cannot read policy state {state_path!r}: "
                            f"{error}")
        if not isinstance(state, dict):
            raise TuneError(f"policy state {state_path!r} must hold a "
                            f"JSON object")
    if name is None:
        name = state.get("policy", DEFAULT_POLICY) if state \
            else DEFAULT_POLICY
    try:
        policy = _POLICY_CLASSES[name]()
    except KeyError:
        known = ", ".join(POLICY_NAMES)
        raise TuneError(f"unknown selection policy {name!r}; known: {known}")
    if state is not None:
        policy.load_state(state)
    return policy


def save_policy_state(policy: BackendPolicy, path: str) -> None:
    """Write ``policy.state_dict()`` to ``path`` as pretty-printed JSON."""
    document = policy.state_dict()
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as error:
        raise TuneError(f"cannot write policy state {path!r}: {error}")
