"""Selection policies: choice semantics, bandit convergence, state I/O."""

from __future__ import annotations

import json
import random

import pytest

from repro.errors import TuneError
from repro.trace.generators import build_trace
from repro.tune import (
    DEFAULT_POLICY,
    POLICY_NAMES,
    STATE_VERSION,
    BanditPolicy,
    HeuristicPolicy,
    StaticPolicy,
    extract_features,
    make_policy,
    save_policy_state,
)

CANDIDATES = ("incremental-csst", "st", "vc", "vc-flat")


def racy_features():
    return extract_features(build_trace("racy", num_threads=3, events=30,
                                        seed=1))


def c11_features():
    return extract_features(build_trace("c11", num_threads=3, events=30,
                                        seed=1))


class TestStaticPolicy:
    def test_returns_default(self):
        policy = StaticPolicy()
        assert policy.choose("a", CANDIDATES, racy_features(),
                             default="vc") == "vc"

    def test_falls_back_to_first_candidate(self):
        policy = StaticPolicy()
        assert policy.choose("a", CANDIDATES, racy_features(),
                             default="nope") == CANDIDATES[0]

    def test_empty_candidates_is_an_error(self):
        with pytest.raises(TuneError):
            StaticPolicy().choose("a", (), racy_features())


class TestHeuristicPolicy:
    def test_atomic_heavy_prefers_vector_clocks(self):
        features = c11_features()
        assert features.atomic_fraction > HeuristicPolicy.ATOMIC_THRESHOLD
        assert HeuristicPolicy().choose("a", CANDIDATES, features) == "vc-flat"

    def test_lock_structured_prefers_incremental_csst(self):
        features = racy_features()
        assert HeuristicPolicy().choose("a", CANDIDATES, features) \
            == "incremental-csst"

    def test_honours_candidate_list(self):
        # Deletion-style analyses only offer csst family backends.
        chosen = HeuristicPolicy().choose(
            "a", ("graph", "csst"), racy_features())
        assert chosen == "csst"

    def test_unmatched_preferences_fall_back(self):
        chosen = HeuristicPolicy().choose("a", ("graph",), racy_features(),
                                          default="graph")
        assert chosen == "graph"


class TestBanditPolicy:
    def test_unseen_candidates_tried_first(self):
        policy = BanditPolicy(seed=3)
        features = racy_features()
        picks = []
        for _round in range(len(CANDIDATES)):
            backend = policy.choose("a", CANDIDATES, features)
            picks.append(backend)
            policy.observe("a", features.bucket(), backend, 0.05)
        assert sorted(picks) == sorted(CANDIDATES)

    def test_converges_on_synthetic_two_backend_model(self):
        """On a synthetic runtime model (fast=10ms, slow=100ms, +/-20%
        noise) the bandit must settle on the fast arm."""
        policy = BanditPolicy(epsilon=0.1, seed=0)
        features = racy_features()
        bucket = features.bucket()
        runtimes = {"fast": 0.010, "slow": 0.100}
        noise = random.Random(42)
        picks = []
        for _round in range(200):
            backend = policy.choose("a", ("fast", "slow"), features)
            picks.append(backend)
            elapsed = runtimes[backend] * noise.uniform(0.8, 1.2)
            policy.observe("a", bucket, backend, elapsed)
        tail = picks[-50:]
        assert tail.count("fast") >= 45
        # Exploitation (epsilon fully decayed) must also pick fast.
        exploit = BanditPolicy(epsilon=0.0, seed=0)
        exploit.load_state(policy.state_dict())
        assert exploit.choose("a", ("fast", "slow"), features) == "fast"

    def test_arms_are_keyed_per_analysis_and_bucket(self):
        policy = BanditPolicy(epsilon=0.0, seed=0)
        features = racy_features()
        bucket = features.bucket()
        for backend, elapsed in (("fast", 0.01), ("slow", 0.1)):
            policy.observe("a", bucket, backend, elapsed)
            policy.observe("b", bucket, backend,
                           0.11 - elapsed)  # inverted for analysis b
        assert policy.choose("a", ("fast", "slow"), features) == "fast"
        assert policy.choose("b", ("fast", "slow"), features) == "slow"

    def test_exploration_is_seeded(self):
        features = racy_features()

        def run(seed):
            policy = BanditPolicy(epsilon=1.0, seed=seed)
            for backend in CANDIDATES:
                policy.observe("a", features.bucket(), backend, 0.05)
            return [policy.choose("a", CANDIDATES, features)
                    for _ in range(20)]

        assert run(7) == run(7)

    def test_negative_elapsed_ignored(self):
        policy = BanditPolicy()
        policy.observe("a", "b", "fast", -1.0)
        assert policy.state_dict()["arms"] == {}

    def test_bad_epsilon_rejected(self):
        with pytest.raises(TuneError):
            BanditPolicy(epsilon=1.5)


class TestStateRoundTrip:
    def test_bandit_state_round_trips_through_json(self, tmp_path):
        policy = BanditPolicy(epsilon=0.2, seed=9)
        features = racy_features()
        bucket = features.bucket()
        policy.observe("race-prediction", bucket, "vc", 0.1)
        policy.observe("race-prediction", bucket, "vc", 0.3)
        path = tmp_path / "state.json"
        save_policy_state(policy, str(path))
        document = json.loads(path.read_text())
        assert document["version"] == STATE_VERSION
        assert document["policy"] == "bandit"
        restored = make_policy("bandit", state_path=str(path))
        assert restored.state_dict() == policy.state_dict()
        key = f"race-prediction|{bucket}|vc"
        assert restored.state_dict()["arms"][key] == [2, 0.4]

    def test_state_file_alone_selects_the_policy(self, tmp_path):
        path = tmp_path / "state.json"
        save_policy_state(BanditPolicy(seed=4), str(path))
        restored = make_policy(state_path=str(path))
        assert restored.name == "bandit"
        assert restored.seed == 4

    def test_policy_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        save_policy_state(BanditPolicy(), str(path))
        with pytest.raises(TuneError, match="saved by policy"):
            make_policy("heuristic", state_path=str(path))

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"version": 99, "policy": "bandit"}))
        with pytest.raises(TuneError, match="version"):
            make_policy("bandit", state_path=str(path))

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("{not json")
        with pytest.raises(TuneError, match="cannot read"):
            make_policy("bandit", state_path=str(path))

    @pytest.mark.parametrize("epsilon", [0.0, 1.0])
    def test_state_with_a_removed_backend_loads_and_never_picks_it(
            self, tmp_path, epsilon):
        """A state saved while ``incremental-csst-flat`` existed: its arm
        (the fastest on record) is carried along but is never a
        candidate, so it is never picked."""
        from repro.analyses.common.base import Analysis

        trace = build_trace("racy", num_threads=3, events=30, seed=1)
        bucket = extract_features(trace).bucket()
        arms = {f"race-prediction|{bucket}|{backend}": [3, seconds]
                for backend, seconds in (("incremental-csst-flat", 0.003),
                                         ("incremental-csst", 0.3),
                                         ("st", 0.3), ("vc", 0.6),
                                         ("vc-flat", 0.6))}
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"version": STATE_VERSION,
                                    "policy": "bandit", "epsilon": epsilon,
                                    "seed": 5, "arms": arms}))
        policy = make_policy(state_path=str(path))
        assert policy.state_dict()["arms"] == arms
        candidates = Analysis.by_name("race-prediction").applicable_backends()
        assert "incremental-csst-flat" not in candidates
        picks = {policy.choose("race-prediction", candidates,
                               extract_features(trace))
                 for _ in range(50)}
        assert picks and picks <= set(candidates)
        result = Analysis.by_name("race-prediction")(
            "auto", policy=policy).run(trace)
        assert result.details["backend_selected"] in candidates

    def test_malformed_arm_rejected(self):
        policy = BanditPolicy()
        with pytest.raises(TuneError, match="malformed bandit arm"):
            policy.load_state({"version": STATE_VERSION, "policy": "bandit",
                               "arms": {"k": "oops"}})


class TestMakePolicy:
    def test_default_policy(self):
        assert make_policy().name == DEFAULT_POLICY

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_name_constructs(self, name):
        assert make_policy(name).name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(TuneError, match="unknown selection policy"):
            make_policy("oracle")

    def test_instance_passthrough(self):
        policy = BanditPolicy()
        assert make_policy(policy) is policy

    def test_instance_with_state_path_rejected(self):
        with pytest.raises(TuneError):
            make_policy(BanditPolicy(), state_path="x.json")

    def test_missing_state_file_is_fine(self, tmp_path):
        policy = make_policy("bandit",
                             state_path=str(tmp_path / "later.json"))
        assert policy.name == "bandit"
