"""The deterministic fault-injection harness (repro.runtime.faults)."""

import json
import os

import pytest

from repro.runtime import faults
from repro.runtime.faults import (
    DEFAULT_HANG_SECONDS,
    ENV_VAR,
    FaultSpec,
    FaultSpecError,
    InjectedFault,
    clear_faults,
    injected,
    install_faults,
    parse_faults,
    truncate_artifact,
    truncate_store_artifacts,
)


@pytest.fixture(autouse=True)
def _no_leaked_faults(monkeypatch):
    """Every test starts (and must end) with no faults in force."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    clear_faults()
    yield
    clear_faults()


class TestSpecGrammar:
    def test_single_entry_defaults(self):
        (spec,) = parse_faults("raise:3")
        assert spec == FaultSpec("raise", 3, attempt=1)
        assert spec.seconds == DEFAULT_HANG_SECONDS

    def test_full_entry(self):
        (spec,) = parse_faults("hang:2:1:0.25")
        assert spec == FaultSpec("hang", 2, attempt=1, seconds=0.25)

    def test_multiple_entries_and_whitespace(self):
        specs = parse_faults(" raise:1 , exit:5:2 ,")
        assert specs == (
            FaultSpec("raise", 1),
            FaultSpec("exit", 5, attempt=2),
        )

    def test_attempt_zero_means_every_attempt(self):
        (spec,) = parse_faults("raise:3:0")
        assert spec.matches(3, 1) and spec.matches(3, 7)
        assert not spec.matches(4, 1)

    def test_attempt_pinned(self):
        (spec,) = parse_faults("raise:3:2")
        assert spec.matches(3, 2)
        assert not spec.matches(3, 1)

    @pytest.mark.parametrize("bad", [
        "boom:1",          # unknown kind
        "disconnect:4",    # unknown kind
        "raise",           # missing index
        "raise:x",         # non-numeric index
        "raise:1:y",       # non-numeric attempt
        "raise:1:1:z",     # non-numeric seconds
        "raise:-1",        # negative index
        "raise:1:-2",      # negative attempt
        "hang:1:1:0",      # non-positive hang
        "raise:1:1:1:1",   # too many fields
    ])
    def test_malformed_entries_rejected(self, bad):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)


class TestInstallation:
    def test_install_accepts_string_and_specs(self):
        installed = install_faults("raise:1")
        assert installed == (FaultSpec("raise", 1),)
        installed = install_faults([FaultSpec("exit", 2)])
        assert faults.active_faults() == (FaultSpec("exit", 2),)
        assert installed == faults.active_faults()

    def test_env_faults_apply_when_nothing_installed(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise:7:0")
        assert faults.active_faults() == (FaultSpec("raise", 7, attempt=0),)

    def test_installed_faults_shadow_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise:7")
        install_faults("exit:1")
        assert faults.active_faults() == (FaultSpec("exit", 1),)
        clear_faults()
        assert faults.active_faults() == (FaultSpec("raise", 7),)

    def test_injected_context_restores(self):
        with injected("raise:2"):
            assert faults.active_faults() == (FaultSpec("raise", 2),)
        assert faults.active_faults() == ()

    def test_fire_raises_only_on_match(self):
        install_faults("raise:2:1")
        faults.fire(1, 1)  # no match, no-op
        faults.fire(2, 2)  # wrong attempt, no-op
        with pytest.raises(InjectedFault):
            faults.fire(2, 1)

    def test_no_faults_is_a_noop(self):
        faults.fire(0, 1)


class TestStoreCorruption:
    def test_truncate_artifact_invalidates_json(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text(json.dumps({"value": list(range(100))}))
        truncate_artifact(str(path))
        assert path.stat().st_size == 16
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_text())

    def test_truncate_store_artifacts_is_deterministic(self, tmp_path):
        for name in ("bb/b1.json", "aa/a1.json", "aa/a2.json"):
            path = tmp_path / name
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps({"value": "x" * 64}))
        first = truncate_store_artifacts(str(tmp_path), count=2)
        assert [os.path.basename(p) for p in first] == ["a1.json", "a2.json"]
        untouched = tmp_path / "bb" / "b1.json"
        assert json.loads(untouched.read_text())  # still valid

    def test_truncate_zero_count_touches_nothing(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"value": 1}))
        assert truncate_store_artifacts(str(tmp_path), count=0) == []
        assert json.loads(path.read_text()) == {"value": 1}


class TestEagerValidation:
    def test_no_faults_validates_to_empty(self):
        assert faults.validate_active_faults() == ()

    def test_valid_env_spec_returned(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise:2:1,hang:4")
        specs = faults.validate_active_faults()
        assert [spec.kind for spec in specs] == ["raise", "hang"]

    def test_bad_env_spec_raises_naming_the_token(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "raise:1,bogus:2")
        with pytest.raises(FaultSpecError, match="bogus"):
            faults.validate_active_faults()

    def test_supervise_validates_env_before_any_work(self, monkeypatch):
        # The supervised runtime fails fast on a typo'd spec string
        # instead of surfacing it mid-sweep inside a worker.
        from repro.runtime.supervision import supervise

        monkeypatch.setenv(ENV_VAR, "raise:notanumber")
        ran = []

        def task(value):
            ran.append(value)
            return value

        with pytest.raises(FaultSpecError):
            list(supervise(task, [1, 2], policy="retry", retries=1))
        assert ran == []
