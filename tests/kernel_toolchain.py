"""Toolchain checks shared by the compiled kernels' test suites.

Both kernels are built and loaded by one :class:`repro.ckernel.CKernel`,
so each property of that toolchain is written once here and checked for
each kernel by a test class that mixes these in and names its kernel
module (``repro.cpu.lane_kernel`` or ``repro.workloads.trace_kernel``)
and the fallback its warning names.
"""

from __future__ import annotations

import subprocess
import warnings

import pytest

from repro import ckernel


def _require_kernel(module) -> None:
    if module.load() is None:
        pytest.skip(f"no compiled {module.KERNEL.name} on this host")


class GatingChecks:
    #: The kernel module under test (``load()`` and ``KERNEL``).
    kernel = None

    def test_env_override_disables_the_kernel(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
        assert self.kernel.load() is None

    def test_kernel_memoised_per_process(self):
        _require_kernel(self.kernel)
        assert self.kernel.load() is self.kernel.load()


class BuildFailureChecks:
    kernel = None
    #: What the one-shot fallback warning must name.
    fallback = ""

    @pytest.fixture(autouse=True)
    def fresh_build_state(self, monkeypatch, tmp_path):
        # Each test gets an empty kernel cache and pristine build state,
        # restored afterwards so other tests keep the real kernel.
        self.compiles = self.kernel.load() is not None
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
        build = self.kernel.KERNEL
        monkeypatch.setattr(build, "_lib", None)
        monkeypatch.setattr(build, "_failed", False)
        monkeypatch.setattr(build, "_warned", False)

    def _require_compiler(self) -> None:
        if not self.compiles:
            pytest.skip(f"{self.kernel.KERNEL.name} does not build on this host")

    def test_gcc_failure_warns_once_with_stderr_tail(self, monkeypatch):
        def failing_gcc(*args, **kwargs):
            raise subprocess.CalledProcessError(
                1, ["gcc"], stderr=b"kernel.c:1:1: error: something broke\n"
            )

        monkeypatch.setattr(ckernel.subprocess, "run", failing_gcc)
        with pytest.warns(RuntimeWarning, match="something broke"):
            assert self.kernel.load() is None
        # One-shot: the failure is memoised and the warning never repeats.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.kernel.load() is None

    def test_missing_compiler_warns_with_cause(self, monkeypatch):
        def no_gcc(*args, **kwargs):
            raise FileNotFoundError("No such file or directory: 'gcc'")

        monkeypatch.setattr(ckernel.subprocess, "run", no_gcc)
        with pytest.warns(RuntimeWarning, match=self.fallback):
            assert self.kernel.load() is None

    def test_concurrent_build_cannot_truncate_the_compiled_source(
        self, monkeypatch, tmp_path
    ):
        """Another worker building the same digest truncates the shared
        ``<name>_<digest>.c`` just before this process's gcc runs.  The
        build must not cache an object without the entry points."""
        self._require_compiler()
        shared_source = tmp_path / self.kernel.KERNEL.object_name().replace(
            ".so", ".c"
        )
        real_run = subprocess.run

        def racing_gcc(*args, **kwargs):
            shared_source.write_text("")  # the other worker's open(..., "w")
            return real_run(*args, **kwargs)

        monkeypatch.setattr(ckernel.subprocess, "run", racing_gcc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.kernel.load() is not None

    def test_object_without_entry_point_falls_back_and_is_dropped(
        self, tmp_path
    ):
        self._require_compiler()
        build = self.kernel.KERNEL
        bad = tmp_path / build.object_name()
        empty = tmp_path / "empty.c"
        empty.write_text("")
        subprocess.run(
            ["gcc", "-shared", "-fPIC", "-o", str(bad), str(empty)], check=True
        )
        with pytest.warns(RuntimeWarning, match=next(iter(build.entries))):
            assert self.kernel.load() is None
        assert not bad.exists()
