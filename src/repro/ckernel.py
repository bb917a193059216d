"""Build and load the optional compiled C kernels.

Two kernels accelerate the simulator, each bit-identical to the Python
code it replaces, which stays as its oracle and fallback: the lane kernel
(:mod:`repro.cpu.lane_kernel`, the timing recurrence) and the trace
kernel (:mod:`repro.workloads.trace_kernel`, trace generation).  Each is
one :class:`CKernel`, and every kernel is built and loaded the same way:

* with the system ``gcc``, at first use (never at import);
* into a cache directory (``REPRO_KERNEL_CACHE``, else a per-user
  directory under the system temp directory) under an object name keyed
  by a hash of the source and the compile command, so an edited source
  rebuilds and an unchanged one loads the cached object;
* from a process-unique source file into a process-unique temp object
  renamed into place (atomic under POSIX), so concurrent workers building
  the same digest can neither truncate each other's source under gcc nor
  load a half-written object;
* failing soft: a failed build or load warns once per process and kernel,
  with the tail of gcc's stderr, and the caller runs its Python path; a
  cached object without the kernel's entry points is deleted so the next
  process rebuilds it.

``REPRO_NO_CKERNEL=1`` disables every kernel.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
import warnings

__all__ = ["CKernel", "cache_dir"]


def cache_dir() -> str:
    """Where compiled objects are cached: ``REPRO_KERNEL_CACHE``, else a
    per-user directory under the system temp directory."""
    return os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )


class CKernel:
    """One optional compiled kernel.

    ``entries`` maps each exported function to its ctypes argument types
    (every entry returns ``void``); ``fallback`` names what runs instead,
    for the warning ("every simulation falls back to ...").  Build
    results, success or failure, are memoised for the process.
    """

    def __init__(
        self,
        name: str,
        source: str,
        entries: dict[str, list],
        fallback: str,
        cflags: tuple[str, ...] = (),
        libs: tuple[str, ...] = (),
    ) -> None:
        self.name = name
        self.source = source
        self.entries = entries
        self.fallback = fallback
        self.cflags = cflags
        self.libs = libs
        self._lib: ctypes.CDLL | None = None
        self._failed = False
        self._warned = False

    @property
    def label(self) -> str:
        return self.name.replace("_", "-")

    def object_name(self) -> str:
        """File name of the compiled object cached for this source and
        command: the name :meth:`load` looks for in the cache directory."""
        key = "\n".join([*self._command(), *self.libs, self.source])
        return f"{self.name}_{hashlib.sha256(key.encode()).hexdigest()[:16]}.so"

    def _command(self) -> list[str]:
        return ["gcc", "-O2", *self.cflags, "-shared", "-fPIC"]

    def load(self) -> ctypes.CDLL | None:
        """The loaded library, or ``None`` when unavailable
        (``REPRO_NO_CKERNEL=1``, no working ``gcc``, load failure)."""
        if os.environ.get("REPRO_NO_CKERNEL"):
            return None
        if self._lib is None and not self._failed:
            self._lib = self._build()
            self._failed = self._lib is None
        return self._lib

    def _warn(self, message: str) -> None:
        """One warning per process: a broken toolchain in one pool worker
        would otherwise mean a silent fallback and a mysteriously slow
        campaign; the gcc stderr tail names the cause the first time."""
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"{message}; {self.fallback} (slower). Set REPRO_NO_CKERNEL=1 "
            "to silence this warning.",
            RuntimeWarning,
            stacklevel=5,
        )

    def _build(self) -> ctypes.CDLL | None:
        lib_path = os.path.join(cache_dir(), self.object_name())
        if not os.path.exists(lib_path):
            stem = f"{lib_path[:-3]}.{os.getpid()}"
            src_path = f"{stem}.c"
            tmp_path = f"{stem}.so.tmp"
            try:
                os.makedirs(os.path.dirname(lib_path), exist_ok=True)
                with open(src_path, "w") as fh:
                    fh.write(self.source)
                subprocess.run(
                    [*self._command(), "-o", tmp_path, src_path, *self.libs],
                    check=True,
                    capture_output=True,
                    timeout=120,
                )
                os.replace(tmp_path, lib_path)
            except subprocess.CalledProcessError as exc:
                stderr = exc.stderr or b""
                tail = stderr.decode("utf-8", errors="replace").strip()[-800:]
                self._warn(
                    f"{self.label} build failed (gcc exited {exc.returncode}); "
                    f"gcc stderr tail:\n{tail}"
                )
                return None
            except (OSError, subprocess.SubprocessError) as exc:
                self._warn(f"{self.label} build unavailable ({exc!r})")
                return None
            finally:
                for path in (src_path, tmp_path):
                    with contextlib.suppress(OSError):
                        os.unlink(path)
        try:
            lib = ctypes.CDLL(lib_path)
            for entry, argtypes in self.entries.items():
                fn = getattr(lib, entry)
                fn.argtypes = argtypes
                fn.restype = None
        except (OSError, AttributeError) as exc:
            # An unloadable cached object, or one without an entry point,
            # would fail every later process too: drop it so the next
            # load rebuilds.
            self._warn(f"{self.label} load failed ({exc!r})")
            with contextlib.suppress(OSError):
                os.unlink(lib_path)
            return None
        return lib
